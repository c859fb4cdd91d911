"""One benchmark child process: a fresh interpreter that runs a single
`hypnl run` (optionally traced) or only the CLI's set-up, and writes its
timings to a JSON file.

    python3 perfbench/child.py setup --config C --result R
    python3 perfbench/child.py run --config C --out DIR --result R [--spans S]

`setup_s` covers `import hypnl` plus `load_config`, which every CLI
invocation pays. `run_s` and `cpu_s` cover the `hypnl run` call, from config
load to the last report file written. All three are raw: the host-speed
probe (hostspeed.py) runs on a timer during an untraced run, and in a burst
after set-up in `setup` mode, and run.py scales by its timings. With
`--spans` the run is traced (see tracer.py), without the probe, and the
spans are written to that file after the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

SETUP_BURST_S = 0.25


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--config", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--out")
    p.add_argument("--spans")
    args = p.parse_args()

    t0 = time.perf_counter()
    import hypnl
    import hypnl.cli
    hypnl.cli.load_config(args.config)
    doc = {"setup_s": time.perf_counter() - t0,
           "hypnl_file": os.path.abspath(hypnl.__file__)}

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from hostspeed import Probe
    probe = None if args.spans else Probe()
    if args.mode == "run":
        tracer = None
        if args.spans:
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
        else:
            probe.start()
        c0, t1 = time.process_time(), time.perf_counter()
        code = hypnl.cli.cli_run(["run", "--config", args.config,
                                  "--out", args.out])
        if probe is not None:
            probe.stop()
        doc["run_s"] = time.perf_counter() - t1
        doc["cpu_s"] = time.process_time() - c0
        doc["exit_code"] = code
        if tracer is not None:
            doc["trace"] = tracer.summary()
            tracer.dump(args.spans)
    else:
        probe.burst(SETUP_BURST_S)
    if probe is not None:
        doc.update(probe.summary())

    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
