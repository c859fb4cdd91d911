"""Run the benchmark over several seeds and summarise each end-to-end
metric as its median and quartile spread ((Q3 - Q1) / median), next to the
bound in BENCHMARK.json. With --out, also runs one traced pass per workload
and writes the summary with the environment and the `src/` line count.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads dirac,...]
                                  [--out perfbench/baseline.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from record import environment, src_lines  # noqa: E402
from run import ROOT  # noqa: E402


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out")
    args = p.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in seed_list(args.seeds):
            doc = run_bench(workload, seed, seconds, 0)
            attempted += doc["attempted"]
            failed += doc["failed"]
            for name in bounds:
                values[name].append(doc["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "spread": (q3 - q1) / med,
                          "bound": bounds[name], "values": vals}
            print(f"{workload:15s} {name:12s} median {med:10.4f} "
                  f"spread {rows[name]['spread']:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        summary[workload] = {"attempted": attempted, "failed": failed,
                             "end_to_end": rows}
        if args.out:
            summary[workload]["per_layer"] = run_bench(
                workload, 0, seconds, 1)["metrics"]
    if args.out:
        doc = {"seeds": args.seeds, "run_seconds": seconds,
               "env": environment(), "src_lines": src_lines(),
               "workloads": summary}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
