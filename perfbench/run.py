"""hypnl benchmark: runs one workload through `hypnl run` in fresh child
processes, one at a time, checks every run's output against the recorded
seed reference, and prints the metrics as JSON on the last line.

    python3 perfbench/run.py --workload dirac --seed 0 --seconds 40 --trace 0

--trace 0  end-to-end metrics: medians over the repeats that fit in
           --seconds (at least one), plus set-up probes. Times are scaled
           to nominal host speed by the probe that runs inside each child
           (hostspeed.py); the raw ones are kept in the result file.
--trace 1  per-layer metrics: pairs of an untraced and a traced repeat;
           the traced one wraps the layer functions listed in tracer.py.

Run from the repository root; the package is imported from ./src. Scratch
files go to ./.perfbench_out (failed runs are kept there for inspection).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import NOMINAL_S  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, compare, extract, make_config  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0   # a whole benchmark run must end within 180 s

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

TRACED_FUNCTIONS = ("grids.diff4", "systems.evolution_rhs",
                    "solver.solve_local", "grids.frame_norms_sq",
                    "kernels.apply_all", "dyson.residual")


def per_layer_units() -> dict:
    units = {}
    for fn in TRACED_FUNCTIONS:
        units.update({f"{fn}.calls": "count", f"{fn}.self_s": "s",
                      f"{fn}.us_per_call": "us"})
    units.update({"grids.diff4.computed_bytes": "B",
                  "solver.rk4_steps": "count", "solver.us_per_step": "us",
                  "kernels.apply.calls": "count", "dyson.iterates": "count",
                  "kernels.estimate_bound.self_s": "s",
                  "diagnostics.measure_D.self_s": "s",
                  "cli.execute.self_s": "s"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.run_s": "s", "trace.overhead": "ratio",
                  "trace.accounted": "ratio"})
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run at all (no result is printed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["HYPNL_THREADS"] = "1"
    # one thread per child: on a 2-core host a second BLAS thread measures
    # the scheduler, not the program
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def scaled(doc: dict, key: str) -> float:
    """doc[key] at nominal host speed: the probes' own time taken out of a
    run's times, then scaled by NOMINAL_S over their mean."""
    own = 0.0 if key == "setup_s" else doc["probe_sum_s"]
    return (doc[key] - own) * NOMINAL_S / doc["probe_mean_s"]


def _run_child(argv: list, result_path: str, log_path: str,
               deadline: float) -> dict:
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")]
                                  + argv, stdout=log, stderr=subprocess.STDOUT,
                                  env=child_env(), cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"child exited with {proc.returncode}; see {log_path}"}
    with open(result_path) as fh:
        doc = json.load(fh)
    if not doc["hypnl_file"].startswith(SRC + os.sep):
        raise BenchError(f"hypnl imported from {doc['hypnl_file']}, "
                         f"not from {SRC}")
    return doc


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str,
                 reference: dict, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference["workloads"][workload]
        self.same_seed = seed == reference["seed"]
        self.deadline = deadline
        self.config = os.path.join(workdir, "config.json")
        with open(self.config, "w") as fh:
            json.dump(make_config(workload, seed), fh, indent=2)
        self.n = 0
        self.attempted = 0
        self.failures: list = []

    def setup_probe(self) -> float:
        self.n += 1
        result = os.path.join(self.workdir, f"setup{self.n}.json")
        doc = _run_child(["setup", "--config", self.config,
                          "--result", result],
                         result, result + ".log", self.deadline)
        if "error" in doc:
            raise BenchError(f"set-up probe failed: {doc['error']}")
        return scaled(doc, "setup_s")

    def repeat(self, spans: str = "") -> dict:
        """One checked `hypnl run`; traced when `spans` names a file."""
        self.n += 1
        self.attempted += 1
        out = os.path.join(self.workdir, f"run{self.n}")
        result = out + ".json"
        argv = ["run", "--config", self.config, "--out", out,
                "--result", result]
        if spans:
            argv += ["--spans", spans]
        doc = _run_child(argv, result, out + ".log", self.deadline)
        problems = [doc["error"]] if "error" in doc else self._check(doc, out)
        if problems:
            self.failures.append({"run": out, "problems": problems})
        else:
            shutil.rmtree(out)
        return doc

    def _check(self, doc: dict, out: str) -> list:
        if doc["exit_code"] != 0:
            return [f"hypnl run exited with {doc['exit_code']}"]
        try:
            values = extract(self.workload, out)
        except (OSError, IndexError, KeyError, TypeError, ValueError) as exc:
            return [f"unreadable run output: {exc!r}"]
        return compare(values, self.reference, self.same_seed)


def _median(docs: list, key: str) -> float:
    return statistics.median(d[key] for d in docs if key in d)


def _time_left(start: float, seconds: float, last: float) -> bool:
    return time.monotonic() - start + last <= seconds


def end_to_end(runner: Runner, seconds: float) -> tuple:
    start = time.monotonic()
    runner.setup_probe()    # warm-up: file cache and bytecode; not used
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    runs = []
    while True:
        t0 = time.monotonic()
        runs.append(runner.repeat())
        if not _time_left(start, seconds, time.monotonic() - t0):
            break
    timed = [d for d in runs if "run_s" in d]
    if not timed:
        raise BenchError("no run produced timings: "
                         + "; ".join(runner.failures[0]["problems"]))
    setups += [scaled(d, "setup_s") for d in timed]
    metrics = {key: statistics.median(scaled(d, key) for d in timed)
               for key in ("run_s", "cpu_s")}
    metrics["peak_rss_mb"] = _median(timed, "peak_rss_mb")
    metrics["setup_s"] = statistics.median(setups)
    samples = {"run_s": len(timed), "cpu_s": len(timed),
               "peak_rss_mb": len(timed), "setup_s": len(setups)}
    return metrics, samples, {"runs": runs, "setup_s": setups}


def _layer_metrics(doc: dict) -> dict:
    trace = doc["trace"]
    stats, counters = trace["stats"], trace["counters"]

    def stat(name):
        return stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call_us(name):
        s = stat(name)
        return 1e6 * s["total_s"] / s["calls"] if s["calls"] else 0.0

    m = {}
    for fn in TRACED_FUNCTIONS:
        m[f"{fn}.calls"] = stat(fn)["calls"]
        m[f"{fn}.self_s"] = stat(fn)["self_s"]
        m[f"{fn}.us_per_call"] = per_call_us(fn)
    m["grids.diff4.computed_bytes"] = counters.get("grids.diff4.computed_bytes", 0)
    m["solver.rk4_steps"] = stat("solver.rk4_step")["calls"]
    m["solver.us_per_step"] = per_call_us("solver.rk4_step")
    m["kernels.apply.calls"] = stat("kernels.apply")["calls"]
    m["dyson.iterates"] = counters.get("dyson.iterates", 0)
    for name in ("kernels.estimate_bound", "diagnostics.measure_D",
                 "cli.execute"):
        m[f"{name}.self_s"] = stat(name)["self_s"]
    for layer, self_s in trace["layer_self_s"].items():
        m[f"{layer}.self_s"] = self_s
    m["trace.run_s"] = doc["run_s"]
    m["trace.accounted"] = sum(trace["layer_self_s"].values()) / doc["run_s"]
    return m


def traced(runner: Runner, seconds: float) -> tuple:
    start = time.monotonic()
    plain, traced_docs = [], []
    spans = os.path.join(OUT, f"spans-{runner.workload}-{runner.seed}.json")
    while True:
        t0 = time.monotonic()
        plain.append(runner.repeat())
        traced_docs.append(runner.repeat(spans))
        if not _time_left(start, seconds, time.monotonic() - t0):
            break
    plain = [d for d in plain if "run_s" in d]
    traced_docs = [d for d in traced_docs if "trace" in d]
    if not plain or not traced_docs:
        raise BenchError("no traced pair produced timings: "
                         + "; ".join(runner.failures[0]["problems"]))
    per_run = [_layer_metrics(d) for d in traced_docs]
    metrics = {key: statistics.median(m[key] for m in per_run)
               for key in per_run[0]}
    plain_s = statistics.median(d["run_s"] - d["probe_sum_s"] for d in plain)
    metrics["trace.overhead"] = metrics["trace.run_s"] / plain_s
    samples = {key: len(per_run) for key in metrics}
    counters = traced_docs[-1]["trace"]["counters"]
    extra = {"diff4_calls_by_shape": {k: v for k, v in counters.items()
                                      if k.startswith("grids.diff4.calls[")},
             "untraced_run_s": [d["run_s"] for d in plain],
             "spans_file": spans, "runs": plain + traced_docs}
    return metrics, samples, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(SRC, "hypnl", "__init__.py")):
        print(f"benchmark: no hypnl package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(args.workload, args.seed, workdir, reference, deadline)
    try:
        if args.trace:
            metrics, samples, extra = traced(runner, args.seconds)
            units = per_layer_units()
        else:
            metrics, samples, extra = end_to_end(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    for key in units:
        print(f"{args.workload} {key} = {metrics[key]:.6g} {units[key]} "
              f"(median of {samples[key]})")
    for failure in runner.failures:
        print(f"FAILED {failure['run']}: " + "; ".join(failure["problems"]))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "metrics": metrics, "samples": samples,
                   "failures": runner.failures, **extra}, fh, indent=1)
    if not runner.failures:
        shutil.rmtree(workdir)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
