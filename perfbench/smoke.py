"""Smoke check of the benchmark harness itself (compares no timings).

    python3 perfbench/smoke.py [workload ...]

For each workload it runs run.py once untraced and once traced at the
reference seed and checks the printed result: the output checks passed, the
metric names and units are those of BENCHMARK.json, and the trace accounts
for the traced run. It also checks that the reference comparison flags a
changed verdict, `n_used` or series value, and that run.py refuses to run
(non-zero exit, no result) without the package sources. Takes a few minutes.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT, ROOT  # noqa: E402
from workloads import RTOL, WORKLOADS, compare  # noqa: E402


def bench(argv: list, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py"] + argv,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, expected: dict, label: str) -> dict:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, label
    assert doc["correct"] is True and doc["failed"] == 0, f"{label}: {proc.stdout}"
    assert doc["attempted"] >= 1, label
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert got == expected, f"{label}: metrics {got} != BENCHMARK.json {expected}"
    for key, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{label}: {key} = {m['value']!r}"
    return {k: v["value"] for k, v in doc["metrics"].items()}


def expected_iterates(ref: dict) -> int:
    return sum(v + 1 for k, v in ref["exact"].items() if k.endswith("n_used"))


def check_comparison(reference: dict) -> None:
    """compare() accepts the reference itself and round-off-sized changes,
    and flags a changed verdict, n_used or series value."""
    ref = reference["workloads"]["counterexample"]
    limits = ref["accuracy_limit"]
    values = {"exact": dict(ref["exact"]), "series": dict(ref["series"]),
              "seeded": dict(ref["seeded"]),
              "accuracy": {k: (v, limits[k]) for k, v in ref["accuracy"].items()}}
    assert compare(values, ref, True) == []
    nudged = copy.deepcopy(values)
    nudged["series"]["divergent.iterate_strip_norms"][3] *= 1 + RTOL / 10
    assert compare(nudged, ref, True) == []
    for group, key, new in (
            ("exact", "divergent.verdict", "Converged"),
            ("exact", "family.0.5.n_used", ref["exact"]["family.0.5.n_used"] + 1),
            ("series", "divergent.residual_history", None)):
        bad = copy.deepcopy(values)
        if new is None:
            bad[group][key][-1] *= 1 + 1e3 * RTOL
        else:
            bad[group][key] = new
        problems = compare(bad, ref, True)
        assert problems and key in problems[0], f"{key} change not flagged"


def check_refuses_without_sources() -> None:
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "dirac", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "benchmark ran without the sources"
        assert '"metrics"' not in proc.stdout, "printed a result anyway"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    check_comparison(reference)
    check_refuses_without_sources()
    print("comparison and refusal checks: ok", flush=True)

    for workload in sys.argv[1:] or list(WORKLOADS):
        common = ["--workload", workload, "--seed", str(reference["seed"]),
                  "--seconds", "1"]
        check_result(bench(common + ["--trace", "0"]), e2e,
                     f"{workload} untraced")
        m = check_result(bench(common + ["--trace", "1"]), layer,
                         f"{workload} traced")
        assert abs(m["trace.accounted"] - 1.0) < 0.01, m["trace.accounted"]
        want = expected_iterates(reference["workloads"][workload])
        assert m["dyson.iterates"] == want, (m["dyson.iterates"], want)
        assert m["solver.rk4_steps"] > 0 and m["grids.diff4.calls"] > 0
        assert m["trace.overhead"] > 0
        print(f"{workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
