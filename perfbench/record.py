"""Record the seed reference (reference.json) that run.py checks outputs
against. Run from the repository root on the code the reference should pin:

    python3 perfbench/record.py

Each workload runs once at the reference seed and once at a second seed;
the values classed as seed-independent (`exact` and `series`) must agree
bitwise between the two, which confirms the classification in workloads.py.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT, ROOT, SRC, child_env  # noqa: E402
from workloads import RTOL, WORKLOADS, extract, make_config  # noqa: E402

REFERENCE_SEED = 0
CHECK_SEED = 1


def environment() -> dict:
    """Informational: where a reference or baseline was measured."""
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    keys = ("HYPNL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "threads": {k: child_env().get(k) for k in keys}}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "hypnl")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def run_once(workload: str, seed: int, tmp: str) -> dict:
    cfg = os.path.join(tmp, f"{workload}-{seed}.json")
    out = os.path.join(tmp, f"{workload}-{seed}")
    with open(cfg, "w") as fh:
        json.dump(make_config(workload, seed), fh)
    subprocess.run([sys.executable, "-m", "hypnl.cli", "run", "--config", cfg,
                    "--out", out], env=child_env(), cwd=ROOT, check=True)
    return extract(workload, out)


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in WORKLOADS:
            ref = run_once(workload, REFERENCE_SEED, tmp)
            other = run_once(workload, CHECK_SEED, tmp)
            for group in ("exact", "series"):
                if ref[group] != other[group]:
                    diff = sorted(k for k in ref[group]
                                  if ref[group][k] != other[group].get(k))
                    raise SystemExit(f"{workload}: {group} values {diff} "
                                     "depend on the seed")
            refs[workload] = {
                "config": make_config(workload, REFERENCE_SEED),
                "exact": ref["exact"], "series": ref["series"],
                "seeded": ref["seeded"],
                "accuracy": {k: v for k, (v, _) in ref["accuracy"].items()},
                "accuracy_limit": {k: lim for k, (_, lim)
                                   in ref["accuracy"].items()},
            }
            print(f"{workload}: recorded", flush=True)
    doc = {"seed": REFERENCE_SEED, "rtol": RTOL, "env": environment(),
           "src_lines": src_lines(), "workloads": refs}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
