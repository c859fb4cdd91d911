"""Smoke runs of the scripts the README documents, so that they cannot break
unnoticed."""

import os
import re
import subprocess
import sys

import hypnl

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_convergence_study_prints_an_order():
    # the child imports the package this process imports
    pkg_root = os.path.dirname(os.path.dirname(hypnl.__file__))
    path = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "convergence_study.py"),
         "--levels", "2", "--base-points", "32"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    order = re.search(r"order\s+(-?\d+\.\d+)$", lines[1])
    assert order is not None, proc.stdout
    assert float(order.group(1)) > 1.0
