"""Benchmark workloads: the generated `hypnl run` configs and the checks of
their outputs against the recorded seed reference (reference.json).

Each workload turns a run directory into four groups of values:

  * exact     verdicts, `n_used` and pass flags; must match exactly;
  * series    floats that do not depend on the config seed; must match the
              reference to RTOL times the largest magnitude in the series;
  * seeded    floats that depend on the config seed (random probes or random
              data); compared like `series`, but only at the reference seed;
  * accuracy  error measures at discretization or round-off level; checked
              against the CLI's own limit, never against the reference,
              because reordered sums may move them by more than RTOL.
"""

from __future__ import annotations

import csv
import json
import math
import os

RTOL = 1e-8

WORKLOADS = {
    "counterexample": {
        "scenario": "counterexample",
        "options": {"T": 0.25, "W": 0.5, "n_max": 15, "tol": 3e-5},
    },
    "dirac": {
        "scenario": "dirac",
        "options": {"points": 256, "refine": False, "T": 0.5, "n_max": 5,
                    "tol": 1e-6, "delta": 0.125},
    },
    "maxwell3d": {
        "scenario": "maxwell",
        "options": {"mode": "constraints_3d", "points": 16, "n_max": 16,
                    "T": 3.0},
    },
}


def make_config(workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    return {"schema": 1, "scenario": spec["scenario"], "name": workload,
            "seed": seed, "options": dict(spec["options"])}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def _dyson_fields(doc: dict, prefix: str) -> tuple:
    exact = {f"{prefix}.verdict": doc["verdict"],
             f"{prefix}.n_used": doc["n_used"]}
    series = {f"{prefix}.{key}": doc[key]
              for key in ("iterate_sup_norms", "iterate_strip_norms",
                          "residual_history", "ratios")}
    return exact, series


def _counterexample(outdir: str) -> dict:
    rep = _read_json(os.path.join(outdir, "report.json"))
    exact, series = _dyson_fields(rep["divergent"], "divergent")
    exact["pass"] = rep["pass"]
    exact["cone_pass"] = rep["cone_pass"]
    accuracy = {}
    for eps, fam in rep["family"].items():
        exact[f"family.{eps}.verdict"] = fam["verdict"]
        exact[f"family.{eps}.n_used"] = fam["n_used"]
        accuracy[f"family.{eps}.rel_error"] = (fam["rel_error"], 1e-4)
    series["obstruction_pairings"] = [v for pair in rep["obstruction_pairings"]
                                      for v in pair]
    # C_est comes from random probes of estimate_bound, and the majorants
    # are scaled by it
    seeded = {"C_est": rep["C_est"], "margin": rep["margin"],
              "divergent.bound_values": rep["divergent"]["bound_values"]}
    return {"exact": exact, "series": series, "seeded": seeded,
            "accuracy": accuracy}


def _dirac(outdir: str) -> dict:
    rep = _read_json(os.path.join(outdir, "report.json"))
    dys = _read_csv(os.path.join(outdir, "dyson.csv"))
    surf = _read_csv(os.path.join(outdir, "surface_product.csv"))
    exact = {"pass": rep["pass"], "verdict": rep["verdict"],
             "n_used": len(dys["n"]) - 1, "diffes_ok": rep["diffes_ok"]}
    series = {f"dyson.{key}": dys[key]
              for key in ("sup_norm", "strip_norm", "bound", "residual")}
    series["dyson.ratio"] = dys["ratio"][1:]
    series["surface_product"] = surf["surface_product"]
    series["slice_norm_sq"] = surf["slice_norm_sq"]
    series["margin"] = rep["margin"]
    accuracy = {"surface_drift": (rep["surface_drift"], 5e-3),
                "free_norm_drift": (rep["free_norm_drift"], 1e-8),
                "kernel_symmetry_defect": (rep["kernel_symmetry_defect"],
                                           1e-10)}
    return {"exact": exact, "series": series, "seeded": {},
            "accuracy": accuracy}


def _maxwell3d(outdir: str) -> dict:
    rep = _read_json(os.path.join(outdir, "report.json"))
    exact, seeded = _dyson_fields(rep["dyson"], "dyson")
    exact["pass"] = rep["pass"]
    # the initial field is drawn from the config seed
    seeded["dyson.bound_values"] = rep["dyson"]["bound_values"]
    seeded["field_scale"] = rep["field_scale"]
    scale = rep["field_scale"]
    accuracy = {"gauss_residual/field_scale": (rep["gauss_residual"] / scale,
                                               1e-6),
                "divb_drift/field_scale": (rep["divb_drift"] / scale, 1e-6)}
    return {"exact": exact, "series": {}, "seeded": seeded,
            "accuracy": accuracy}


EXTRACT = {"counterexample": _counterexample, "dirac": _dirac,
           "maxwell3d": _maxwell3d}


def extract(workload: str, outdir: str) -> dict:
    return EXTRACT[workload](outdir)


def _float_mismatch(got, ref) -> bool:
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return True
        scale = max((abs(v) for v in ref if math.isfinite(v)), default=0.0)
        return any(_value_mismatch(g, r, scale) for g, r in zip(got, ref))
    return _value_mismatch(got, ref, abs(ref))


def _value_mismatch(got: float, ref: float, scale: float) -> bool:
    if not (math.isfinite(got) and math.isfinite(ref)):
        return not (got == ref or (math.isnan(got) and math.isnan(ref)))
    return abs(got - ref) > RTOL * scale


def compare(values: dict, ref: dict, same_seed: bool) -> list:
    """Descriptions of every way `values` disagrees with the reference."""
    problems = []
    for key, want in ref["exact"].items():
        got = values["exact"].get(key)
        if got != want:
            problems.append(f"{key}: {got!r} != reference {want!r}")
    groups = ["series"] + (["seeded"] if same_seed else [])
    for group in groups:
        for key, want in ref[group].items():
            got = values[group].get(key)
            if got is None or _float_mismatch(got, want):
                problems.append(f"{key} differs from the reference by more "
                                f"than rtol {RTOL:g}")
    for key, (got, limit) in values["accuracy"].items():
        if not got <= limit:
            problems.append(f"{key} = {got:.3e} above its limit {limit:g}")
    return problems
