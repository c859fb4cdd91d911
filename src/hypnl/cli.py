"""Command-line entry point: configuration loading with strict schema
checking, scenario orchestration (optionally fanned out over a thread pool
capped by HYPNL_THREADS), and report/CSV persistence.

Exit codes: 0 pass, 1 configuration or runtime error, 2 assertion failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import sys
import typing
from typing import Optional

import numpy as np

from . import __version__
from .grids import StateField
from .systems import PROFILES, system_from_json, validate_system
from .systems import SystemError as SystemSpecError
from .kernels import estimate_bound, threshold_margin
from .solver import SolveOptions, solve_local
from .dyson import LIVE_TRAJECTORIES, result_to_csv, result_to_json
from .diagnostics import energy_identity, measure_D
from .scenarios import (MAXWELL_MODES, CounterexampleConfig, DiracConfig,
                        MaxwellConfig, build_counterexample,
                        counterexample_report, dirac_problem, dirac_run,
                        drude_lorentz, extended_system_check, maxwell_kernel,
                        maxwell_problem, maxwell_run, bump)


class ConfigError(ValueError):
    pass


SCHEMA_VERSION = 1

_SCENARIOS = ("custom", "counterexample", "maxwell", "dirac", "extended_check")

_TOP_KEYS = {"schema", "scenario", "name", "seed", "options", "members"}


def _option_types(fn) -> dict:
    """Option key -> type for the parameters of a config dataclass or of a
    scenario function, as annotated (e.g. `Optional[float]`)."""
    hints = typing.get_type_hints(fn)
    return {key: hints[key] for key in inspect.signature(fn).parameters}


_OPTION_TYPES = {
    "counterexample": _option_types(CounterexampleConfig),
    "maxwell": _option_types(MaxwellConfig),
    "dirac": _option_types(DiracConfig),
    "extended_check": _option_types(extended_system_check),
    "custom": {"system": dict, "kernel": Optional[dict], "dt": float,
               "cfl": float, "T": float, "data_width": float},
}

# the option defaults of extended_check, read once (see _check_extended)
_EXTENDED_DEFAULTS = {
    key: p.default
    for key, p in inspect.signature(extended_system_check).parameters.items()}

_KERNEL_KEYS = {"kind", "chi0", "c1", "c2", "delta"}

_SYSTEM_KEYS = {"grid", "A0", "Aj", "S0", "beta", "name"}

_GRID_KEYS = {"dim", "extent", "points", "fiber"}


@dataclasses.dataclass
class RunConfig:
    scenario: str
    name: str
    seed: int
    options: dict
    members: Optional[list] = None
    raw: dict = dataclasses.field(default_factory=dict)
    path: str = ""          # field path prefix of this document in its file


def _check_keys(doc: dict, allowed: set, path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}'")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite JSON number that fits a float (bools are not numbers)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", dict: "an object", type(None): "null"}


def _has_type(val, tp) -> bool:
    """Whether a JSON value fits an option type: bool, int (not a bool),
    float (a finite number), str, dict, or an Optional of one of them."""
    if typing.get_origin(tp) is typing.Union:
        return any(_has_type(val, arg) for arg in typing.get_args(tp))
    if tp is int:
        return _is_int(val)
    if tp is float:
        return _is_number(val)
    return isinstance(val, tp)


def _require(ok: bool, path: str, what: str) -> None:
    if not ok:
        raise ConfigError(f"'{path}' {what}")


def _validate_profile(spec: dict, path: str) -> None:
    """A named built-in profile: {"profile": name, "params": {...}}."""
    _check_keys(spec, {"profile", "params"}, f"{path}.")
    name = spec.get("profile")
    _require(isinstance(name, str) and name in PROFILES, f"{path}.profile",
             f"must be one of {sorted(PROFILES)}")
    params = spec.get("params")
    _require(isinstance(params, dict), f"{path}.params", "must be an object")
    names = set(inspect.signature(PROFILES[name]).parameters) - {"grid"}
    _check_keys(params, names, f"{path}.params.")
    for key in sorted(names):
        _require(_is_number(params.get(key)), f"{path}.params.{key}",
                 "must be a number")


def _validate_coefficient(spec, path: str, fiber: int) -> None:
    """A constant fiber matrix of [re, im] pairs, or a named profile."""
    _require(isinstance(spec, dict), path, "must be an object")
    if "profile" in spec:
        _validate_profile(spec, path)
        return
    _require("matrix" in spec, path, "needs 'matrix' or 'profile'")
    _check_keys(spec, {"matrix"}, f"{path}.")
    m = spec["matrix"]
    ok = isinstance(m, list) and len(m) == fiber and all(
        isinstance(row, list) and len(row) == fiber and all(
            isinstance(c, list) and len(c) == 2 and all(map(_is_number, c))
            for c in row)
        for row in m)
    _require(ok, f"{path}.matrix",
             f"must be {fiber} rows of {fiber} [re, im] pairs")


def _check_memory(size: int, path: str, what: str) -> None:
    """Refuse the option at `path` when it makes `what`, of `size` bytes,
    larger than the physical memory, before any array is built."""
    memory = _physical_memory()
    _require(size <= memory, path, f"makes {what}, more than the "
             f"{memory:.3g} B of physical memory")


def _check_slice(points: int, dim: int, fiber: int, path: str) -> None:
    """Refuse a grid of `points` per axis whose one slice exceeds the
    physical memory, before any array is built."""
    size = points ** dim * fiber * 16        # bytes in one slice
    _check_memory(size, path, f"one {size:.3g} B slice")


def _check_extended(options: dict, path: str) -> None:
    """Refuse extended_check options whose arrays exceed the physical
    memory, before any is built: the (3 fiber)^2 coefficients of the
    extended system, one slice of the extended fiber 3 fiber on `points`
    sites, a trajectory of `frames` such slices, and the extended kernel's
    10 rank such trajectories."""
    points, fiber, frames, rank = (
        options.get(key, _EXTENDED_DEFAULTS[key])
        for key in ("points", "fiber", "frames", "rank"))
    f3 = 3 * fiber
    size = f3 * f3 * 16
    _check_memory(size, f"{path}options.fiber",
                  f"{f3} x {f3} coefficients of {size:.3g} B")
    _check_slice(points, 1, f3, f"{path}options.points")
    size = frames * points * f3 * 16
    _check_memory(size, f"{path}options.frames",
                  f"a trajectory of {frames} slices, {size:.3g} B")
    size *= 10 * rank
    _check_memory(size, f"{path}options.rank",
                  f"kernels of {10 * rank} trajectories of {frames} slices, "
                  f"{size:.3g} B")


def _validate_system(doc, path: str) -> None:
    """Keys and shapes of a serialized system (see system_from_json)."""
    _require(isinstance(doc, dict), path, "must be an object")
    _check_keys(doc, _SYSTEM_KEYS, f"{path}.")
    for key in ("grid", "A0", "Aj"):
        _require(key in doc, f"{path}.{key}", "is required")
    grid = doc["grid"]
    _require(isinstance(grid, dict), f"{path}.grid", "must be an object")
    _check_keys(grid, _GRID_KEYS, f"{path}.grid.")
    dim, fiber = grid.get("dim"), grid.get("fiber")
    _require(_is_int(dim) and dim in (1, 3), f"{path}.grid.dim", "must be 1 or 3")
    _require(_is_int(grid.get("points")) and grid["points"] >= 8,
             f"{path}.grid.points", "must be an integer >= 8")
    _require(_is_number(grid.get("extent")) and grid["extent"] > 0,
             f"{path}.grid.extent", "must be a positive number")
    _require(_is_int(fiber) and fiber >= 1, f"{path}.grid.fiber",
             "must be an integer >= 1")
    _check_slice(grid["points"], dim, fiber, f"{path}.grid.points")
    _validate_coefficient(doc["A0"], f"{path}.A0", fiber)
    aj = doc["Aj"]
    _require(isinstance(aj, list) and len(aj) == dim, f"{path}.Aj",
             f"must be a list of {dim} coefficients")
    for j, a in enumerate(aj):
        _validate_coefficient(a, f"{path}.Aj[{j}]", fiber)
    if "S0" in doc:
        _validate_coefficient(doc["S0"], f"{path}.S0", fiber)
    if "beta" in doc:
        beta = doc["beta"]
        _require(isinstance(beta, dict), f"{path}.beta", "must be an object")
        if "profile" in beta:
            _validate_profile(beta, f"{path}.beta")
        else:
            _check_keys(beta, {"constant"}, f"{path}.beta.")
            _require(_is_number(beta.get("constant")), f"{path}.beta.constant",
                     "must be a number")
    if "name" in doc:
        _require(isinstance(doc["name"], str), f"{path}.name", "must be a string")


# option ranges, checked for every scenario whose options name the key
# (after its type, and not on null): the SolveOptions ranges, the grid size,
# the kernel range, the Maxwell mode table and the sizes of extended_check
# (the only scenario with n_fields, fiber, frames and rank options)
_RANGES = {
    "dt": (lambda v: v > 0, "must be positive"),
    "T": (lambda v: v > 0, "must be positive"),
    "cfl": (lambda v: 0 < v <= 0.5, "must lie in (0, 0.5]"),
    "points": (lambda v: v >= 8, "must be at least 8"),
    "delta": (lambda v: v > 0, "must be positive"),
    "n_pot": (lambda v: v >= 1, "must be at least 1"),
    "mode": (lambda v: v in MAXWELL_MODES,
             f"must be one of {sorted(MAXWELL_MODES)}"),
    "n_fields": (lambda v: v >= 1, "must be at least 1"),
    "fiber": (lambda v: v >= 1, "must be at least 1"),
    "frames": (lambda v: v >= 2, "must be at least 2"),
    "rank": (lambda v: v >= 1, "must be at least 1"),
}


def _validate_doc(doc: dict, path: str = "") -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config at '{path or '.'}' must be an object")
    _check_keys(doc, _TOP_KEYS, path)
    if not _is_int(doc.get("schema")) or doc["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"'{path}schema' must be {SCHEMA_VERSION}")
    _require(_is_int(doc.get("seed", 0)), f"{path}seed", "must be an integer")
    members = doc.get("members")
    if members is not None:
        if not isinstance(members, list) or not members:
            raise ConfigError(f"'{path}members' must be a nonempty list")
        sub = [_validate_doc(m, path=f"{path}members[{i}].")
               for i, m in enumerate(members)]
        return RunConfig(scenario="batch", name=str(doc.get("name", "batch")),
                         seed=int(doc.get("seed", 0)), options={},
                         members=sub, raw=doc)
    scenario = doc.get("scenario")
    if scenario not in _SCENARIOS:
        raise ConfigError(f"'{path}scenario' must be one of {_SCENARIOS}")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError(f"'{path}options' must be an object")
    types = _OPTION_TYPES[scenario]
    _check_keys(options, types, f"{path}options.")
    for key, val in options.items():
        tp = types[key]
        what = " or ".join(_TYPE_NAMES[arg]
                           for arg in typing.get_args(tp) or (tp,))
        _require(_has_type(val, tp), f"{path}options.{key}", f"must be {what}")
        if key in _RANGES and val is not None:
            in_range, what = _RANGES[key]
            _require(in_range(val), f"{path}options.{key}", what)
    if scenario in ("maxwell", "dirac") and "points" in options:
        # the grid maxwell_problem or dirac_problem builds
        mode = options.get("mode", MaxwellConfig.mode)
        dim, fiber = ((3, 6) if scenario == "maxwell"
                      and mode in ("vacuum_3d", "constraints_3d") else (1, 2))
        _check_slice(options["points"], dim, fiber, f"{path}options.points")
    if scenario == "extended_check":
        _check_extended(options, path)
    if scenario == "custom":
        if "system" not in options:
            raise ConfigError(f"'{path}options.system' is required for "
                              "custom runs")
        _validate_system(options["system"], f"{path}options.system")
        kern = options.get("kernel")
        if kern is not None:
            if not isinstance(kern, dict):
                raise ConfigError(f"'{path}options.kernel' must be an object")
            _check_keys(kern, _KERNEL_KEYS, f"{path}options.kernel.")
            if kern.get("kind") not in ("none", "drude_lorentz"):
                raise ConfigError(f"'{path}options.kernel.kind' must be "
                                  "'none' or 'drude_lorentz'")
            for key in sorted(set(kern) - {"kind"}):
                _require(_is_number(kern[key]), f"{path}options.kernel.{key}",
                         "must be a number")
            _require(kern.get("delta", math.inf) > 0,
                     f"{path}options.kernel.delta", "must be positive")
    cfg = RunConfig(scenario=scenario, name=str(doc.get("name", scenario)),
                    seed=int(doc.get("seed", 0)), options=dict(options),
                    raw=doc, path=path)
    if scenario == "custom":
        _build_custom(cfg)      # what only the built run refuses, at load
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return _validate_doc(doc)


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# scenario assembly

def _seeded_options(cfg: RunConfig) -> dict:
    opts = dict(cfg.options)
    opts.setdefault("seed", cfg.seed)
    return opts


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _build_custom(cfg: RunConfig):
    """(system, kernel-or-None, SolveOptions, T) for a custom config whose
    keys and types are checked. What only the built run can refuse is a
    ConfigError on its path: a SystemSpec refusal on the field it names
    (options.system.A0 not Hermitian positive definite, an
    options.system.Aj[j] that is not Hermitian, a coefficient or lapse that
    is not finite, a lapse that is not positive), v_max = 0 without
    options.dt, a drude_lorentz memory on fiber 1, T under 2 steps, and a
    run whose trajectories exceed the physical memory (checked before the
    kernel is built)."""
    opts = cfg.options
    try:
        sys_spec = system_from_json(opts["system"])
    except SystemSpecError as exc:
        field = "" if exc.field is None else f".{exc.field}"
        raise ConfigError(f"'{cfg.path}options.system{field}' {exc.what}") \
            from exc
    dt = opts.get("dt")
    cfl = float(opts.get("cfl", 0.25))
    if dt is None:
        _require(sys_spec.v_max > 0, f"{cfg.path}options.dt",
                 "is required when the signal speed v_max is 0")
        dt = cfl * sys_spec.grid.spacing / sys_spec.v_max
    sopts = SolveOptions(dt=float(dt), cfl=cfl)
    T = float(opts.get("T", sys_spec.grid.extent))
    steps = round(T / sopts.dt)
    _require(steps >= 2, f"{cfg.path}options.T", f"is {steps} step(s) of "
             f"options.dt = {sopts.dt:.6g}; need at least 2")
    kern = None
    kspec = opts.get("kernel")
    dyson = bool(kspec) and kspec.get("kind") == "drude_lorentz"
    # a free run holds one trajectory of steps + 1 frames, the Dyson run on
    # [0, T] LIVE_TRAJECTORIES of them
    g = sys_spec.grid
    count = LIVE_TRAJECTORIES if dyson else 1
    size = count * (steps + 1) * g.sites * g.fiber * 16
    _check_memory(size, f"{cfg.path}options.T",
                  f"a {'Dyson' if dyson else 'free'} run of {steps + 1} "
                  f"frames of options.dt = {sopts.dt:.6g}, {size:.3g} B in "
                  f"{count} trajector{'ies' if count > 1 else 'y'}")
    if dyson:
        # the memory acts on the first fiber // 2 components (the E field of
        # maxwell_kernel): none at fiber 1
        _require(sys_spec.grid.fiber >= 2, f"{cfg.path}options.kernel.kind",
                 "drude_lorentz needs options.system.grid.fiber >= 2; at "
                 "fiber 1 its memory is zero")
        _, chi_dot = drude_lorentz(float(kspec.get("chi0", 0.2)),
                                   float(kspec.get("c1", 1.0)),
                                   float(kspec.get("c2", 2.0)))
        kern = maxwell_kernel(sys_spec.grid, chi_dot,
                              delta_eff=float(kspec.get("delta", math.inf)))
    return sys_spec, kern, sopts, steps * sopts.dt


def _bounds_subject(cfg: RunConfig):
    """(system, kernel or None, known C or None) for check-bounds and
    validate, built by the scenario's own builder."""
    opts = _seeded_options(cfg)
    if cfg.scenario == "dirac":
        sys_spec, kern, C, _, _ = dirac_problem(DiracConfig(**opts))
        return sys_spec, kern, C
    if cfg.scenario == "counterexample":
        sys_spec, kern, _, _ = build_counterexample(
            CounterexampleConfig(**opts))
    elif cfg.scenario == "maxwell":
        mcfg = MaxwellConfig(**opts)
        sys_spec, kern, _, _ = maxwell_problem(mcfg, mcfg.mode)
    elif cfg.scenario == "custom":
        sys_spec, kern, _, _ = _build_custom(cfg)
    else:
        raise ConfigError(f"scenario {cfg.scenario!r} has no bound subject")
    return sys_spec, kern, None


# ---------------------------------------------------------------------------
# persistence

def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _series_csv(path: str, header: list, columns: list) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in zip(*columns):
            wr.writerow([f"{v:.17g}" if isinstance(v, float) else v
                         for v in row])


# the thread settings a run's manifest records (None where unset)
_THREAD_VARS = ("HYPNL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS")


def _platform() -> str:
    """system-release-machine of `platform.uname()`, then "-with-" and the C
    library when it names itself (Linux-6.1.0-x86_64-with-glibc2.36). Read
    from uname and confstr: `platform.platform()` probes the libc through a
    subprocess."""
    u = platform.uname()
    name = f"{u.system}-{u.release}-{u.machine}"
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = None
    return f"{name}-with-{libc.replace(' ', '')}" if libc else name


def _environment() -> dict:
    """The interpreter, numpy, platform and thread settings of this run;
    only the manifest records it, never the CSVs or report.json."""
    doc = {"python": platform.python_version(), "numpy": np.__version__,
           "platform": _platform()}
    doc.update((name, os.environ.get(name)) for name in _THREAD_VARS)
    return doc


def _manifest(cfg: RunConfig, outdir: str, constants: dict,
              extra: Optional[dict] = None) -> None:
    doc = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "scenario": cfg.scenario,
        "name": cfg.name,
        "seed": cfg.seed,
        "constants": {k: (v if math.isfinite(v) else str(v))
                      for k, v in constants.items()},
        "env": _environment(),
    }
    if extra:
        doc.update(extra)
    _write_json(os.path.join(outdir, "manifest.json"), doc)


def _result_constants(res) -> dict:
    cfgd = res.config
    out = {}
    for key in ("C_est", "D", "M", "K_T", "M_T", "delta", "T", "W"):
        if key in cfgd and isinstance(cfgd[key], (int, float)):
            out[key] = float(cfgd[key])
    if "K_T" not in out and "C_est" in out and "D" in out and "T" in out:
        out["K_T"] = out["C_est"] * math.exp(out["D"] * out["T"] / 2.0)
    if "M_T" not in out and "M" in out and "D" in out and "T" in out:
        out["M_T"] = out["M"] * math.exp(out["D"] * out["T"] / 2.0)
    return out


# ---------------------------------------------------------------------------
# scenario runners: return (report_doc, constants, failures)

def _run_counterexample(cfg: RunConfig, outdir: str):
    ccfg = CounterexampleConfig(**_seeded_options(cfg))
    rep = counterexample_report(ccfg)
    div = rep["divergent"]
    failures = []
    if rep["margin"] <= 1.0:
        failures.append(f"margin {rep['margin']:.3g} not above threshold")
    if rep["witness"] < rep["witness_floor"]:
        failures.append("pointwise witness below 2/delta^2")
    if div.verdict == "Converged":
        failures.append("divergent configuration reported Converged")
    for eps, fam in rep["family"].items():
        if fam["verdict"] != "Converged":
            failures.append(f"eps={eps} family member not Converged")
        if fam["rel_error"] > 1e-4:
            failures.append(f"eps={eps} closed-form mismatch "
                            f"{fam['rel_error']:.2e}")
    result_to_csv(div, os.path.join(outdir, "divergent.csv"))
    doc = {
        "C_est": rep["C_est"], "margin": rep["margin"],
        "witness": rep["witness"], "witness_floor": rep["witness_floor"],
        "divergent": result_to_json(div),
        "obstruction_pairings": [[p.real, p.imag]
                                 for p in rep["obstruction_pairings"]],
        "family": {str(e): {"verdict": f["verdict"],
                            "rel_error": f["rel_error"],
                            "n_used": f["n_used"]}
                   for e, f in rep["family"].items()},
        "cone_pass": bool(rep["diag_cone"].passed),
    }
    consts = {"C_est": rep["C_est"], "margin": rep["margin"]}
    consts.update(_result_constants(div))
    return doc, consts, failures


def _run_maxwell(cfg: RunConfig, outdir: str):
    mcfg = MaxwellConfig(**_seeded_options(cfg))
    rep = maxwell_run(mcfg)
    failures = []
    doc = {"mode": mcfg.mode}
    consts = {}
    if "result" in rep:
        res = rep["result"]
        doc["dyson"] = result_to_json(res)
        result_to_csv(res, os.path.join(outdir, "dyson.csv"))
        consts.update(_result_constants(res))
    if mcfg.mode == "vacuum_1d":
        doc["wave_error"] = rep["wave_error"]
        doc["norm_drift"] = rep["norm_drift"]
        if rep["wave_error"] > 1e-6:
            failures.append(f"plane-wave error {rep['wave_error']:.2e} > 1e-6")
    elif mcfg.mode == "vacuum_3d":
        doc["semi_discrete_error"] = rep["semi_discrete_error"]
        doc["continuum_gap"] = rep["continuum_gap"]
        if rep["semi_discrete_error"] > 1e-4:
            failures.append("3D semi-discrete wave mismatch")
    elif mcfg.mode == "constraints_3d":
        doc["gauss_residual"] = rep["gauss_residual"]
        doc["divb_drift"] = rep["divb_drift"]
        doc["field_scale"] = rep["field_scale"]
        tol = 1e-6 * rep["field_scale"]
        if rep["gauss_residual"] > tol:
            failures.append("nonlocal Gauss constraint violated")
        if rep["divb_drift"] > tol:
            failures.append("divB drift above tolerance")
    elif mcfg.mode == "volterra":
        doc["volterra_error"] = rep["volterra_error"]
        doc["b_drift"] = rep["b_drift"]
        _series_csv(os.path.join(outdir, "volterra.csv"),
                    ["t", "re_E", "im_E", "re_oracle", "im_oracle"],
                    [list(map(float, rep["times"])),
                     [float(v.real) for v in rep["series"]],
                     [float(v.imag) for v in rep["series"]],
                     [float(v.real) for v in rep["oracle"]],
                     [float(v.imag) for v in rep["oracle"]]])
        if rep["volterra_error"] > 1e-6:
            failures.append(f"Volterra mismatch {rep['volterra_error']:.2e}")
    return doc, consts, failures


def _run_dirac(cfg: RunConfig, outdir: str):
    dcfg = DiracConfig(**_seeded_options(cfg))
    rep = dirac_run(dcfg)
    res = rep["result"]
    failures = []
    if rep["clifford_defect"] > 1e-14:
        failures.append("Clifford relations violated")
    if rep["spin_symmetry_defect"] > 1e-14:
        failures.append("spin-product symmetry violated")
    if rep["kernel_symmetry_defect"] > 1e-10:
        failures.append("kernel symmetry above quadrature tolerance")
    if rep["free_norm_drift"] > 1e-8:
        failures.append(f"free-run norm drift {rep['free_norm_drift']:.2e}")
    if rep["margin"] >= 1.0:
        failures.append("margin not in the convergent regime")
    if rep["surface_drift"] > 5e-3:
        failures.append(f"surface-layer drift {rep['surface_drift']:.2e}")
    if not rep["diffes_ok"]:
        failures.append("difference-estimate inequality violated")
    ratios = rep["sprod_ratios"]
    if np.min(ratios) < 0.5 or np.max(ratios) > 2.0:
        failures.append("two-sided product bounds violated")
    result_to_csv(res, os.path.join(outdir, "dyson.csv"))
    _series_csv(os.path.join(outdir, "surface_product.csv"),
                ["t", "surface_product", "slice_norm_sq"],
                [list(map(float, rep["times"])),
                 list(map(float, rep["surface_series"])),
                 list(map(float, rep["plain_series"]))])
    doc = {
        "clifford_defect": rep["clifford_defect"],
        "spin_symmetry_defect": rep["spin_symmetry_defect"],
        "kernel_symmetry_defect": rep["kernel_symmetry_defect"],
        "free_norm_drift": rep["free_norm_drift"],
        "margin": rep["margin"],
        "verdict": res.verdict,
        "surface_drift": rep["surface_drift"],
        "sprod_ratio_min": float(np.min(ratios)),
        "sprod_ratio_max": float(np.max(ratios)),
        "diffes_ok": bool(rep["diffes_ok"]),
    }
    if "drift_order" in rep:
        doc["drift_order"] = rep["drift_order"]
    consts = {"C_est": rep["C_est"], "margin": rep["margin"]}
    consts.update(_result_constants(res))
    return doc, consts, failures


def _run_extended(cfg: RunConfig, outdir: str):
    rep = extended_system_check(**_seeded_options(cfg))
    failures = []
    if rep["max_residual"] > 1e-6:
        failures.append(f"cross-residual {rep['max_residual']:.2e} > 1e-6")
    _series_csv(os.path.join(outdir, "residuals.csv"),
                ["field", "residual"],
                [list(range(len(rep["residuals"]))),
                 list(map(float, rep["residuals"]))])
    doc = {"max_residual": rep["max_residual"],
           "n_fields": len(rep["residuals"])}
    return doc, {}, failures


def _run_custom(cfg: RunConfig, outdir: str):
    sys_spec, kern, sopts, T = _build_custom(cfg)
    grid = sys_spec.grid
    width = float(cfg.options.get("data_width", grid.extent / 8.0))
    x0 = grid.coords()[:, 0]
    shaped = np.repeat(bump((x0 - grid.extent / 2.0) / width)[:, None],
                       grid.fiber, axis=1).astype(complex)
    data = StateField(grid, 0.0, shaped)
    failures = []
    if kern is None:
        tr = solve_local(sys_spec, None, data, 0.0, T, sopts)
        energy = energy_identity(sys_spec, tr, None, tolerance=math.inf)
        doc = {"kind": "free", "frames": tr.n_frames,
               "energy_residual_max": energy.summary_max}
        energy.to_csv(os.path.join(outdir, "energy.csv"))
        consts = {"D": measure_D(sys_spec)}
    else:
        from .dyson import dyson_retarded
        res = dyson_retarded(sys_spec, kern, None, data, T, sopts,
                             seed=cfg.seed)
        result_to_csv(res, os.path.join(outdir, "dyson.csv"))
        doc = {"kind": "dyson", "dyson": result_to_json(res)}
        consts = _result_constants(res)
        if res.verdict == "Diverged":
            failures.append("custom run diverged")
    return doc, consts, failures


_RUNNERS = {
    "counterexample": _run_counterexample,
    "maxwell": _run_maxwell,
    "dirac": _run_dirac,
    "extended_check": _run_extended,
    "custom": _run_custom,
}


def _execute(cfg: RunConfig, outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    doc, consts, failures = _RUNNERS[cfg.scenario](cfg, outdir)
    doc["failures"] = failures
    doc["pass"] = not failures
    _write_json(os.path.join(outdir, "report.json"), doc)
    _manifest(cfg, outdir, consts)
    return 0 if not failures else 2


def _thread_cap() -> int:
    raw = os.environ.get("HYPNL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"HYPNL_THREADS={raw!r} is not an integer")
    return max(1, n)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    if cfg.members is None:
        code = _execute(cfg, outdir)
        print(f"{cfg.name}: {'pass' if code == 0 else 'FAIL'}")
        return code
    workers = _thread_cap()
    codes = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futs = {pool.submit(_execute, m, os.path.join(outdir, m.name)): m
                for m in cfg.members}
        for fut in concurrent.futures.as_completed(futs):
            member = futs[fut]
            codes[member.name] = fut.result()
    _manifest(cfg, outdir, {}, extra={
        "members": {name: ("pass" if c == 0 else "fail")
                    for name, c in sorted(codes.items())},
        "workers": workers,
    })
    for name in sorted(codes):
        print(f"{name}: {'pass' if codes[name] == 0 else 'FAIL'}")
    return 0 if all(c == 0 for c in codes.values()) else 2


def cmd_check_bounds(args) -> int:
    cfg = load_config(args.config)
    if cfg.members is not None:
        raise ConfigError("check-bounds takes a single-scenario config")
    sys_spec, kern, C_known = _bounds_subject(cfg)
    D = measure_D(sys_spec)
    if C_known is not None:
        C = C_known
    elif kern is None:
        C = 0.0         # as the Dyson loop takes it without a kernel
    else:
        C = estimate_bound(kern, sys_spec,
                           t_window=(0.0, sys_spec.grid.extent),
                           seed=cfg.seed).C_est
    print(f"C_est {C:.6g}")
    print(f"D {D:.6g}")
    if kern is None:
        print("margin n/a (no kernel): the series is the local solve")
    elif math.isfinite(kern.delta):
        margin = threshold_margin(C, kern.delta)
        print(f"margin {margin:.3f} "
              + ("< 1: convergent regime" if margin < 1.0
                 else ">= 1: outside the smallness threshold — refuse"))
    else:
        print("margin n/a (kernel not short-range); retarded regime: converge")
    return 0


def cmd_shortcut(args) -> int:
    """A scenario subcommand: `hypnl run` on the schema-1 config made of its
    --seed and of the option flags that are set, under the subcommand's run
    name (its `{option}` fields filled in)."""
    opts = {key: val for key, val in vars(args).items()
            if key in _OPTION_TYPES[args.scenario] and key != "seed"
            and val is not None}
    cfg = _validate_doc({"schema": SCHEMA_VERSION, "scenario": args.scenario,
                         "seed": args.seed, "options": opts})
    return _execute(dataclasses.replace(cfg, name=args.run_name.format(**opts)),
                    args.out)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    if cfg.members is not None:
        raise ConfigError("validate takes a single-scenario config")
    sys_spec, _, _ = _bounds_subject(cfg)
    rep = validate_system(sys_spec, seed=cfg.seed)
    min_eig = min(e for _, e in rep.min_eig_samples)
    print(f"hyperbolic {rep.hyperbolic} (min sampled eigenvalue {min_eig:.6g})")
    print(f"adjoint defect {rep.adjoint_defect:.3e}")
    print("ok" if rep.ok else "FAILED")
    return 0 if rep.ok else 2


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hypnl",
        description="Nonlocal-in-time hyperbolic Cauchy problems: iterative "
                    "series solver, bound checks, and verification scenarios.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config (or batch) and write "
                                     "a report bundle")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.set_defaults(fn=cmd_run)

    cb = sub.add_parser("check-bounds", help="print C_est, D and the "
                                             "threshold margin without solving")
    cb.add_argument("--config", required=True)
    cb.set_defaults(fn=cmd_check_bounds)

    def shortcut(command, scenario, text, out, run_name=None):
        sp = sub.add_parser(command, help=text)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=out)
        sp.set_defaults(fn=cmd_shortcut, scenario=scenario,
                        run_name=run_name or command)
        return sp

    cx = shortcut("counterexample", "counterexample",
                  "run the rank-one divergence scenario", "out-counterexample")
    cx.add_argument("--delta", type=float)
    mx = shortcut("maxwell", "maxwell", "run a dispersive Maxwell scenario",
                  "out-maxwell", run_name="maxwell-{mode}")
    mx.add_argument("--mode", default="vacuum_1d",
                    help=f"one of {sorted(MAXWELL_MODES)}")
    mx.add_argument("--points", type=int)
    dr = shortcut("dirac", "dirac", "run the nonlocal Dirac scenario",
                  "out-dirac")
    dr.add_argument("--points", type=int)
    dr.add_argument("--no-refine", dest="refine", action="store_false",
                    default=None)
    ex = shortcut("extended-check", "extended_check",
                  "first-derivative extended system consistency check",
                  "out-extended")
    ex.add_argument("--n-fields", type=int, default=20)

    va = sub.add_parser("validate", help="structural checks of the configured "
                                         "system only")
    va.add_argument("--config", required=True)
    va.set_defaults(fn=cmd_validate)
    return p


def cli_run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:      # noqa: BLE001 — CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
