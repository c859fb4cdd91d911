"""Config validation, subcommand exit codes, and output artifacts."""

import copy
import dataclasses
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypnl.cli import (ConfigError, _validate_doc, cli_run, config_hash,
                       load_config)
from hypnl.systems import system_from_json

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _base_doc():
    with open(os.path.join(CONFIGS, "transport.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# validation

def test_load_config_roundtrip(tmp_path):
    cfg = load_config(os.path.join(CONFIGS, "transport.json"))
    assert cfg.scenario == "custom"
    assert cfg.name == "transport-free"


def test_unknown_top_level_key(tmp_path):
    doc = _base_doc()
    doc["sceanrio"] = "custom"
    with pytest.raises(ConfigError, match="sceanrio"):
        load_config(_write(tmp_path, doc))


def test_unknown_option_key_reports_path(tmp_path):
    doc = _base_doc()
    doc["options"]["dx"] = 0.1
    with pytest.raises(ConfigError, match=r"options\.dx"):
        load_config(_write(tmp_path, doc))


def test_unknown_member_key_reports_indexed_path(tmp_path):
    member = _base_doc()
    member["options"]["bogus"] = 1
    doc = {"schema": 1, "name": "batch", "members": [member]}
    with pytest.raises(ConfigError, match=r"members\[0\]\.options\.bogus"):
        load_config(_write(tmp_path, doc))


def test_unknown_scenario(tmp_path):
    doc = _base_doc()
    doc["scenario"] = "warp"
    with pytest.raises(ConfigError, match="scenario"):
        load_config(_write(tmp_path, doc))


def test_schema_version_checked(tmp_path):
    doc = _base_doc()
    doc["schema"] = 99
    with pytest.raises(ConfigError, match="schema"):
        load_config(_write(tmp_path, doc))


def _drop(key):
    def edit(system):
        del system[key]
    return edit


def _put(key, value):
    def edit(system):
        system[key] = value
    return edit


def _put_grid(key, value):
    def edit(system):
        system["grid"][key] = value
    return edit


_OFFSET_SIN = {"profile": "offset_sin", "params": {"c0": 1.0, "c1": 0.1, "k": 1.0}}


@pytest.mark.parametrize("edit,path", [
    (_drop("grid"), r"options\.system\.grid'"),
    (_drop("A0"), r"options\.system\.A0'"),
    (_put("bogus", 1), r"options\.system\.bogus"),
    (_put("grid", [1, 6.28, 64, 1]), r"options\.system\.grid'"),
    (_put_grid("points", 4), r"options\.system\.grid\.points"),
    (_put_grid("dim", 2), r"options\.system\.grid\.dim"),
    (_put_grid("spacing", 0.1), r"options\.system\.grid\.spacing"),
    (_put("A0", {"matrix": [[[1.0, 0.0], [0.0, 0.0]]]}),
     r"options\.system\.A0\.matrix"),
    (_put("A0", {"matrix": [[[1.0, 0.0]]], "scale": 2}),
     r"options\.system\.A0\.scale"),
    (_put("Aj", []), r"options\.system\.Aj'"),
    (_put("Aj", [{"profile": "wiggle", "params": {}}]),
     r"options\.system\.Aj\[0\]\.profile"),
    (_put("Aj", [{"profile": "offset_sin", "params": {"c0": 1.0}}]),
     r"options\.system\.Aj\[0\]\.params\.c1"),
    (_put("S0", {}), r"options\.system\.S0'"),
    (_put("beta", {"profile": "offset_sin"}), r"options\.system\.beta\.params"),
    (_put("beta", {"constant": "one"}), r"options\.system\.beta\.constant"),
    (_put("name", 7), r"options\.system\.name"),
])
def test_invalid_system_reports_field_path(tmp_path, edit, path):
    doc = _base_doc()
    edit(doc["options"]["system"])
    with pytest.raises(ConfigError, match=path):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("base,edit,path", [
    ("transport.json", lambda o: o.update(T=None), r"options\.T'"),
    ("transport.json", lambda o: o.update(dt=True), r"options\.dt'"),
    ("transport_dispersive.json", lambda o: o["kernel"].update(chi0="abc"),
     r"options\.kernel\.chi0'"),
    # its memory acts on the first fiber // 2 components: none at fiber 1
    ("transport.json", lambda o: o.update(kernel={"kind": "drude_lorentz"}),
     r"options\.kernel\.kind' drude_lorentz needs "
     r"options\.system\.grid\.fiber >= 2"),
    *(pytest.param("transport.json", lambda o, k=key, v=val: o.update({k: v}),
                   rf"options\.{key}' {what}", id=f"{key}={val}")
      for key, val, what in (
          ("dt", 0.0, "must be positive"),
          ("dt", -0.01, "must be positive"),
          ("cfl", 0, r"must lie in \(0, 0\.5\]"),
          ("cfl", 0.6, r"must lie in \(0, 0\.5\]"),
          ("T", 0, "must be positive"),
          ("T", -1.0, "must be positive"),
          ("T", 10 ** 400, "must be a number"))),
])
def test_invalid_custom_option_reports_field_path(tmp_path, base, edit, path):
    """A custom run's options are numbers in the solver's ranges; a null or a
    string used to pass validation and fail inside float() when the run was
    assembled, and "cfl": 0 used to fail there as "dt must be positive"."""
    with open(os.path.join(CONFIGS, base)) as fh:
        doc = json.load(fh)
    edit(doc["options"])
    with pytest.raises(ConfigError, match=path):
        load_config(_write(tmp_path, doc))


def _scenario_doc(scenario, **options):
    return {"schema": 1, "scenario": scenario, "options": options}


def _batch_doc(**options):
    return {"schema": 1, "members": [_scenario_doc("counterexample"),
                                     _scenario_doc("dirac", **options)]}


@pytest.mark.parametrize("doc,path,what", [
    (_scenario_doc("dirac", points=None), "options.points",
     "must be an integer"),
    (_scenario_doc("dirac", points=True), "options.points",
     "must be an integer"),
    (_scenario_doc("dirac", points=64.0), "options.points",
     "must be an integer"),
    (_scenario_doc("dirac", refine=3), "options.refine",
     "must be true or false"),
    (_scenario_doc("dirac", mass="heavy"), "options.mass", "must be a number"),
    (_scenario_doc("maxwell", mode="bogus"), "options.mode",
     "must be one of"),
    (_scenario_doc("maxwell", mode=None), "options.mode", "must be a string"),
    (_scenario_doc("maxwell", T="long"), "options.T",
     "must be a number or null"),
    (_scenario_doc("counterexample", delta=-1), "options.delta",
     "must be positive"),
    (_scenario_doc("counterexample", seed=None), "options.seed",
     "must be an integer"),
    (_scenario_doc("extended_check", points=4), "options.points",
     "must be at least 8"),
    (_scenario_doc("extended_check", n_fields=2.5), "options.n_fields",
     "must be an integer"),
    (_batch_doc(delta=0), "members[1].options.delta", "must be positive"),
    (_scenario_doc("dirac", n_pot=0), "options.n_pot", "must be at least 1"),
])
def test_invalid_scenario_option_exits_1_with_field_path(tmp_path, capsys,
                                                         doc, path, what):
    """Scenario options are checked against the types of the config
    dataclass fields (or the scenario function's parameters) and the shared
    range table; each of these used to pass validation or fail later
    without a field path."""
    assert cli_run(["validate", "--config", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: '{path}' {what}")


def test_dirac_run_without_potentials_is_config_error(tmp_path, capsys):
    """n_pot = 0 leaves the kernel constant C at 0; the run fails before it
    starts, with a ConfigError on options.n_pot, not mid-run on a division
    by zero."""
    doc = _scenario_doc("dirac", points=32, n_pot=0)
    assert cli_run(["run", "--config", _write(tmp_path, doc),
                    "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: 'options.n_pot' must be at least 1")


def test_scenario_options_accept_null_where_optional(tmp_path):
    cfg = load_config(_write(tmp_path, _scenario_doc(
        "maxwell", T=None, dt=None, points=8, extent=1.0, mode="volterra")))
    assert cfg.options["T"] is None


# ---------------------------------------------------------------------------
# scenario shortcuts: `hypnl run` on a generated config

@pytest.mark.parametrize("argv,scenario,name,options", [
    (["counterexample"], "counterexample", "counterexample", {}),
    (["counterexample", "--delta", "0.25"], "counterexample",
     "counterexample", {"delta": 0.25}),
    (["maxwell"], "maxwell", "maxwell-vacuum_1d", {"mode": "vacuum_1d"}),
    (["maxwell", "--mode", "volterra", "--points", "16"], "maxwell",
     "maxwell-volterra", {"mode": "volterra", "points": 16}),
    (["dirac"], "dirac", "dirac", {}),
    (["dirac", "--points", "64", "--no-refine"], "dirac", "dirac",
     {"points": 64, "refine": False}),
    (["extended-check"], "extended_check", "extended-check",
     {"n_fields": 20}),
    (["extended-check", "--n-fields", "2"], "extended_check",
     "extended-check", {"n_fields": 2}),
])
@pytest.mark.parametrize("seed", [None, 7])
def test_shortcut_runs_the_validated_config(monkeypatch, argv, scenario,
                                            name, options, seed):
    """Each shortcut hands _execute the RunConfig that _validate_doc makes
    of its schema-1 doc, under the shortcut's run name; the doc (and so the
    manifest's config_hash) holds no name."""
    from hypnl import cli
    seen = []
    monkeypatch.setattr(cli, "_execute",
                        lambda cfg, outdir: seen.append((cfg, outdir)) or 0)
    flags = [] if seed is None else ["--seed", str(seed)]
    assert cli_run(argv + flags + ["--out", "somewhere"]) == 0
    doc = {"schema": 1, "scenario": scenario,
           "seed": 0 if seed is None else seed, "options": options}
    [(cfg, outdir)] = seen
    assert cfg == dataclasses.replace(_validate_doc(doc), name=name)
    assert outdir == "somewhere"


def test_shortcut_rejects_out_of_range_flag(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli_run(["maxwell", "--points", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: 'options.points' must be at least 8")
    assert not out.exists()



def test_maxwell_shortcut_has_no_dispersive_1d_mode(tmp_path, capsys):
    """The mode was removed; the shortcut's --mode is checked by the config
    path, like every other option."""
    out = tmp_path / "o"
    assert cli_run(["maxwell", "--mode", "dispersive_1d",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: 'options.mode' must be one of")
    assert not out.exists()

def test_extended_check_shortcut_run(tmp_path):
    out = str(tmp_path / "ext")
    assert cli_run(["extended-check", "--n-fields", "2", "--out", out]) == 0
    with open(os.path.join(out, "report.json")) as fh:
        rep = json.load(fh)
    assert rep["pass"] is True and rep["n_fields"] == 2
    with open(os.path.join(out, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["name"] == "extended-check"
    assert man["config_hash"] == config_hash(_validate_doc(
        {"schema": 1, "scenario": "extended_check", "seed": 0,
         "options": {"n_fields": 2}}))
    with open(os.path.join(out, "residuals.csv")) as fh:
        assert len(fh.read().splitlines()) == 3


def test_valid_system_with_profiles_loads(tmp_path):
    doc = _base_doc()
    system = doc["options"]["system"]
    system["Aj"] = [_OFFSET_SIN]
    system["S0"] = {"matrix": [[[0.0, 0.5]]]}
    system["beta"] = _OFFSET_SIN
    cfg = load_config(_write(tmp_path, doc))
    sys_spec = system_from_json(cfg.options["system"])
    assert sys_spec.S0 is not None and not np.all(sys_spec.beta == 1.0)


def test_validate_without_grid_exits_1(tmp_path, capsys):
    doc = _base_doc()
    del doc["options"]["system"]["grid"]
    assert cli_run(["validate", "--config", _write(tmp_path, doc)]) == 1
    assert "options.system.grid" in capsys.readouterr().err


def test_config_hash_key_order_invariant(tmp_path):
    doc = _base_doc()
    a = load_config(_write(tmp_path, doc, "a.json"))
    flipped = dict(reversed(list(doc.items())))
    b = load_config(_write(tmp_path, flipped, "b.json"))
    assert config_hash(a) == config_hash(b)


# ---------------------------------------------------------------------------
# exit codes

def test_missing_config_exits_1(tmp_path):
    assert cli_run(["run", "--config", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "o")]) == 1


def test_malformed_json_exits_1(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli_run(["run", "--config", str(p),
                    "--out", str(tmp_path / "o")]) == 1


def test_validate_subcommand():
    assert cli_run(["validate", "--config",
                    os.path.join(CONFIGS, "transport.json")]) == 0


def test_run_custom_scenario(tmp_path):
    out = str(tmp_path / "out")
    rc = cli_run(["run", "--config", os.path.join(CONFIGS, "transport.json"),
                  "--out", out])
    assert rc == 0
    with open(os.path.join(out, "report.json")) as fh:
        rep = json.load(fh)
    assert rep["pass"] is True and rep["failures"] == []
    with open(os.path.join(out, "manifest.json")) as fh:
        man = json.load(fh)
    cfg = load_config(os.path.join(CONFIGS, "transport.json"))
    assert man["config_hash"] == config_hash(cfg)
    assert os.path.exists(os.path.join(out, "energy.csv"))


def _ode_doc(**options):
    """A 16-point scalar custom run with A0 = 1, A1 = 0, S0 = -1 and T = 1."""
    doc = _base_doc()
    system = doc["options"]["system"]
    system["grid"]["points"] = 16
    system["Aj"] = [{"matrix": [[[0.0, 0.0]]]}]
    system["S0"] = {"matrix": [[[-1.0, 0.0]]]}
    doc["options"].update({"T": 1.0, **options})
    return doc


def test_custom_run_with_zero_signal_speed_needs_dt(tmp_path, capsys):
    """With v_max = 0 the default dt = cfl dx / v_max has no bound: the run
    needs options.dt and fails before it starts, with a ConfigError on that
    path (it used to round T to 0 steps and fail mid-run)."""
    out = str(tmp_path / "o")
    assert cli_run(["run", "--config", _write(tmp_path, _ode_doc()),
                    "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: 'options.dt' is required"), err
    assert cli_run(["run", "--config", _write(tmp_path, _ode_doc(dt=0.0625)),
                    "--out", out]) == 0


def _negative_A0_doc(name="negative-A0"):
    doc = _base_doc()
    doc["name"] = name
    doc["options"]["system"]["A0"] = {"matrix": [[[-1.0, 0.0]]]}
    return doc


def _kernel_doc(**kernel):
    doc = _base_doc()
    doc["options"]["system"]["grid"]["fiber"] = 2
    doc["options"]["system"]["A0"] = {"matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                                 [[0.0, 0.0], [1.0, 0.0]]]}
    doc["options"]["system"]["Aj"] = copy.deepcopy(
        [doc["options"]["system"]["A0"]])
    doc["options"]["kernel"] = {"kind": "drude_lorentz", **kernel}
    return doc


@pytest.mark.parametrize("doc,message", [
    (_negative_A0_doc(), "'options.system' A0 not positive definite"),
    (_ode_doc(), "'options.dt' is required"),
    (_ode_doc(dt=0.0625, T=0.09), "'options.T' is 1 step(s)"),
    (_kernel_doc(delta=0.0), "'options.kernel.delta' must be positive"),
], ids=["A0", "v_max=0", "T=1step", "kernel.delta=0"])
def test_unbuildable_custom_config_fails_at_load(tmp_path, doc, message):
    """What only the built run can refuse is refused by load_config, with
    the field path: the custom run is built once at load."""
    with pytest.raises(ConfigError) as exc:
        load_config(_write(tmp_path, doc))
    assert str(exc.value).startswith(message), str(exc.value)


def test_unbuildable_batch_member_fails_before_any_member_runs(tmp_path,
                                                                capsys):
    """A batch whose second member cannot be built fails at load, naming
    the member's path, and writes nothing. It used to run the first member,
    write its outputs, and then exit 1 without a batch manifest."""
    doc = {"schema": 1, "name": "batch",
           "members": [_base_doc(), _negative_A0_doc()]}
    path = _write(tmp_path, doc)
    message = "'members[1].options.system' A0 not positive definite"
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == message
    out = tmp_path / "out"
    assert cli_run(["run", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_dissipation_option_is_refused_at_load(tmp_path):
    """The solver solves the paper's operator only: an artificial
    dissipation is no longer an option."""
    doc = _base_doc()
    doc["options"]["dissipation"] = 0.1
    with pytest.raises(ConfigError,
                       match=r"^unknown key 'options\.dissipation'$"):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("doc,steps", [
    (_ode_doc(dt=0.0625, T=0.01), 0),
    (_ode_doc(dt=0.0625, T=0.09), 1),
    (dict(_base_doc(), options=dict(_base_doc()["options"], T=0.005)), 1),
])
def test_custom_run_shorter_than_two_steps_is_config_error(tmp_path, capsys,
                                                           doc, steps):
    """T must be at least 2 steps of dt (3 frames): a shorter run is a
    ConfigError naming options.T and options.dt, not an error mid-run."""
    assert cli_run(["run", "--config", _write(tmp_path, doc),
                    "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: 'options.T' is {steps} step(s) "
                          "of options.dt = "), err


@pytest.mark.parametrize("points", [2 ** 62, 2 ** 40])
def test_grid_larger_than_memory_is_config_error(tmp_path, monkeypatch,
                                                 points):
    """A custom grid whose one slice (points^dim x fiber x 16 B) exceeds the
    physical memory is a ConfigError on options.system.grid.points, raised
    before any array is built (2^62 points used to exit 1 with numpy's
    'array is too big')."""
    from hypnl import cli

    def built(doc):
        raise AssertionError("the system was built")

    monkeypatch.setattr(cli, "system_from_json", built)
    doc = _base_doc()
    doc["options"]["system"]["grid"]["points"] = points
    with pytest.raises(ConfigError, match=r"^'options\.system\.grid\.points' "
                       r"makes one .* B slice, more than the .* B of "
                       r"physical memory$"):
        load_config(_write(tmp_path, doc))


def test_dyson_run_larger_than_memory_is_config_error(tmp_path,
                                                      monkeypatch):
    """A custom Dyson run whose LIVE_TRAJECTORIES (4) trajectories of
    T / dt + 1 frames exceed the physical memory is a ConfigError on
    options.T, raised at load before the kernel (or any trajectory) is
    built; a run of exactly that size is built."""
    from hypnl import cli
    with open(os.path.join(CONFIGS, "transport_dispersive.json")) as fh:
        doc = json.load(fh)

    def refused(*args, **kwargs):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(cli, "maxwell_kernel", refused)
    doc["options"]["T"] = 1e15
    with pytest.raises(ConfigError, match=r"^'options\.T' makes a Dyson run "
                       r"of \d+ frames of options\.dt = .*, .* B in 4 "
                       r"trajectories, more than the .* B of physical "
                       r"memory$"):
        load_config(_write(tmp_path, doc))
    # the config's own run: 512 steps of dt = pi / 512 on 256 x 2 values
    doc["options"]["T"] = math.pi
    size = 4 * 513 * 256 * 2 * 16
    monkeypatch.setattr(cli, "_physical_memory", lambda: size - 1)
    with pytest.raises(ConfigError, match=r"^'options\.T' makes a Dyson run "
                       r"of 513 frames"):
        load_config(_write(tmp_path, doc))
    monkeypatch.setattr(cli, "_physical_memory", lambda: size)
    with pytest.raises(AssertionError, match="the kernel was built"):
        load_config(_write(tmp_path, doc))


def test_manifest_records_environment(tmp_path, monkeypatch):
    """The manifest's env block names the interpreter, numpy, the platform
    (system-release-machine, then the C library where it names itself) and
    the thread settings; the CSVs and report.json do not change with
    them."""
    u = platform.uname()
    plat = f"{u.system}-{u.release}-{u.machine}"
    libc = os.confstr("CS_GNU_LIBC_VERSION") \
        if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}) else None
    if libc:
        plat += "-with-" + libc.replace(" ", "")
    outs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("HYPNL_THREADS", threads)
        monkeypatch.setenv("OMP_NUM_THREADS", threads)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = str(tmp_path / f"out{threads}")
        assert cli_run(["run", "--config",
                        os.path.join(CONFIGS, "transport.json"),
                        "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            env = json.load(fh)["env"]
        assert env == {"python": platform.python_version(),
                       "numpy": np.__version__,
                       "platform": plat,
                       "HYPNL_THREADS": threads, "OMP_NUM_THREADS": threads,
                       "OPENBLAS_NUM_THREADS":
                           os.environ.get("OPENBLAS_NUM_THREADS"),
                       "MKL_NUM_THREADS": None}
        outs.append(out)
    compared = sorted(f for f in os.listdir(outs[0])
                      if f.endswith(".csv") or f == "report.json")
    assert "report.json" in compared and len(compared) >= 2
    for name in compared:
        with open(os.path.join(outs[0], name), "rb") as a, \
                open(os.path.join(outs[1], name), "rb") as b:
            assert a.read() == b.read(), name
    with open(os.path.join(outs[0], "report.json")) as fh:
        assert "env" not in json.load(fh)


def test_dirac_run_imports_neither_numpy_random_nor_subprocess(tmp_path):
    """A small Dirac `hypnl run` in a fresh interpreter loads neither
    numpy.random (the symmetry check draws nothing) nor subprocess (the
    manifest's platform string spawns no probe)."""
    import hypnl
    doc = _scenario_doc("dirac", points=32, refine=False, T=0.25, n_max=2,
                        delta=0.125)
    pkg_root = os.path.dirname(os.path.dirname(hypnl.__file__))
    path = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH"))
                           if p)
    code = ("import sys\n"
            "from hypnl.cli import cli_run\n"
            "cli_run(sys.argv[1:])\n"
            "print(sorted(m for m in ('numpy.random', 'subprocess')"
            " if m in sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "--config",
         _write(tmp_path, doc), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(tmp_path / "out" / "manifest.json")
    assert proc.stdout.splitlines()[-1] == "[]"


def test_module_entry_point_runs_without_warnings():
    """`python -m hypnl.cli` executes the module once: importing the
    package does not import it first, so runpy has nothing to warn about."""
    import hypnl
    pkg_root = os.path.dirname(os.path.dirname(hypnl.__file__))
    path = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hypnl.cli",
         "validate", "--config", os.path.join(CONFIGS, "transport.json")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_failed_assertion_exits_2(tmp_path):
    """An under-resolved extended-system run misses its residual target; the
    report must record the failure and the process must exit 2."""
    doc = {"schema": 1, "scenario": "extended_check", "name": "coarse",
           "options": {"n_fields": 2, "frames": 41}}
    out = str(tmp_path / "out")
    rc = cli_run(["run", "--config", _write(tmp_path, doc), "--out", out])
    assert rc == 2
    with open(os.path.join(out, "report.json")) as fh:
        rep = json.load(fh)
    assert rep["pass"] is False and rep["failures"]


def test_check_bounds_subcommand(capsys):
    rc = cli_run(["check-bounds", "--config",
                  os.path.join(CONFIGS, "counterexample.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "C_est" in out and "margin" in out
    assert "refuse" in out        # delta = 0.5 is far outside the threshold


@pytest.mark.parametrize("name", ["transport.json", "maxwell_vacuum.json",
                                  "vacuum_3d"])
def test_check_bounds_without_a_kernel(capsys, tmp_path, name):
    """A run that solves without a kernel has C = 0, as the Dyson loop takes
    it, and no margin to check."""
    path = os.path.join(CONFIGS, name) if name.endswith(".json") else _write(
        tmp_path, {"schema": 1, "scenario": "maxwell", "name": name,
                   "options": {"mode": name, "points": 8}})
    rc = cli_run(["check-bounds", "--config", path])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "C_est 0"
    assert out[2].startswith("margin n/a (no kernel)")


# ---------------------------------------------------------------------------
# fuzzing: every rejection is a ConfigError that names a field path

def _fuzz_bases():
    docs = []
    for name in ("transport.json", "transport_dispersive.json",
                 "suite_small.json", "dirac.json"):
        with open(os.path.join(CONFIGS, name)) as fh:
            docs.append(json.load(fh))
    two = _base_doc()
    two["options"]["system"] = {
        "grid": {"dim": 1, "extent": 2.0, "points": 8, "fiber": 2},
        "A0": {"matrix": [[[2.0, 0.0], [0.0, 0.5]], [[0.0, -0.5], [1.0, 0.0]]]},
        "Aj": [copy.deepcopy(_OFFSET_SIN)],
        "S0": {"matrix": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]},
        "beta": copy.deepcopy(_OFFSET_SIN), "name": "two"}
    docs.append(two)
    return docs


_FUZZ_BASES = _fuzz_bases()
_KEYS = st.from_regex(r"[a-z_A-Z0-9]{1,8}", fullmatch=True)
_NUMBERS = (st.sampled_from([0, -1, 2 ** 63, 1e-308, 1e308, -1e308,
                             float("nan"), float("inf")])
            | st.integers(-3, 300) | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True))
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(_KEYS, kids, max_size=3)),
    max_leaves=8)


def _nodes(doc, path=()):
    """Every (container path, key) in doc, depth first."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield path, key
        yield from _nodes(val, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        path, key = draw(st.sampled_from(nodes))
        parent = _at(doc, path)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[key] = draw(_JSON)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(_KEYS)] = draw(_JSON)
        else:
            parent.append(draw(_JSON))
    if draw(st.booleans()):     # now and then the whole document is replaced
        doc = draw(_JSON) if draw(st.integers(0, 9)) == 0 else doc
    return doc


_PATH_PART = re.compile(r"([^.\[\]]+)((?:\[\d+\])*)")


def _names_a_field(doc, message: str) -> bool:
    """The first quoted string of the message is a field path into doc: it
    follows doc's dicts and lists until it names a key that is absent
    (a missing required field, possibly with its parents)."""
    m = re.search(r"'([^']*)'", message)
    if m is None:
        return False
    path = m.group(1).rstrip(".")
    if path in ("", "."):
        return True
    steps = []
    for part in path.split("."):
        pm = _PATH_PART.fullmatch(part)
        if pm is None:
            return False
        steps.append(pm.group(1))
        steps += [int(i) for i in re.findall(r"\d+", pm.group(2))]
    node = doc
    for step in steps:
        ok = (isinstance(node, dict) and step in node) or (
            isinstance(node, list) and isinstance(step, int)
            and step < len(node))
        if not ok:
            return isinstance(node, dict) and isinstance(step, str)
        node = node[step]
    return True


def _edited(base, edit):
    doc = copy.deepcopy(_FUZZ_BASES[base])
    edit(doc)
    return doc


def _system_params(doc, **params):
    doc["options"]["system"]["Aj"][0]["params"].update(params)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_docs())
# findings of earlier fuzzing: a non-integer seed (TypeError), a list as
# profile name (unhashable), a NaN profile parameter and an overflowing
# profile (LinAlgError while the system was built)
@example(_edited(3, lambda d: d.update(seed=None)))
@example(_edited(4, lambda d: d["options"]["system"]["beta"].update(
    profile=[])))
@example(_edited(4, lambda d: _system_params(d, k=float("nan"))))
@example(_edited(4, lambda d: _system_params(d, c0=1e308, c1=1e308)))
def test_fuzzed_config_rejected_with_field_path(doc):
    """Mutated configs (values replaced by arbitrary JSON, keys deleted or
    added): _validate_doc, which also builds every custom run, either
    accepts or raises a ConfigError naming a field path of the document,
    never a KeyError, TypeError or other exception."""
    try:
        _validate_doc(doc)
    except ConfigError as exc:
        assert _names_a_field(doc, str(exc)), str(exc)
