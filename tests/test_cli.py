"""Config validation, subcommand exit codes, and output artifacts."""

import copy
import dataclasses
import json
import os
import platform
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypnl.cli import (ConfigError, _custom_system, _validate_doc, cli_run,
                       config_hash, load_config)
from hypnl.systems import SystemSpec, system_from_json

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
    *(pytest.param("transport.json", lambda o, k=key, v=val: o.update({k: v}),
                   rf"options\.{key}' {what}", id=f"{key}={val}")
      for key, val, what in (
          ("dt", 0.0, "must be positive"),
          ("dt", -0.01, "must be positive"),
          ("cfl", 0, r"must lie in \(0, 0\.5\]"),
          ("cfl", 0.6, r"must lie in \(0, 0\.5\]"),
          ("dissipation", -0.1, r"must lie in \[0, 0\.5\]"),
          ("dissipation", 0.7, r"must lie in \[0, 0\.5\]"),
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
])
def test_invalid_scenario_option_exits_1_with_field_path(tmp_path, capsys,
                                                         doc, path, what):
    """Scenario options are checked against the types of the config
    dataclass fields (or the scenario function's parameters) and the shared
    range table; each of these used to pass validation or fail later
    without a field path."""
    assert cli_run(["validate", "--config", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: '{path}' {what}")


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


def test_manifest_records_environment(tmp_path, monkeypatch):
    """The manifest's env block names the interpreter, numpy, the platform
    and the thread settings; the CSVs and report.json do not change with
    them."""
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
                       "platform": platform.platform(),
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


def _small_system(spec) -> bool:
    g = spec["grid"]
    return g["points"] ** g["dim"] * g["fiber"] ** 2 <= 1 << 14


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
    added): _validate_doc and the custom-system loader either accept or
    raise a ConfigError naming a field path of the document, never a
    KeyError, TypeError or other exception."""
    try:
        cfg = _validate_doc(doc)
    except ConfigError as exc:
        assert _names_a_field(doc, str(exc)), str(exc)
        return
    members = cfg.members if cfg.members is not None else [cfg]
    for member in members:
        if member.scenario != "custom":
            continue
        spec = member.options["system"]
        if not _small_system(spec):
            continue
        try:
            assert isinstance(_custom_system(member), SystemSpec)
        except ConfigError as exc:
            assert _names_a_field(doc, str(exc)), str(exc)
