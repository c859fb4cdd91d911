"""Config validation, subcommand exit codes, and output artifacts."""

import json
import os
import shutil

import numpy as np
import pytest

from hypnl.cli import ConfigError, cli_run, config_hash, load_config
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
