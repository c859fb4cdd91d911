"""The traced benchmark run (perfbench/tracer.py) wraps hypnl functions by
name; every name it lists must still exist, or `--trace 1` breaks."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                      "tracer.py")


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return mod.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for layer, attr, name in _tracer_targets():
        obj = importlib.import_module(f"hypnl.{layer}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(name)
    assert not missing, f"tracer targets gone from hypnl: {missing}"
