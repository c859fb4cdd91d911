"""In-memory span tracer for the traced benchmark run.

The tracer wraps a fixed list of public functions of the `hypnl` layers from
outside the package: each wrapper replaces the function in every `hypnl`
module namespace that imported it (and methods on their class), so `src/` is
untouched. Every call records a span (id, name, start, end, parent id) and
updates per-name totals. Self time is a span's duration minus the durations
of its direct child spans, so the self times of all spans add up exactly to
the duration of the outermost span.

Totals are kept for every call; the span list keeps only the first
`span_cap` calls per name, so hot leaves (called 10^5 times and more) are
aggregated per name instead of stored one by one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "scenarios", "dyson", "kernels", "solver", "systems",
          "grids", "diagnostics")

# (layer module, attribute path, span name). Functions not listed here are
# timed as part of the listed function that calls them.
TARGETS = (
    ("cli", "cli_run", "cli.cli_run"),
    ("cli", "cmd_run", "cli.cmd_run"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "_execute", "cli.execute"),
    ("scenarios", "counterexample_report", "scenarios.counterexample_report"),
    ("scenarios", "build_counterexample", "scenarios.build_counterexample"),
    ("scenarios", "counterexample_oracle", "scenarios.counterexample_oracle"),
    ("scenarios", "dirac_run", "scenarios.dirac_run"),
    ("scenarios", "dirac_kernel", "scenarios.dirac_kernel"),
    ("scenarios", "kernel_symmetry_defect", "scenarios.kernel_symmetry_defect"),
    ("scenarios", "surface_layer_product", "scenarios.surface_layer_product"),
    ("scenarios", "maxwell_run", "scenarios.maxwell_run"),
    ("scenarios", "maxwell_constraints_3d", "scenarios.maxwell_constraints_3d"),
    ("scenarios", "random_divfree_data", "scenarios.random_divfree_data"),
    ("dyson", "dyson_short_range", "dyson.dyson_short_range"),
    ("dyson", "dyson_retarded", "dyson.dyson_retarded"),
    ("dyson", "residual", "dyson.residual"),
    ("kernels", "TimeKernel.apply_all", "kernels.apply_all"),
    ("kernels", "TimeKernel.apply", "kernels.apply"),
    ("kernels", "TimeKernel.pair_apply", "kernels.pair_apply"),
    ("kernels", "estimate_bound", "kernels.estimate_bound"),
    ("solver", "solve_local", "solver.solve_local"),
    ("solver", "_rk4_step", "solver.rk4_step"),
    ("systems", "evolution_rhs", "systems.evolution_rhs"),
    ("systems", "apply_S", "systems.apply_S"),
    ("grids", "diff4", "grids.diff4"),
    ("grids", "frame_norms_sq", "grids.frame_norms_sq"),
    ("grids", "sample_trajectory", "grids.sample_trajectory"),
    ("diagnostics", "measure_D", "diagnostics.measure_D"),
    ("diagnostics", "energy_identity", "diagnostics.energy_identity"),
    ("diagnostics", "cone_violation", "diagnostics.cone_violation"),
)


class Tracer:
    def __init__(self, span_cap: int = 10_000):
        self.span_cap = span_cap
        self.stats: dict = {}          # name -> [calls, total_s, self_s]
        self.counters: dict = {}       # name -> number
        self.spans: list = []          # (id, name, start, end, parent id)
        self._stack: list = []         # [span id, child time] per open span
        self._next_id = 0

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            if on_call is not None:
                on_call(self, args, kwargs)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if stats[0] <= self.span_cap:
                    spans.append((span_id, name, start, end, parent))
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"span_cap": self.span_cap,
                       "fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def summary(self) -> dict:
        return {"stats": {name: {"calls": c, "total_s": tot, "self_s": slf}
                          for name, (c, tot, slf) in self.stats.items()},
                "layer_self_s": self.layer_self(),
                "counters": dict(self.counters)}


def _diff4_bytes(tracer: Tracer, args, kwargs) -> None:
    # computed, not measured: read the input once and write the output once
    grid, values = args[0], args[1]
    tracer.count("grids.diff4.computed_bytes", 2 * values.nbytes)
    tracer.count(f"grids.diff4.calls[{grid.dim},{grid.points},{grid.fiber}]", 1)


def _dyson_iterates(tracer: Tracer, result) -> None:
    tracer.count("dyson.iterates", result.n_used + 1)


HOOKS = {
    "grids.diff4": (_diff4_bytes, None),
    "dyson.dyson_short_range": (None, _dyson_iterates),
    "dyson.dyson_retarded": (None, _dyson_iterates),
}


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry in place. Call after `import hypnl`."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "hypnl"
                                     or name.startswith("hypnl."))]
    for layer, attr, name in TARGETS:
        mod = importlib.import_module(f"hypnl.{layer}")
        on_call, on_return = HOOKS.get(name, (None, None))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth),
                                           on_call, on_return))
            continue
        orig = getattr(mod, attr)
        traced = tracer.wrap(name, orig, on_call, on_return)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, traced)
