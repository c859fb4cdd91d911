"""The package's public names: every exported name resolves, and the
deleted ones stay deleted."""

import dataclasses
import inspect

import pytest

import hypnl
from hypnl import diagnostics, grids, kernels, scenarios, solver, systems


def test_every_exported_name_resolves():
    assert len(set(hypnl.__all__)) == len(hypnl.__all__)
    for name in hypnl.__all__:
        assert getattr(hypnl, name) is not None, name


@pytest.mark.parametrize("owner,name", [
    (hypnl, "make_dense"), (kernels, "make_dense"),
    (kernels.TimeKernel, "_dense_sweep"),
    (hypnl, "zero_field"), (grids, "zero_field"),
    (grids.StateField, "is_finite"),
    (diagnostics.DiagReport, "summary_mean"),
    (diagnostics.DiagReport, "to_json"),
    (hypnl, "system_to_json"), (systems, "system_to_json"),
    (systems, "_coeff_to_json"), (systems, "_matrix_to_json"),
    (grids, "ko_dissipation"), (grids, "fourth_difference"),
    (solver, "_rhs"), (scenarios, "_opts_for"),
])
def test_deleted_name_is_gone(owner, name):
    assert not hasattr(owner, name)
    if owner is hypnl:
        assert name not in hypnl.__all__


def test_solve_options_have_no_store_every():
    fields = {f.name for f in dataclasses.fields(solver.SolveOptions)}
    assert fields == {"dt", "cfl"}


@pytest.mark.parametrize("fn", [kernels.estimate_bound,
                                diagnostics.measure_D])
def test_probe_count_is_not_a_parameter(fn):
    assert "probes" not in inspect.signature(fn).parameters
