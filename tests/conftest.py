"""Shared fixtures. The scenario bundles are expensive (minutes each), so
they are computed once per session and shared between the unit tests and the
acceptance gate."""

import dataclasses
import math

import numpy as np
import pytest

from hypnl.grids import StateField, Trajectory, make_grid
from hypnl.systems import transport_system
from hypnl.solver import SolveOptions, solve_local
from hypnl.scenarios import (CounterexampleConfig, DiracConfig, MaxwellConfig,
                             counterexample_report, dirac_run,
                             extended_system_check, maxwell_run)


def per_site(grid, m):
    """A fiber operator in `_fiber_apply` form (None for the identity, one
    (f, f) matrix or a per-site stack) as the per-site (sites, f, f) stack
    the reference formulas take, complex like the stored coefficients."""
    m = np.eye(grid.fiber) if m is None else m
    return np.broadcast_to(np.asarray(m, dtype=complex),
                           (grid.sites, grid.fiber, grid.fiber)).copy()


def fold_output_op(k, P):
    """The kernel P B: k followed by the fiber operator P (one (f, f) matrix
    or a per-site stack) on every output, folded into its data. Separable
    kernels get P g for each g (per-site products, the same spans: P g is
    zero where g is), convolution kernels (profile, P mat) for each distinct
    M, P alone where M is the identity; shared M stay shared."""
    if k.kind == "separable":
        Ps = per_site(k.grid, P)
        g = [Trajectory(p.grid, p.dt, p.index0,
                        np.einsum("sfg,tsg->tsf", Ps, p.values))
             for p in k.data["g"]]
        return dataclasses.replace(k, data={**k.data, "g": g})
    P = np.asarray(P, dtype=complex)
    folded = {}
    for M in (term.M for term in k.data["terms"]):
        prof, mat = (None, None) if M is None else M
        folded[id(M)] = (prof, P if mat is None else np.matmul(P, mat))
    return dataclasses.replace(k, data={"terms": [
        term._replace(M=folded[id(term.M)]) for term in k.data["terms"]]})


def gaussian_pulse(grid, t=0.0, speed=1.0, width_frac=16.0):
    """Periodically transported Gaussian, the transport-system exact solution."""
    x = grid.coords()[:, 0]
    c = grid.extent / 2.0
    u = np.remainder(x - speed * t - c + grid.extent / 2.0,
                     grid.extent) - grid.extent / 2.0
    return np.exp(-(u / (grid.extent / width_frac)) ** 2)[:, None].astype(complex)


@pytest.fixture(scope="session")
def transport_setup():
    grid = make_grid(1, 2.0 * math.pi, 512, 1)
    sys = transport_system(grid)
    opts = SolveOptions(dt=0.25 * grid.spacing)
    return grid, sys, opts


@pytest.fixture(scope="session")
def transport_run(transport_setup):
    grid, sys, opts = transport_setup
    data = StateField(grid, 0.0, gaussian_pulse(grid))
    T = round(math.pi / opts.dt) * opts.dt
    tr = solve_local(sys, None, data, 0.0, T, opts)
    return sys, tr, T


@pytest.fixture(scope="session")
def counterexample_rep():
    return counterexample_report(CounterexampleConfig())


@pytest.fixture(scope="session")
def dirac_rep():
    return dirac_run(DiracConfig())


@pytest.fixture(scope="session")
def maxwell_vacuum_rep():
    return maxwell_run(MaxwellConfig(mode="vacuum_1d"))


@pytest.fixture(scope="session")
def maxwell_constraints_rep():
    return maxwell_run(MaxwellConfig(mode="constraints_3d", points=16,
                                     n_max=16, seed=3))


@pytest.fixture(scope="session")
def maxwell_volterra_rep():
    return maxwell_run(MaxwellConfig(mode="volterra", points=8, extent=1.0))


@pytest.fixture(scope="session")
def extended_rep():
    return extended_system_check(n_fields=20, seed=0)
