"""Shared fixtures. The scenario bundles are expensive (minutes each), so
they are computed once per session and shared between the unit tests and the
acceptance gate."""

import math

import numpy as np
import pytest

from hypnl.grids import StateField, make_grid
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
