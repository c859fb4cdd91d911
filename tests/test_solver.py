"""Method-of-lines integrator: order, reversibility, determinism, and the
retarded Green operator."""

import math

import numpy as np
import pytest

from conftest import gaussian_pulse
from hypnl.grids import (StateField, Trajectory, make_grid, norm_strip,
                         sample_trajectory)
from hypnl.systems import inner_weight, ode_system, transport_system
from hypnl.solver import (SolveOptions, SolverError, evolution_op,
                          green_retarded, solve_local)
from hypnl.dyson import residual
from hypnl.diagnostics import cone_violation, support_mask


def _transport_error(points, T=math.pi):
    grid = make_grid(1, 2.0 * math.pi, points, 1)
    sys = transport_system(grid)
    opts = SolveOptions(dt=0.25 * grid.spacing)
    Ts = round(T / opts.dt) * opts.dt
    tr = solve_local(sys, None, StateField(grid, 0.0, gaussian_pulse(grid)),
                     0.0, Ts, opts)
    err = tr.values[-1] - gaussian_pulse(grid, Ts)
    return math.sqrt(np.vdot(err, err).real * grid.cell_volume)


def test_transport_fourth_order():
    errs = [_transport_error(p) for p in (64, 128, 256)]
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0)
              for i in range(2)]
    assert all(3.5 <= o <= 4.3 for o in orders)


def test_solve_options_validation():
    with pytest.raises(SolverError):
        SolveOptions(dt=0.0)
    with pytest.raises(SolverError):
        SolveOptions(dt=0.1, cfl=0.6)
    with pytest.raises(SolverError):
        SolveOptions(dt=0.1, dissipation=0.7)
    with pytest.raises(SolverError):
        SolveOptions(dt=0.1, store_every=0)


def test_cfl_guard():
    grid = make_grid(1, 1.0, 64, 1)
    sys = transport_system(grid)
    with pytest.raises(SolverError):
        solve_local(sys, None, StateField(grid, 0.0, gaussian_pulse(grid)),
                    0.0, 0.5, SolveOptions(dt=grid.spacing))


def test_data_frame_bitwise():
    grid = make_grid(1, 1.0, 64, 1)
    sys = transport_system(grid)
    data = StateField(grid, 0.0, gaussian_pulse(grid))
    opts = SolveOptions(dt=0.25 * grid.spacing)
    tr = solve_local(sys, None, data, 0.0, 32 * opts.dt, opts)
    assert np.array_equal(tr.values[0], data.values)


def test_determinism_bitwise():
    grid = make_grid(1, 1.0, 64, 1)
    sys = transport_system(grid)
    data = StateField(grid, 0.0, gaussian_pulse(grid))
    opts = SolveOptions(dt=0.25 * grid.spacing, dissipation=0.1)
    a = solve_local(sys, None, data, 0.0, 64 * opts.dt, opts)
    b = solve_local(sys, None, data, 0.0, 64 * opts.dt, opts)
    assert np.array_equal(a.values, b.values)


def test_backward_solve_inverts_forward():
    grid = make_grid(1, 2.0 * math.pi, 128, 1)
    sys = transport_system(grid)
    opts = SolveOptions(dt=0.25 * grid.spacing)
    T = 64 * opts.dt
    data = StateField(grid, 0.0, gaussian_pulse(grid))
    fwd = solve_local(sys, None, data, 0.0, T, opts)
    back = solve_local(sys, None, fwd.frame(fwd.n_frames - 1), T, 0.0, opts)
    # RK4 is not time-symmetric, so this is O(dt^4), not exact
    gap = np.max(np.abs(back.values[0] - data.values))
    assert gap <= 5e-7


def test_two_sided_lattice():
    """A backward solve returns frames in increasing time on the same
    integer lattice, with negative index0."""
    grid = make_grid(1, 1.0, 64, 1)
    sys = transport_system(grid)
    opts = SolveOptions(dt=0.25 * grid.spacing)
    data = StateField(grid, 0.0, gaussian_pulse(grid))
    tr = solve_local(sys, None, data, 0.0, -8 * opts.dt, opts)
    assert tr.index0 == -8
    assert tr.t_end == 0.0
    assert np.array_equal(tr.values[-1], data.values)


def test_store_every_decimates():
    grid = make_grid(1, 1.0, 64, 1)
    sys = transport_system(grid)
    data = StateField(grid, 0.0, gaussian_pulse(grid))
    full = solve_local(sys, None, data, 0.0, 16 * 0.25 * grid.spacing,
                       SolveOptions(dt=0.25 * grid.spacing))
    thin = solve_local(sys, None, data, 0.0, 16 * 0.25 * grid.spacing,
                       SolveOptions(dt=0.25 * grid.spacing, store_every=4))
    assert thin.n_frames == 5
    assert np.array_equal(thin.values, full.values[::4])


def test_source_integration_ode():
    """d_t psi = -psi + cos(t) from 0: exact solution via the integrating
    factor, checked to RK4 accuracy with the interpolated source."""
    grid = make_grid(1, 1.0, 8, 1)
    sys = ode_system(grid, np.array([[-1.0]]))
    dt = 0.01
    n = 201
    phi = sample_trajectory(
        grid, lambda t, c: np.full((grid.sites, 1), math.cos(t), complex),
        dt, 0, n)
    tr = solve_local(sys, phi, StateField(grid, 0.0, grid.zeros()),
                     0.0, (n - 1) * dt, SolveOptions(dt=dt))
    t = (n - 1) * dt
    exact = 0.5 * (math.cos(t) + math.sin(t) - math.exp(-t))
    # the mid-stage source values come from linear interpolation of the frame
    # samples, so the scheme is second order in the sourced case
    assert abs(tr.values[-1][0, 0] - exact) <= 5e-6


def test_evolution_op_matches_solve():
    grid = make_grid(1, 1.0, 64, 1)
    sys = transport_system(grid)
    opts = SolveOptions(dt=0.25 * grid.spacing)
    data = StateField(grid, 0.0, gaussian_pulse(grid))
    tr = solve_local(sys, None, data, 0.0, 16 * opts.dt, opts)
    u = evolution_op(sys, 0.0, 16 * opts.dt, data, opts)
    assert np.array_equal(u.values, tr.values[-1])


def test_green_retarded_solves_equation():
    """||S(G phi) - phi|| / ||phi|| small, zero data at the first source
    frame, and support inside the forward cone of the source support."""
    grid = make_grid(1, 2.0 * math.pi, 512, 1)
    sys = transport_system(grid)
    opts = SolveOptions(dt=0.25 * grid.spacing)
    x = grid.coords()[:, :1]
    c = grid.extent / 2.0
    prof = np.exp(-((x - c) / 0.25) ** 2).astype(complex)

    def fn(t, coords):
        return math.sin(3.0 * t) * math.exp(-8.0 * (t - 0.5) ** 2) * prof

    n = round(2.0 / opts.dt) + 1
    phi = sample_trajectory(grid, fn, opts.dt, 0, n)
    psi = green_retarded(sys, phi, opts)
    assert not np.any(psi.values[0])

    w = inner_weight(sys)
    rel = residual(sys, None, psi, phi) / norm_strip(phi, w)
    assert rel <= 1e-3

    cone = cone_violation(psi, support_mask(prof, rel=1e-8), sys.v_max)
    assert cone.passed


def test_green_retarded_order_floor():
    """The linearly interpolated source makes a sourced solve second order;
    the same system without a source keeps RK4's fourth order. Model
    problem: d_t psi = -psi + cos(3t), errors at dt = 0.05 and 0.025."""
    grid = make_grid(1, 1.0, 8, 1)
    sys = ode_system(grid, np.array([[-1.0]]))
    T = 2.0

    def sourced_error(dt):
        phi = sample_trajectory(
            grid, lambda t, c: np.full((grid.sites, 1), math.cos(3.0 * t),
                                       complex), dt, 0, round(T / dt) + 1)
        tr = green_retarded(sys, phi, SolveOptions(dt=dt))
        t = tr.times()
        exact = (np.cos(3.0 * t) + 3.0 * np.sin(3.0 * t) - np.exp(-t)) / 10.0
        return float(np.max(np.abs(tr.values[:, 0, 0] - exact)))

    def free_error(dt):
        data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
        tr = solve_local(sys, None, data, 0.0, T, SolveOptions(dt=dt))
        return float(np.max(np.abs(tr.values[:, 0, 0] - np.exp(-tr.times()))))

    sourced = math.log2(sourced_error(0.05) / sourced_error(0.025))
    free = math.log2(free_error(0.05) / free_error(0.025))
    assert 1.8 <= sourced <= 2.3
    assert free >= 3.5


def test_nan_abort():
    """Blowup is reported with the partial trajectory attached."""
    from hypnl.solver import SolveAborted
    grid = make_grid(1, 1.0, 8, 1)
    sys = ode_system(grid, np.array([[400.0]]))   # stiff exponential growth
    data = StateField(grid, 0.0, 1e300 * np.ones((grid.sites, 1), complex))
    with pytest.raises(SolveAborted) as exc:
        solve_local(sys, None, data, 0.0, 10.0, SolveOptions(dt=0.1))
    assert isinstance(exc.value.partial, Trajectory)
