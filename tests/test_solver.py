"""Method-of-lines integrator: order, reversibility, determinism, and the
retarded Green operator."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import gaussian_pulse
from hypnl.grids import (StateField, Trajectory, ko_dissipation, make_grid,
                         norm_strip, sample_trajectory, to_modes)
from hypnl.systems import (_fiber_apply, evolution_rhs, inner_weight,
                           make_system, ode_system, transport_system)
from hypnl.solver import (LocalSolver, SolveAborted, SolveOptions,
                          SolverError, _lattice_index, evolution_op,
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
    # off t = 0 and backward: stored on a coarser lattice, the same frame
    for i0, i1 in ((6, 16), (6, -4), (-9, 3)):
        start = StateField(grid, i0 * opts.dt, data.values)
        tr = solve_local(sys, None, start, i0 * opts.dt, i1 * opts.dt, opts)
        u = evolution_op(sys, i0 * opts.dt, i1 * opts.dt, start, opts)
        assert u.time == i1 * opts.dt
        assert _bits(u.values) == _bits(tr.values[tr.index_of(u.time)])


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
    grid = make_grid(1, 1.0, 8, 1)
    sys = ode_system(grid, np.array([[400.0]]))   # stiff exponential growth
    data = StateField(grid, 0.0, 1e300 * np.ones((grid.sites, 1), complex))
    with pytest.raises(SolveAborted) as exc, \
            pytest.warns(RuntimeWarning, match="overflow"):
        solve_local(sys, None, data, 0.0, 10.0, SolveOptions(dt=0.1))
    assert isinstance(exc.value.partial, Trajectory)


# ---------------------------------------------------------------------------
# Reference: the per-step source sampler and RK4 loop that solve_local
# replaced, with the sampler reading lattice frames as the solver does.
# solve_local must reproduce them bitwise on the stepping path, and to
# _RECURRENCE_RTOL of the largest frame value on the linear recurrence
# (state-free plans included, as its L = 0 case).

class _SourceSampler:
    """A frame-sampled source on the half-step lattice: frame i at
    t = i dt, the mean of frames i and i + 1 at t = (i + 1/2) dt, and zero
    where a frame it reads lies outside the covered window."""

    def __init__(self, phi, dt):
        if phi is not None and abs(phi.dt - dt) > 1e-12 * dt:
            raise SolverError(f"source lattice dt={phi.dt} != solver dt={dt}")
        self.phi = phi
        self.dt = dt

    def __call__(self, t):
        phi = self.phi
        if phi is None:
            return None
        k = round(2.0 * t / self.dt) - 2 * phi.index0
        lo, hi = k // 2, (k + 1) // 2
        if lo < 0 or hi > phi.n_frames - 1:
            return None
        if lo == hi:
            return phi.values[lo]
        return 0.5 * (phi.values[lo] + phi.values[hi])


def _ref_rhs(sys, y, t, source, eps):
    out = evolution_rhs(sys, y, t, source)
    if eps > 0.0:
        out = out + ko_dissipation(sys.grid, y, eps)
    return out


def _ref_rk4_step(sys, y, t, h, src, eps):
    mid = src(t + 0.5 * h)      # shared by the k2 and k3 stages
    k1 = _ref_rhs(sys, y, t, src(t), eps)
    k2 = _ref_rhs(sys, y + 0.5 * h * k1, t + 0.5 * h, mid, eps)
    k3 = _ref_rhs(sys, y + 0.5 * h * k2, t + 0.5 * h, mid, eps)
    k4 = _ref_rhs(sys, y + h * k3, t + h, src(t + h), eps)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_solve_local(sys, phi, data, t0, t1, opts):
    dt = opts.dt
    i0, i1 = _lattice_index(t0, dt), _lattice_index(t1, dt)
    src = _SourceSampler(phi, dt)
    eps = opts.dissipation

    n_steps = abs(i1 - i0)
    sgn = 1 if i1 >= i0 else -1
    h = sgn * dt
    y = data.values.copy()
    frames = [y]
    stored_idx = [i0]
    for s in range(n_steps):
        t = (i0 + sgn * s) * dt
        y = _ref_rk4_step(sys, y, t, h, src, eps)
        if not np.all(np.isfinite(y.view(float))):
            vals = np.stack(frames[::sgn])
            partial = Trajectory(sys.grid, dt * opts.store_every,
                                 min(stored_idx) // opts.store_every
                                 if opts.store_every > 1 else min(stored_idx),
                                 vals)
            raise SolveAborted(
                f"non-finite field after step {s + 1} (t={t + h:.6g})",
                partial, last_stable=stored_idx[-1])
        if (s + 1) % opts.store_every == 0 or s + 1 == n_steps:
            frames.append(y)
            stored_idx.append(i0 + sgn * (s + 1))

    if opts.store_every > 1:
        keep = [k for k, idx in enumerate(stored_idx)
                if (idx - i0) % opts.store_every == 0]
        frames = [frames[k] for k in keep]
        stored_idx = [stored_idx[k] for k in keep]
        out_dt = dt * opts.store_every
        out_index0 = min(stored_idx) // opts.store_every
        order = np.argsort(stored_idx)
        vals = np.stack([frames[k] for k in order])
        return Trajectory(sys.grid, out_dt, out_index0, vals)

    if sgn < 0:
        frames = frames[::-1]
        stored_idx = stored_idx[::-1]
    return Trajectory(sys.grid, dt, stored_idx[0], np.stack(frames))


def _bits(a):
    """Raw bytes, so that -0.0 and NaN payloads count as differences too."""
    return np.ascontiguousarray(a).tobytes()


def _random_field(rng, grid, frames=None):
    shape = (grid.sites, grid.fiber) if frames is None \
        else (frames, grid.sites, grid.fiber)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _counterexample_case():
    from hypnl.scenarios import CounterexampleConfig, build_counterexample
    sys, _, f_tr, opts = build_counterexample(CounterexampleConfig(
        points=16, steps_per_delta=32, T=0.25, W=0.25))
    return sys, opts, f_tr


def _solver_case(name):
    """(system, options) of a named solver test case: the plans in
    _STATE_FREE are state-free (the recurrence with L = 0), those in
    _RECURRENCE are a linear recurrence with L != 0, and those in _STEPPING
    step."""
    grid1 = make_grid(1, 1.0, 16, 1)
    grid2 = make_grid(1, 2.0 * math.pi, 32, 2)
    rng = np.random.default_rng(7)
    if name == "counterexample":
        sys, opts, _ = _counterexample_case()
        return sys, opts
    if name == "ode_zero_S0":
        return ode_system(grid2, np.zeros((2, 2))), SolveOptions(dt=0.1 / 7)
    if name == "A0_matrix":
        a0 = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.5]])
        return (make_system(grid2, a0, [np.zeros((2, 2))]),
                SolveOptions(dt=0.1 / 7))
    if name == "A0_per_site":
        scale = 1.0 + 0.5 * rng.random(grid2.sites)
        a0 = scale[:, None, None] * np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        return (make_system(grid2, a0, [np.zeros((2, 2))]),
                SolveOptions(dt=0.1 / 7))
    if name == "transport":
        sys = transport_system(grid1)
        return sys, SolveOptions(dt=0.2 * grid1.spacing)
    if name == "dirac":
        from hypnl.scenarios import dirac_system
        sys = dirac_system(grid2, 0.7)
        return sys, SolveOptions(dt=0.2 * grid2.spacing)
    if name == "S0_t":
        sys = make_system(grid2, np.eye(2), [np.zeros((2, 2))],
                          S0_t=lambda t: np.array([[-1.0, t], [-t, 0.5j]]))
        return sys, SolveOptions(dt=0.1 / 7)
    if name == "dissipation":
        sys = ode_system(grid2, np.zeros((2, 2)))
        return sys, SolveOptions(dt=0.1 / 7, dissipation=0.2)
    if name == "maxwell3d":
        from hypnl.scenarios import maxwell_system_3d
        grid = make_grid(3, 2.0 * math.pi, 8, 6)
        return maxwell_system_3d(grid), SolveOptions(dt=0.2 * grid.spacing,
                                                     dissipation=0.1)
    if name == "A0_nonnormal_S0":
        # site-constant, non-identity A0 with a spatial term and dissipation
        a0 = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.5]])
        sys = make_system(grid2, a0, [np.array([[0.5, 0.2j], [-0.2j, -0.3]])],
                          S0=np.array([[-0.5, 2.0], [0.0, 0.3j]]))
        return sys, SolveOptions(dt=0.2 * grid2.spacing, dissipation=0.1)
    if name == "S0_per_site":
        scale = 1.0 + 0.5 * rng.random(grid2.sites)
        a0 = scale[:, None, None] * np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        s0 = rng.normal(size=(grid2.sites, 2, 2)) + 1j * rng.normal(
            size=(grid2.sites, 2, 2))
        return (make_system(grid2, a0, [np.zeros((2, 2))], S0=s0),
                SolveOptions(dt=0.1 / 7))
    if name == "Aj_per_site":
        from hypnl.systems import PROFILES
        a1 = PROFILES["offset_sin"](grid2, 0.5, 0.25, 1.0) @ SIGMA1
        sys = make_system(grid2, np.eye(2), [a1], S0=np.diag([-1.0, 0.5j]))
        return sys, SolveOptions(dt=0.2 * grid2.spacing)
    raise KeyError(name)


SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
_STATE_FREE = ("counterexample", "ode_zero_S0", "A0_matrix", "A0_per_site")
_RECURRENCE = ("transport", "dirac", "dissipation", "maxwell3d",
               "A0_nonnormal_S0", "S0_per_site")
_STEPPING = ("S0_t", "Aj_per_site")
# the recurrence reorders the sums of the RK4 loop and runs in Fourier
# space; measured at most 8.8e-15 of the largest frame value (S0_per_site)
_RECURRENCE_RTOL = 1e-13


def _assert_frames_match(name, got, want):
    """Bitwise on the stepping path, to _RECURRENCE_RTOL of the largest
    reference frame value on the recurrence (state-free plans included)."""
    if name in _STEPPING:
        assert _bits(got) == _bits(want)
        return
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= _RECURRENCE_RTOL * scale


def _source(sys, dt, kind, sgn, steps, rng):
    """A source for a solve from 0 over `steps` steps in direction `sgn`,
    with signed zeros at one site (a kernel's output has them)."""
    grid = sys.grid
    if kind == "none":
        return None
    lo, n = {"full": (-steps if sgn < 0 else 0, steps + 1),
             # covers only the middle of the window
             "partial": (-(2 * steps) // 3 if sgn < 0 else steps // 4,
                         steps // 3 + 1),
             "single": (sgn * (steps // 2), 1),
             # all but the first and the last frame of the solve
             "inner": (-(steps - 1) if sgn < 0 else 1, steps - 1)}[kind]
    vals = _random_field(rng, grid, n)
    vals[:, 1] = complex(-0.0, -0.0)
    return Trajectory(grid, dt, lo, vals)


def _count_rk4_steps(monkeypatch):
    from hypnl import solver
    calls = []
    step = solver._rk4_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "_rk4_step", counted)
    return calls


@pytest.mark.parametrize("store_every", [1, 4])
@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", ["full", "partial", "inner", "single",
                                  "none"])
@pytest.mark.parametrize("name", _STATE_FREE + _RECURRENCE + _STEPPING)
def test_solve_local_matches_reference_loop(monkeypatch, name, kind, sgn,
                                            store_every):
    """Equal to the per-step loop (see _assert_frames_match); a stepping
    plan makes one RK4 step call per step, every other plan makes none."""
    sys, opts = _solver_case(name)
    opts = SolveOptions(dt=opts.dt, cfl=opts.cfl,
                        dissipation=opts.dissipation, store_every=store_every)
    rng = np.random.default_rng(11)
    steps = 30
    phi = _source(sys, opts.dt, kind, sgn, steps, rng)
    if name == "counterexample" and kind == "full":
        phi = _counterexample_case()[2]
    values = _random_field(rng, sys.grid)
    values[1] = complex(-0.0, -0.0)   # where the source has signed zeros
    data = StateField(sys.grid, 0.0, values)
    t1 = sgn * steps * opts.dt
    want = _ref_solve_local(sys, phi, data, 0.0, t1, opts)
    calls = _count_rk4_steps(monkeypatch)
    got = solve_local(sys, phi, data, 0.0, t1, opts)
    assert (got.dt, got.index0, got.values.shape) == \
        (want.dt, want.index0, want.values.shape)
    _assert_frames_match(name, got.values, want.values)
    assert _bits(got.values[got.index_of(0.0)]) == _bits(data.values)
    assert len(calls) == (steps if name in _STEPPING else 0)


def test_counterexample_solve_matches_reference_loop():
    """The solve the counterexample runs: its normalized source over the
    whole [-W, T + W] window, both directions from zero data."""
    sys, opts, f_tr = _counterexample_case()
    data = StateField(sys.grid, 0.0, sys.grid.zeros())
    for t1 in (f_tr.t_end, f_tr.t_start):
        want = _ref_solve_local(sys, f_tr, data, 0.0, t1, opts)
        got = solve_local(sys, f_tr, data, 0.0, t1, opts)
        assert got.index0 == want.index0
        _assert_frames_match("counterexample", got.values, want.values)


def test_zero_step_solve_returns_data():
    for name in ("ode_zero_S0", "transport"):
        sys, opts = _solver_case(name)
        data = StateField(sys.grid, 0.0, _random_field(
            np.random.default_rng(3), sys.grid))
        tr = solve_local(sys, None, data, 0.0, 0.0, opts)
        assert tr.n_frames == 1 and tr.index0 == 0
        assert _bits(tr.values[0]) == _bits(data.values)


@pytest.mark.parametrize("store_every", [1, 4])
@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("name", ["ode_zero_S0", "A0_matrix", "dirac",
                                  "dissipation", "S0_per_site", "maxwell3d",
                                  "Aj_per_site"])
def test_non_finite_source_aborts_like_reference_loop(name, sgn, store_every):
    """A non-finite source frame aborts every path at the step the loop
    aborts, with its message, index0 and last_stable, and its partial frames
    (see _assert_frames_match): every path reads the same lattice frames."""
    sys, opts = _solver_case(name)
    opts = SolveOptions(dt=opts.dt, cfl=opts.cfl,
                        dissipation=opts.dissipation, store_every=store_every)
    rng = np.random.default_rng(5)
    steps = 30
    phi = _source(sys, opts.dt, "full", sgn, steps, rng)
    phi.values[phi.index_of(sgn * 13 * opts.dt), 3, 0] = complex(np.inf, 0.0)
    data = StateField(sys.grid, 0.0, _random_field(rng, sys.grid))
    t1 = sgn * steps * opts.dt
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SolveAborted) as ref:
            _ref_solve_local(sys, phi, data, 0.0, t1, opts)
        with pytest.raises(SolveAborted) as got:
            solve_local(sys, phi, data, 0.0, t1, opts)
    want, have = ref.value, got.value
    assert str(have) == str(want)
    assert have.last_stable == want.last_stable
    assert (have.partial.dt, have.partial.index0) == \
        (want.partial.dt, want.partial.index0)
    _assert_frames_match(name, have.partial.values, want.partial.values)



@pytest.mark.parametrize("path", ["recurrence", "loop"])
def test_source_frame_aborts_the_step_that_reads_it(monkeypatch, path):
    """Dissipation, forward, dt = 0.1 / 7, source frame 13 infinite: step 13
    (from frame 12 to frame 13) is the first to read it, on the recurrence
    and on the RK4 loop. Sampled at the float position t / dt, the loop
    blended frame 13 in with a weight of about 1e-16 at the end of step 12
    and aborted one step early."""
    from hypnl import solver as solver_mod
    sys, opts = _solver_case("dissipation")
    if path == "loop":
        monkeypatch.setattr(solver_mod, "_basis", lambda sys, eps: None)
    rng = np.random.default_rng(5)
    phi = _source(sys, opts.dt, "full", 1, 30, rng)
    phi.values[13, 3, 0] = complex(np.inf, 0.0)
    data = StateField(sys.grid, 0.0, _random_field(rng, sys.grid))
    calls = _count_rk4_steps(monkeypatch)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SolveAborted, match=r"after step 13 \(") as exc:
            solve_local(sys, phi, data, 0.0, 30 * opts.dt, opts)
    assert exc.value.last_stable == 12
    assert exc.value.partial.n_frames == 13
    assert len(calls) == (13 if path == "loop" else 0)


# ---------------------------------------------------------------------------
# Second oracle for state-free plans: the running sum that solved them
# before they became the recurrence's L = 0 case, kept verbatim with its
# source sampling (a blend of neighbouring frames at float positions t / dt;
# on finite sources it differs from a lattice read by round-off only).

def _source_index(phi: Trajectory, dt: float, t: np.ndarray) -> tuple:
    """Linear-in-time interpolation of a frame-sampled source at the times
    `t`, as three arrays `(inside, i, w)`: the source is zero where `inside`
    is False, the frame phi[i] where w == 0, and (1 - w) phi[i] + w phi[i + 1]
    otherwise."""
    n = phi.n_frames
    u = t / dt - phi.index0
    inside = (u >= -1e-9) & (u <= n - 1 + 1e-9)
    if n == 1:
        return inside, np.zeros(len(t), dtype=int), np.zeros(len(t))
    i = np.clip(np.floor(u), 0, n - 2)
    return inside, i.astype(int), np.clip(u - i, 0.0, 1.0)


def _stage_rows(sys, phi, index, shape: tuple) -> np.ndarray:
    """A0^{-1} (0 + source) at every indexed time, one row each in a
    (times, sites, fiber) `shape`: the RK4 stage of a state-free plan,
    whatever the state."""
    acc = np.zeros(shape, dtype=complex)
    if phi is not None:
        inside, i, w = index
        view = np.flatnonzero(inside & (w == 0.0))
        acc[view] = phi.values[i[view]]
        blend = np.flatnonzero(inside & (w != 0.0))
        wb, ib = w[blend][:, None, None], i[blend]
        acc[blend] = (1.0 - wb) * phi.values[ib] + wb * phi.values[ib + 1]
        acc += 0.0      # the 0 + source of the stage: -0.0 becomes +0.0
    return _fiber_apply(sys.plan.A0_inv, acc)


def _running_sum(sys, phi, index, y0: np.ndarray, h: float,
                 n_steps: int) -> np.ndarray:
    """Every frame of a state-free solve, in stepping order: the cumulative
    sum of y0 and the RK4 increments, which `add.accumulate` takes one step
    at a time, so it equals the stepping loop bitwise."""
    shape = (n_steps,) + y0.shape
    k1, k_mid, k4 = (_stage_rows(sys, phi, ix, shape) for ix in index)
    two_mid = 2.0 * k_mid
    k1 += two_mid
    k1 += two_mid
    k1 += k4
    frames = np.empty((n_steps + 1,) + y0.shape, dtype=complex)
    frames[0] = y0
    np.multiply(h / 6.0, k1, out=frames[1:])
    return np.cumsum(frames, axis=0, out=frames)


def _running_sum_solve(sys, phi, data, t0, t1, opts):
    """The stored frames of the running-sum solve, in increasing time."""
    dt, se = opts.dt, opts.store_every
    i0, i1 = _lattice_index(t0, dt), _lattice_index(t1, dt)
    n_steps = abs(i1 - i0)
    sgn = 1 if i1 >= i0 else -1
    h = sgn * dt
    t = (i0 + sgn * np.arange(n_steps)) * dt
    index = [None if phi is None else _source_index(phi, dt, ts)
             for ts in (t, t + 0.5 * h, t + h)]
    return _running_sum(sys, phi, index, data.values, h, n_steps)[::se][::sgn]


@pytest.mark.parametrize("store_every", [1, 4])
@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", ["full", "partial", "inner", "single",
                                  "none"])
@pytest.mark.parametrize("name", _STATE_FREE)
def test_state_free_solve_matches_running_sum(name, kind, sgn, store_every):
    """A state-free solve, the recurrence with L = 0, agrees with the old
    running sum to _RECURRENCE_RTOL of the largest frame value; the site
    where the data and the source hold signed zeros stays exactly zero."""
    sys, opts = _solver_case(name)
    assert LocalSolver(sys, opts).basis == "sites"
    opts = replace(opts, store_every=store_every)
    rng = np.random.default_rng(17)
    steps = 30
    phi = _source(sys, opts.dt, kind, sgn, steps, rng)
    if name == "counterexample" and kind == "full":
        phi = _counterexample_case()[2]
        phi = Trajectory(phi.grid, phi.dt, phi.index0, phi.values.copy())
        phi.values[:, 1] = complex(-0.0, -0.0)
    values = _random_field(rng, sys.grid)
    values[1] = complex(-0.0, -0.0)
    data = StateField(sys.grid, 0.0, values)
    t1 = sgn * steps * opts.dt
    want = _running_sum_solve(sys, phi, data, 0.0, t1, opts)
    got = solve_local(sys, phi, data, 0.0, t1, opts)
    assert got.values.shape == want.shape
    assert got.index0 == (0 if sgn > 0 else -(steps // store_every))
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got.values - want))) <= \
        _RECURRENCE_RTOL * scale
    assert np.all(got.values[:, 1] == 0.0)
    assert _bits(got.values[got.index_of(0.0)]) == _bits(data.values)

# ---------------------------------------------------------------------------
# solves in the recurrence's basis

@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("name", ["transport", "dirac", "dissipation",
                                  "maxwell3d", "A0_nonnormal_S0",
                                  "S0_per_site"])
def test_in_basis_solve_matches_site_solve(name, sgn):
    """A solve on values already in the basis (to_modes of the data and the
    source on the modes) gives the basis values of the site solve, to
    _RECURRENCE_RTOL of the largest frame value."""
    sys, opts = _solver_case(name)
    solver = LocalSolver(sys, opts)
    rng = np.random.default_rng(13)
    steps = 30
    phi = _source(sys, opts.dt, "partial", sgn, steps, rng)
    data = StateField(sys.grid, 0.0, _random_field(rng, sys.grid))
    t1 = sgn * steps * opts.dt
    want = solve_local(sys, phi, data, 0.0, t1, opts)

    def to(values):
        return to_modes(sys.grid, values) if solver.basis == "modes" \
            else values

    got = solver.solve(Trajectory(sys.grid, phi.dt, phi.index0,
                                  to(phi.values)),
                       StateField(sys.grid, 0.0, to(data.values)), 0.0, t1,
                       in_basis=True)
    assert got.index0 == want.index0
    want_b = to(want.values)
    scale = float(np.max(np.abs(want_b)))
    assert float(np.max(np.abs(got.values - want_b))) <= \
        _RECURRENCE_RTOL * scale


def test_step_matrices_built_once_per_direction(monkeypatch):
    from hypnl import solver as solver_mod
    calls = []
    build = solver_mod._step_matrices

    def counted(*args):
        calls.append(args[-1])
        return build(*args)

    monkeypatch.setattr(solver_mod, "_step_matrices", counted)
    sys, opts = _solver_case("dirac")
    solver = LocalSolver(sys, opts)
    data = StateField(sys.grid, 0.0, _random_field(np.random.default_rng(2),
                                                   sys.grid))
    ends = (4 * opts.dt, 6 * opts.dt, -3 * opts.dt, -5 * opts.dt)
    want = [solve_local(sys, None, data, 0.0, t1, opts) for t1 in ends]
    assert len(calls) == 4
    del calls[:]
    for t1, tr in zip(ends, want):
        assert _bits(solver.solve(None, data, 0.0, t1).values) == \
            _bits(tr.values)
    assert calls == [opts.dt, -opts.dt]


def test_in_basis_needs_a_recurrence():
    for name in _STEPPING:
        sys, opts = _solver_case(name)
        data = StateField(sys.grid, 0.0, sys.grid.zeros())
        with pytest.raises(SolverError, match="basis"):
            LocalSolver(sys, opts).solve(None, data, 0.0, opts.dt,
                                         in_basis=True)
