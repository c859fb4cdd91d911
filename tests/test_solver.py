"""Method-of-lines integrator: order, reversibility, determinism, and the
retarded Green operator."""

import itertools
import math

import numpy as np
import pytest

from conftest import gaussian_pulse
from hypnl.grids import (StateField, Trajectory, make_grid, norm_strip,
                         sample_trajectory, to_modes)
from hypnl.systems import (SystemError, _fiber_apply, evolution_rhs,
                           inner_weight, make_system, ode_system,
                           transport_system)
from hypnl.solver import (LocalSolver, SolveAborted, SolveOptions,
                          SolverError, _lattice_index, _source_window,
                          _transform, evolution_op, green_retarded,
                          solve_local)
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
    opts = SolveOptions(dt=0.25 * grid.spacing)
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
    # off t = 0 and backward: the same frame
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
    """Blowup is reported with the partial trajectory attached. The system
    steps the RK4 loop (its S0 is not skew-Hermitian), where the overflow
    warns, and so does the inf * 0 of the complex products after it."""
    grid = make_grid(1, 1.0, 8, 1)
    sys = ode_system(grid, np.array([[400.0]]))   # stiff exponential growth
    data = StateField(grid, 0.0, 1e300 * np.ones((grid.sites, 1), complex))
    with pytest.raises(SolveAborted) as exc, \
            pytest.warns(RuntimeWarning, match="overflow"), \
            np.errstate(invalid="ignore"):
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


def _ref_rk4_step(sys, y, t, h, src):
    mid = src(t + 0.5 * h)      # shared by the k2 and k3 stages
    k1 = evolution_rhs(sys, y, src(t))
    k2 = evolution_rhs(sys, y + 0.5 * h * k1, mid)
    k3 = evolution_rhs(sys, y + 0.5 * h * k2, mid)
    k4 = evolution_rhs(sys, y + h * k3, src(t + h))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_solve_local(sys, phi, data, t0, t1, opts):
    dt = opts.dt
    i0, i1 = _lattice_index(t0, dt), _lattice_index(t1, dt)
    src = _SourceSampler(phi, dt)

    n_steps = abs(i1 - i0)
    sgn = 1 if i1 >= i0 else -1
    h = sgn * dt
    y = data.values.copy()
    frames = [y]
    stored_idx = [i0]
    for s in range(n_steps):
        t = (i0 + sgn * s) * dt
        y = _ref_rk4_step(sys, y, t, h, src)
        if not np.all(np.isfinite(y.view(float))):
            partial = Trajectory(sys.grid, dt, min(stored_idx),
                                 np.stack(frames[::sgn]))
            raise SolveAborted(
                f"non-finite field after step {s + 1} (t={t + h:.6g})",
                partial, last_stable=stored_idx[-1])
        frames.append(y)
        stored_idx.append(i0 + sgn * (s + 1))

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
    _STATE_FREE are state-free (the recurrence with L = 0), those in _EIGEN
    are the eigenbasis recurrence (L != 0), and those in _STEPPING step."""
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
    if name == "maxwell3d":
        from hypnl.scenarios import maxwell_system_3d
        grid = make_grid(3, 2.0 * math.pi, 8, 6)
        return maxwell_system_3d(grid), SolveOptions(dt=0.2 * grid.spacing)
    if name == "A0_nonnormal_S0":
        # site-constant, non-identity A0 with a spatial term
        a0 = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.5]])
        sys = make_system(grid2, a0, [np.array([[0.5, 0.2j], [-0.2j, -0.3]])],
                          S0=np.array([[-0.5, 2.0], [0.0, 0.3j]]))
        return sys, SolveOptions(dt=0.2 * grid2.spacing)
    if name == "skew_A0":
        # the A0 and A^1 of A0_nonnormal_S0 with S0 = i (Hermitian), so that
        # L is skew-adjoint in the A0 inner product, not in the plain one
        a0 = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.5]])
        sys = make_system(grid2, a0, [np.array([[0.5, 0.2j], [-0.2j, -0.3]])],
                          S0=1j * np.array([[0.4, 0.3 - 0.2j],
                                            [0.3 + 0.2j, -0.7]]))
        return sys, SolveOptions(dt=0.2 * grid2.spacing)
    if name == "A0_round_off":
        # skew_A0 with an A0 that is Hermitian only to round-off, which
        # SystemSpec holds as its exactly Hermitian part
        sys, opts = _solver_case("skew_A0")
        a0 = sys.A0.copy()
        a0[0, 1] += 1e-13
        return make_system(grid2, a0, list(sys.Aj), S0=sys.S0), opts
    if name == "Aj_non_hermitian":
        # no S0, and an A^1 that is Hermitian only to round-off (its upper
        # triangle is off), which SystemSpec holds as its exactly Hermitian
        # part, so that np.linalg.eigh never reads the lower triangle alone;
        # test_non_hermitian_Aj_is_refused has one that is not Hermitian
        a1 = SIGMA1.copy()
        a1[0, 1] += 1e-13
        sys = make_system(grid2, np.eye(2), [a1])
        return sys, SolveOptions(dt=0.2 * grid2.spacing)
    if name == "skew_per_site":
        # no spatial term; A0 and a skew-Hermitian S0 that vary by site
        scale = 1.0 + 0.5 * rng.random(grid2.sites)
        a0 = scale[:, None, None] * np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        m = rng.normal(size=(grid2.sites, 2, 2)) + 1j * rng.normal(
            size=(grid2.sites, 2, 2))
        s0 = 0.5j * (m + np.conj(np.swapaxes(m, -1, -2)))
        return (make_system(grid2, a0, [np.zeros((2, 2))], S0=s0),
                SolveOptions(dt=0.1 / 7))
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
    if name == "Aj_per_site_A0":
        # the A0 and S0 of A0_nonnormal_S0 with an A^1 that varies by site
        from hypnl.systems import PROFILES
        a0 = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.5]])
        a1 = PROFILES["offset_sin"](grid2, 0.5, 0.25, 1.0) @ np.array(
            [[0.5, 0.2j], [-0.2j, -0.3]])
        sys = make_system(grid2, a0, [a1],
                          S0=np.array([[-0.5, 2.0], [0.0, 0.3j]]))
        return sys, SolveOptions(dt=0.2 * grid2.spacing)
    raise KeyError(name)


SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
_STATE_FREE = ("counterexample", "ode_zero_S0", "A0_matrix", "A0_per_site")
# the recurrence in the eigenbasis (a skew-Hermitian S0)
_EIGEN = ("transport", "dirac", "maxwell3d", "skew_A0", "skew_per_site",
          "A0_round_off", "Aj_non_hermitian")
# a coefficient that varies by site, or an S0 that is not skew-Hermitian
_STEPPING = ("Aj_per_site_A0", "Aj_per_site", "A0_nonnormal_S0",
             "S0_per_site")


@pytest.mark.parametrize("name", _STATE_FREE + _EIGEN + _STEPPING)
def test_the_system_alone_picks_the_path(name):
    """"sum" on the sites when L = 0; "eigen" when S0 is absent or exactly
    skew-Hermitian (A0 and every A^j are exactly Hermitian as SystemSpec
    holds them, those of A0_round_off and Aj_non_hermitian too), on the
    sites when no A^j is live and on the modes when every coefficient is
    the same at every site; otherwise the solve steps (None, None). No
    option takes part."""
    sys, opts = _solver_case(name)
    modes = ("transport", "dirac", "maxwell3d", "skew_A0", "A0_round_off",
             "Aj_non_hermitian")
    want = None if name in _STEPPING else "modes" if name in modes \
        else "sites"
    solver = LocalSolver(sys, opts)
    assert solver.basis == want
    assert solver.recurrence == ("sum" if name in _STATE_FREE else
                                 "eigen" if name in _EIGEN else None)


def test_non_hermitian_Aj_is_refused():
    """A system whose A^1 is not Hermitian (no S0 and A^1 = [[0, 1], [0, 0]],
    whose zero lower triangle np.linalg.eigh would read) is refused on its
    field, so that no path solves it."""
    grid = make_grid(1, 2.0 * math.pi, 32, 2)
    with pytest.raises(SystemError, match=r"^Aj\[0\] not Hermitian$") as exc:
        make_system(grid, np.eye(2), [np.diag([1.0], k=1)])
    assert exc.value.field == "Aj[0]"


# the recurrence reorders the sums of the RK4 loop and runs in Fourier
# space or the eigenbasis; measured below 1e-14 of the largest frame value
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


def _nth_solver(sys, opts, phi, data, sgn, solves):
    """A LocalSolver that has made `solves - 1` solves from data at 0, of
    7, 8, ... steps in alternating directions, the first against `sgn`: its
    next solve is the `solves`-th, with the step matrices of both directions
    kept (a Dyson run makes all its solves with one solver)."""
    solver = LocalSolver(sys, opts)
    for k in range(solves - 1):
        direction = -sgn if k % 2 == 0 else sgn
        solver.solve(phi, data, 0.0, direction * (7 + k) * opts.dt)
    return solver


def _count_rk4_steps(monkeypatch):
    from hypnl import solver
    calls = []
    step = solver._rk4_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "_rk4_step", counted)
    return calls


@pytest.mark.parametrize("solves", [1, 4])
@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", ["full", "partial", "inner", "single",
                                  "none"])
@pytest.mark.parametrize("name", _STATE_FREE + _EIGEN + _STEPPING)
def test_solve_local_matches_reference_loop(monkeypatch, name, kind, sgn,
                                            solves):
    """Equal to the per-step loop (see _assert_frames_match), as the first
    solve of a LocalSolver and as its fourth (see _nth_solver); a stepping
    plan makes one RK4 step call per step, every other plan makes none."""
    sys, opts = _solver_case(name)
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
    solver = _nth_solver(sys, opts, phi, data, sgn, solves)
    calls = _count_rk4_steps(monkeypatch)
    got = solver.solve(phi, data, 0.0, t1)
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


@pytest.mark.parametrize("solves", [1, 4])
@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("name", ["ode_zero_S0", "A0_matrix", "dirac",
                                  "S0_per_site", "maxwell3d", "Aj_per_site",
                                  "skew_A0"])
def test_non_finite_source_aborts_like_reference_loop(name, sgn, solves):
    """A non-finite source frame aborts every path at the step the loop
    aborts, with its message, index0 and last_stable, and its partial frames
    (see _assert_frames_match): every path reads the same lattice frames.
    The aborted solve is a LocalSolver's first or fourth (see _nth_solver)."""
    sys, opts = _solver_case(name)
    rng = np.random.default_rng(5)
    steps = 30
    phi = _source(sys, opts.dt, "full", sgn, steps, rng)
    phi.values[phi.index_of(sgn * 13 * opts.dt), 3, 0] = complex(np.inf, 0.0)
    data = StateField(sys.grid, 0.0, _random_field(rng, sys.grid))
    _assert_aborts_like_reference_loop(name, sys, opts, phi, data, sgn,
                                       steps, solves)


@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
def test_source_overflowing_the_cumulative_sum_aborts_like_reference_loop(
        sgn):
    """The state-free solve (one cumulative sum of the steps' source terms)
    on finite data and a finite source whose running sum overflows after a
    few steps, at one value: it aborts where the loop does."""
    name = "ode_zero_S0"
    sys, opts = _solver_case(name)
    rng = np.random.default_rng(5)
    steps = 30
    phi = _source(sys, opts.dt, "full", sgn, steps, rng)
    phi.values[:, 3, 0] = sgn * 1e307     # grows the value either way
    data = StateField(sys.grid, 0.0, _random_field(rng, sys.grid))
    data.values[3, 0] = 1.79e308
    _assert_aborts_like_reference_loop(name, sys, opts, phi, data, sgn,
                                       steps, 1)


def _assert_aborts_like_reference_loop(name, sys, opts, phi, data, sgn,
                                       steps, solves):
    t1 = sgn * steps * opts.dt
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SolveAborted) as ref:
            _ref_solve_local(sys, phi, data, 0.0, t1, opts)
        solver = _nth_solver(sys, opts, phi, data, sgn, solves)
        with pytest.raises(SolveAborted) as got:
            solver.solve(phi, data, 0.0, t1)
    want, have = ref.value, got.value
    assert str(have) == str(want)
    assert have.last_stable == want.last_stable
    assert (have.partial.dt, have.partial.index0) == \
        (want.partial.dt, want.partial.index0)
    _assert_frames_match(name, have.partial.values, want.partial.values)



@pytest.mark.parametrize("path", ["recurrence", "loop"])
def test_source_frame_aborts_the_step_that_reads_it(monkeypatch, path):
    """Forward, dt = 0.1 / 7, source frame 13 infinite: step 13 (from frame
    12 to frame 13) is the first to read it, on the eigenbasis recurrence on
    the sites (skew_per_site) and on the RK4 loop (S0_per_site). Sampled at
    the float position t / dt, the loop blended frame 13 in with a weight of
    about 1e-16 at the end of step 12 and aborted one step early."""
    name = "skew_per_site" if path == "recurrence" else "S0_per_site"
    sys, opts = _solver_case(name)
    assert (LocalSolver(sys, opts).recurrence is None) == (path == "loop")
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
    return _fiber_apply(sys.A0_inv, acc)


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
    """The frames of the running-sum solve, in increasing time."""
    dt = opts.dt
    i0, i1 = _lattice_index(t0, dt), _lattice_index(t1, dt)
    n_steps = abs(i1 - i0)
    sgn = 1 if i1 >= i0 else -1
    h = sgn * dt
    t = (i0 + sgn * np.arange(n_steps)) * dt
    index = [None if phi is None else _source_index(phi, dt, ts)
             for ts in (t, t + 0.5 * h, t + h)]
    return _running_sum(sys, phi, index, data.values, h, n_steps)[::sgn]


@pytest.mark.parametrize("solves", [1, 4])
@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", ["full", "partial", "inner", "single",
                                  "none"])
@pytest.mark.parametrize("name", _STATE_FREE)
def test_state_free_solve_matches_running_sum(name, kind, sgn, solves):
    """A state-free solve, the recurrence with L = 0, agrees with the old
    running sum to _RECURRENCE_RTOL of the largest frame value, as a
    LocalSolver's first solve and as its fourth (see _nth_solver); the site
    where the data and the source hold signed zeros stays exactly zero."""
    sys, opts = _solver_case(name)
    assert LocalSolver(sys, opts).basis == "sites"
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
    got = _nth_solver(sys, opts, phi, data, sgn, solves).solve(phi, data, 0.0,
                                                                t1)
    assert got.values.shape == want.shape
    assert got.index0 == (0 if sgn > 0 else -steps)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got.values - want))) <= \
        _RECURRENCE_RTOL * scale
    assert np.all(got.values[:, 1] == 0.0)
    assert _bits(got.values[got.index_of(0.0)]) == _bits(data.values)

# ---------------------------------------------------------------------------
# solves in the recurrence's basis

@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("name", _EIGEN + ("A0_nonnormal_S0", "S0_per_site"))
def test_in_basis_solve_matches_site_solve(name, sgn):
    """An eigenbasis solve on values already in its eigen coordinates
    (LocalSolver.to_eigen of the data, and of the source as a source, in
    the basis) gives the eigen coordinates of the site solve, to
    _RECURRENCE_RTOL of their largest value, and from_eigen takes them back
    to the basis values; a solve that steps, as one with an S0 that is not
    skew-Hermitian does, refuses in_basis."""
    sys, opts = _solver_case(name)
    solver = LocalSolver(sys, opts)
    rng = np.random.default_rng(13)
    steps = 30
    phi = _source(sys, opts.dt, "partial", sgn, steps, rng)
    data = StateField(sys.grid, 0.0, _random_field(rng, sys.grid))
    t1 = sgn * steps * opts.dt
    if name not in _EIGEN:
        assert solver.recurrence is None
        with pytest.raises(SolverError, match="basis"):
            solver.solve(phi, data, 0.0, t1, in_basis=True)
        return
    want = solve_local(sys, phi, data, 0.0, t1, opts)

    def to(values, source=False):
        if solver.basis == "modes":
            values = to_modes(sys.grid, values)
        return solver.to_eigen(values, source)

    got = solver.solve(Trajectory(sys.grid, phi.dt, phi.index0,
                                  to(phi.values, source=True)),
                       StateField(sys.grid, 0.0, to(data.values[None])[0]),
                       0.0, t1, in_basis=True)
    assert got.index0 == want.index0
    want_b = to(want.values)
    scale = float(np.max(np.abs(want_b)))
    assert float(np.max(np.abs(got.values - want_b))) <= \
        _RECURRENCE_RTOL * scale
    back = _transform(sys.grid, solver.basis, want.values)
    assert float(np.max(np.abs(solver.from_eigen(want_b) - back))) <= \
        _RECURRENCE_RTOL * float(np.max(np.abs(back)))


# ---------------------------------------------------------------------------
# Oracle for the recurrences: one RK4 step of d_t y = L y + A0^-1 s as the
# linear map y+ = R y + P0 s0 + P1 s1, with (R, P0, P1) held as a stack and
# each block's source term made by two batched matmuls over a zero-padded
# frame buffer (the stacked recurrence the solver once ran on an S0 that is
# not skew-Hermitian, kept here as an independent oracle).

def _rk4_mats(z, h):
    """(R, P0, P1) of one RK4 step from Z = h L. The step is exactly
    y+ = R y + Q0 s(t) + Q_half s(t + h/2) + Q1 s(t + h), with
    R = I + Z + Z^2/2 + Z^3/6 + Z^4/24, Q0 = (h/6)(I + Z + Z^2/2 + Z^3/4),
    Q_half = (h/6)(4I + 2Z + Z^2/2) and Q1 = (h/6) I; with source frames
    s0, s1 at its ends and their mean at its midpoint it adds P0 s0 + P1 s1,
    P0 = Q0 + Q_half/2 and P1 = Q1 + Q_half/2."""
    eye = np.eye(z.shape[-1])
    z2 = z @ z
    z3 = z @ z2
    c = h / 6.0
    return (eye + z + z2 / 2.0 + z3 / 6.0 + (z2 @ z2) / 24.0,
            c * (3.0 * eye + 2.0 * z + 0.75 * z2 + 0.25 * z3),
            c * (3.0 * eye + z + 0.25 * z2))


def _stacked_mats(sys, basis, h):
    """(R, P0, P1) of the system in the basis, per mode or site where L
    varies."""
    from hypnl import solver as solver_mod
    return _rk4_mats(h * solver_mod._generator(sys, basis), h)


def _forcings_oracle(sys, phi, xf, mats, h, i0, sgn, n_steps, block):
    window = _source_window(phi, i0, sgn, n_steps)
    if window is None:
        yield from itertools.repeat(None)
        return
    _, p0, p1 = mats
    carry = None
    for a in range(0, n_steps, block):
        b = min(a + block, n_steps)
        lo, hi = max(a, window[0]), min(b, window[1])
        if lo > hi:
            carry = None
            yield None
            continue
        frames = np.zeros((b - a + 1, sys.grid.sites, sys.grid.fiber),
                          dtype=complex)
        if carry is not None:
            frames[0] = carry
        first = lo if a == 0 else max(lo, a + 1)
        if first <= hi:
            rows = i0 + sgn * np.arange(first, hi + 1) - phi.index0
            frames[first - a:hi - a + 1] = _transform(
                sys.grid, xf, _fiber_apply(sys.A0_inv, phi.values[rows]))
        carry = frames[-1]
        cols = frames.transpose(1, 2, 0)
        out = np.matmul(p0, cols[..., :-1])
        out += np.matmul(p1, cols[..., 1:])
        out = out.transpose(2, 0, 1)
        for step, pos in ((window[0] - 1, window[0]), (window[1], window[1])):
            if a <= step < b:
                edge = frames[pos - a]
                out[step - a] -= _fiber_apply(p1, edge) - (h / 6.0) * edge
        yield out


def _recurrence_oracle(sys, phi, data, xf, mats, h, i0, sgn, n_steps,
                       stored, block):
    grid = sys.grid
    r = mats[0]
    y = _transform(grid, xf, data.values)
    forcings = _forcings_oracle(sys, phi, xf, mats, h, i0, sgn, n_steps,
                                block)
    n_ok = n_steps
    for s in range(n_steps):
        if s % block == 0:
            force = next(forcings)
        y = _fiber_apply(r, y)
        if force is not None:
            y += force[s % block]
        if not np.isfinite(y).all():
            n_ok = s
            break
        stored[s + 1] = y
    if xf == "modes":
        stored[1:n_ok + 1] = _transform(grid, xf, stored[1:n_ok + 1],
                                        inverse=True)
    return n_ok


# source windows (first, last solve position) against blocks of 7 steps of
# a 30-step solve: [0, 7), [7, 14), [14, 21), [21, 28), [28, 30)
_WINDOWS = {"inside-blocks": (10, 17), "block-edges": (7, 21),
            "one-frame": (12, 12), "one-frame-at-edge": (14, 14),
            "first-frame": (0, 0), "last-frame": (30, 30),
            "whole-solve": (0, 30), "beyond-the-solve": (-5, 40)}


@pytest.mark.parametrize("in_basis", [False, True],
                         ids=["transformed", "in-basis"])
@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("window", sorted(_WINDOWS))
@pytest.mark.parametrize("name", ["maxwell3d", "dirac", "skew_A0",
                                  "S0_constant", "S0_per_site"])
def test_block_product_matches_forcings_oracle(monkeypatch, name, window,
                                               sgn, in_basis):
    """A LocalSolver solve over every source window of _WINDOWS equals the
    forcings oracle, in blocks of 7 steps, to _RECURRENCE_RTOL of the
    largest frame value: the eigenbasis recurrence in blocks of 7 frames
    per mode (maxwell3d, dirac, skew_A0), and the RK4 loop of an S0 that is
    not skew-Hermitian, the same at every site (S0_constant) or per site
    (S0_per_site). In-basis, the oracle takes values already in the basis
    and an eigenbasis solve takes them in its eigen coordinates, compared
    there; a solve that steps refuses in_basis, and its basis is the
    sites."""
    from hypnl import solver as solver_mod
    if name == "S0_constant":
        grid = make_grid(1, 2.0 * math.pi, 32, 2)
        sys = ode_system(grid, np.array([[-0.5, 2.0], [0.0, 0.3j]]))
        opts = SolveOptions(dt=0.1 / 7)
    else:
        sys, opts = _solver_case(name)
    grid, f = sys.grid, sys.grid.fiber
    solver = LocalSolver(sys, opts)
    assert solver.recurrence == ("eigen" if name in _EIGEN else None)
    # the S0 cases have no live A^j
    assert solver.recurrence or not sys.live
    basis = solver.basis or "sites"
    h = sgn * opts.dt
    monkeypatch.setattr(solver_mod, "_CHUNK_VALUES", 7 * grid.sites * f)

    steps = 30
    t1 = sgn * steps * opts.dt
    lo, hi = _WINDOWS[window]
    rng = np.random.default_rng(23)
    vals = _random_field(rng, grid, hi - lo + 1)
    values = _random_field(rng, grid)
    xf = basis
    if in_basis:
        vals, values = (_transform(grid, basis, v) for v in (vals, values))
        xf = "sites"
    phi = Trajectory(grid, opts.dt, min(sgn * lo, sgn * hi), vals[::sgn])
    data = StateField(grid, 0.0, values)
    want = np.empty((steps + 1, grid.sites, f), dtype=complex)
    want[0] = values
    assert _recurrence_oracle(sys, phi, data, xf, _stacked_mats(sys, basis, h),
                              h, 0, sgn, steps, want, 7) == steps
    if in_basis and solver.recurrence is None:
        with pytest.raises(SolverError, match="basis"):
            solver.solve(phi, data, 0.0, t1, in_basis=True)
        in_basis = False
    if in_basis:
        phi = Trajectory(grid, opts.dt, phi.index0,
                         solver.to_eigen(phi.values, source=True))
        data = StateField(grid, 0.0, solver.to_eigen(values[None])[0])
        want = solver.to_eigen(want)
    got = solver.solve(phi, data, 0.0, t1, in_basis=in_basis).values[::sgn]
    assert _bits(got[0]) == _bits(data.values)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= _RECURRENCE_RTOL * scale


@pytest.mark.parametrize("in_basis", [False, True],
                         ids=["transformed", "in-basis"])
@pytest.mark.parametrize("sgn", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("window", sorted(_WINDOWS))
@pytest.mark.parametrize("name", ["maxwell3d", "dirac", "skew_A0",
                                  "skew_per_site"])
def test_eigen_recurrence_matches_stacked(monkeypatch, name, window, sgn,
                                          in_basis):
    """The recurrence in the eigenbasis equals the stacked one (the
    forcings oracle in blocks of 7 steps) and the per-step loop to
    _RECURRENCE_RTOL of the largest frame value, over every source window
    of _WINDOWS, in chunks of 5 modes (or sites) and blocks of 7 frames:
    per mode (maxwell3d, dirac, and skew_A0, whose A0 is not I) and per
    site (skew_per_site), on site values and on values already in the
    eigen coordinates (xf None: only the steps run, compared in those
    coordinates)."""
    from hypnl import solver as solver_mod, systems as systems_mod
    sys, opts = _solver_case(name)
    grid, f = sys.grid, sys.grid.fiber
    solver = LocalSolver(sys, opts)
    basis = solver.basis
    assert solver.recurrence == "eigen"
    h = sgn * opts.dt
    steps = 30
    monkeypatch.setattr(solver_mod, "_CHUNK_VALUES", 7 * grid.sites * f)
    monkeypatch.setattr(solver_mod, "_PER_MODE_FRAMES", 7)
    monkeypatch.setattr(systems_mod, "_PER_MODE_FRAMES", 7)
    monkeypatch.setattr(solver_mod, "_EIGEN_CHUNK_VALUES", 5 * 7 * f)
    lo, hi = _WINDOWS[window]
    rng = np.random.default_rng(29)
    vals = _random_field(rng, grid, hi - lo + 1)
    values = _random_field(rng, grid)
    phi = Trajectory(grid, opts.dt, min(sgn * lo, sgn * hi), vals[::sgn])
    data = StateField(grid, 0.0, values)
    got = np.empty((steps + 1, grid.sites, f), dtype=complex)
    stacked = got.copy()
    stacked[0] = values
    assert _recurrence_oracle(sys, phi, data, basis,
                              _stacked_mats(sys, basis, h), h, 0, sgn, steps,
                              stacked, 7) == steps
    # the loop's frames in stepping order
    loop = _ref_solve_local(sys, phi, data, 0.0, h * steps,
                            opts).values[::sgn]
    xf = basis
    if in_basis:
        def to(v, source=False):
            return solver.to_eigen(_transform(grid, basis, v), source)
        phi = Trajectory(grid, opts.dt, phi.index0,
                         to(phi.values, source=True))
        data = StateField(grid, 0.0, to(values[None])[0])
        stacked, loop = to(stacked), to(loop)
        xf = None
    got[0] = data.values
    eig = solver_mod._eigenbasis(sys, basis)
    assert solver_mod._eigen_recurrence(
        sys, phi, data, xf, eig, solver_mod._eigen_polys(eig[0], h), h, 0,
        sgn, steps, got) == steps
    assert _bits(got[0]) == _bits(data.values)
    for want in (stacked, loop):
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= _RECURRENCE_RTOL * scale


@pytest.mark.parametrize("name", ["skew_A0", "skew_per_site"])
def test_eigenbasis_diagonalizes_the_generator(name):
    """L = V diag(-i lam) V^-1 with real lam, the data transform is V^-1,
    the source transform V^-1 A0^-1 and its inverse A0 V, per mode or site,
    to round-off; V is unitary in the A0 inner product."""
    from hypnl import solver as solver_mod
    sys, opts = _solver_case(name)
    basis = LocalSolver(sys, opts).basis
    lam, vecs, to_u, to_w, from_w = solver_mod._eigenbasis(sys, basis)
    assert lam.dtype == float
    gen = solver_mod._generator(sys, basis)
    eye = np.eye(sys.grid.fiber)
    assert np.max(np.abs(to_u @ vecs - eye)) < 1e-13
    assert np.max(np.abs(to_w - to_u @ sys.A0_inv)) < 1e-13
    assert np.max(np.abs(to_w @ from_w - eye)) < 1e-13
    assert np.max(np.abs(np.conj(np.swapaxes(vecs, -1, -2)) @ from_w
                         - eye)) < 1e-13
    rebuilt = (vecs * (-1j * lam)[..., None, :]) @ to_u
    assert np.max(np.abs(rebuilt - gen)) < 1e-13 * np.max(np.abs(gen))


def test_step_matrices_built_once_per_direction(monkeypatch):
    """A LocalSolver builds what its eigenbasis recurrence needs at its
    first solve in each direction and keeps it: the eigenbasis once and its
    step coefficients once per direction (dirac). Its solves equal fresh
    solve_local ones bitwise."""
    from hypnl import solver as solver_mod
    calls = []
    for fn in ("_eigenbasis", "_eigen_polys"):
        def counted(*args, build=getattr(solver_mod, fn), fn=fn):
            calls.append((fn, args[-1] if fn != "_eigenbasis" else None))
            return build(*args)
        monkeypatch.setattr(solver_mod, fn, counted)
    sys, opts = _solver_case("dirac")
    solver = LocalSolver(sys, opts)
    data = StateField(sys.grid, 0.0, _random_field(
        np.random.default_rng(2), sys.grid))
    ends = (4 * opts.dt, 6 * opts.dt, -3 * opts.dt, -5 * opts.dt)
    want = [solve_local(sys, None, data, 0.0, t1, opts) for t1 in ends]
    assert {fn for fn, _ in calls} == {"_eigenbasis", "_eigen_polys"}
    del calls[:]
    for t1, tr in zip(ends, want):
        assert _bits(solver.solve(None, data, 0.0, t1).values) == \
            _bits(tr.values)
    assert calls == [("_eigenbasis", None), ("_eigen_polys", opts.dt),
                     ("_eigen_polys", -opts.dt)]


def _matrix_polys(lam, h):
    """(r, p0, p1) of _eigen_polys as they were formed before, from the RK4
    step matrices (_rk4_mats) on 1 x 1 blocks Z = -i h lam."""
    z = (-1j * lam)[..., None, None]
    z *= h
    return np.stack([m[..., 0, 0] for m in _rk4_mats(z, h)])


@pytest.mark.parametrize("shape", [(2,), (32, 2), (256, 2), (4096, 6)])
def test_eigen_polys_match_matrix_form(shape):
    """The scalar polynomials in z = -i h lam equal the 1 x 1-matrix form
    bitwise, both directions, signed zeros included, on the shapes of a
    site-constant fiber, a line of modes and the 16^3 x 6 Maxwell modes."""
    from hypnl.solver import _eigen_polys
    rng = np.random.default_rng(31)
    lam = 10.0 * rng.normal(size=shape)
    lam.flat[0], lam.flat[-1] = 0.0, -0.0
    for h in (0.01, -0.01, 0.1 / 7, -0.2 * 2.0 * math.pi / 32):
        got, want = _eigen_polys(lam, h), _matrix_polys(lam, h)
        assert got.shape == (3,) + shape
        assert _bits(got) == _bits(want)


def test_in_basis_needs_a_recurrence():
    """Only an eigenbasis recurrence solves in its eigen coordinates: a
    solve that steps (a non-skew-Hermitian S0 included) and a state-free
    one refuse in_basis."""
    for name in _STEPPING + ("ode_zero_S0",):
        sys, opts = _solver_case(name)
        data = StateField(sys.grid, 0.0, sys.grid.zeros())
        with pytest.raises(SolverError, match="basis"):
            LocalSolver(sys, opts).solve(None, data, 0.0, opts.dt,
                                         in_basis=True)
