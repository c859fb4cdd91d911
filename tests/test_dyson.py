"""Iterative series solver: majorant arithmetic, convergence against an
independent stiff ODE oracle, and the result bookkeeping."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import fold_output_op, gaussian_pulse, per_site
from hypnl import dyson
from hypnl.grids import (StateField, Trajectory, diff4, make_grid,
                         norm_strip, sample_trajectory, to_modes,
                         trapezoid_sum)
from hypnl.systems import (apply_S, inner_weight, make_system, ode_system,
                           transport_system)
from hypnl.solver import LocalSolver, SolveAborted, SolveOptions
from hypnl.kernels import (ConvTerm, TimeKernel, make_convolution,
                           make_modulated, make_separable)
from hypnl.dyson import (DysonError, bound_retarded, bound_short,
                         bound_short_log, dyson_retarded, dyson_short_range,
                         equation_defect, residual, result_to_csv,
                         result_to_json)
from hypnl.scenarios import (CounterexampleConfig, build_counterexample,
                             drude_lorentz, maxwell_kernel, maxwell_system_1d,
                             maxwell_system_3d, random_divfree_data)


# ---------------------------------------------------------------------------
# majorant arithmetic

def test_bound_retarded_sums_to_cosh():
    for K, t, M in [(1.0, 1.0, 1.0), (3.7, 2.0, 0.5), (0.2, 4.0, 2.0)]:
        total = sum(bound_retarded(n, K, t, M) for n in range(21))
        assert total == pytest.approx(M * math.cosh(math.sqrt(K) * t),
                                      rel=1e-12)


@pytest.mark.parametrize("C,delta", [(1.0, 0.1), (0.5, 0.3), (7.0, 0.02)])
def test_bound_short_ratio_limit(C, delta):
    """Successive bound ratios approach 8 e delta^2 C; within 1% at n=200."""
    n = 200
    t = 1.0
    lr = (bound_short_log(n + 1, C, delta, 0.0, t, 1.0)
          - bound_short_log(n, C, delta, 0.0, t, 1.0))
    assert math.exp(lr) == pytest.approx(8.0 * math.e * delta ** 2 * C,
                                         rel=0.01)


def test_bound_short_log_consistent():
    for n in (0, 1, 5, 40):
        b = bound_short(n, 2.0, 0.25, 1.0, 1.5, 0.7)
        lb = bound_short_log(n, 2.0, 0.25, 1.0, 1.5, 0.7)
        assert math.log(b) == pytest.approx(lb, rel=1e-12)


def test_bound_argument_validation():
    with pytest.raises(DysonError):
        bound_retarded(-1, 1.0, 1.0, 1.0)
    with pytest.raises(DysonError):
        bound_short(1, 1.0, 0.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# retarded iteration

def _memory_setup(delta_eff=math.inf):
    """Scalar ODE with an exponential memory: d_t psi = -psi/2 + int_0^t
    e^{-(t-tau)} psi dtau + phi."""
    grid = make_grid(1, 1.0, 8, 1)
    sys = ode_system(grid, np.array([[-0.5]]))
    k = make_convolution(lambda u: math.exp(-u), None, grid, t0=0.0,
                         delta_eff=delta_eff)
    return grid, sys, k


def test_retarded_iteration_dominated_by_majorant():
    grid, sys, k = _memory_setup()
    opts = SolveOptions(dt=1.0 / 256.0)
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    res = dyson_retarded(sys, k, None, data, 2.0, opts, tol=1e-8,
                         tol_residual=1e-3, n_max=30)
    assert res.verdict == "Converged"
    assert res.residual_history[-1] <= 1e-3
    for n, (nrm, bnd) in enumerate(zip(res.iterate_sup_norms,
                                       res.bound_values)):
        assert nrm <= 1.1 * bnd, f"iterate {n}: {nrm} > 1.1 * {bnd}"


def test_retarded_iteration_matches_stiff_oracle():
    """Augment the memory integral as an auxiliary ODE variable and integrate
    the coupled system with an unrelated high-order adaptive scheme."""
    grid, sys, k = _memory_setup()
    opts = SolveOptions(dt=1.0 / 256.0)
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    T = 2.0
    res = dyson_retarded(sys, k, None, data, T, opts, tol=1e-10,
                         tol_residual=1e-3, n_max=40)

    def rhs(t, y):
        psi, m = y
        return [-0.5 * psi + m, psi - m]

    sol = solve_ivp(rhs, (0.0, T), [1.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    times = res.partial_sum.times()
    mine = res.partial_sum.values[:, 0, 0].real
    ref = sol.sol(times)[0]
    assert np.max(np.abs(mine - ref)) <= 1e-6


def test_short_range_window_validation():
    grid, sys, _ = _memory_setup()
    k = make_convolution(lambda u: 1.0, None, grid, t0=0.0, delta_eff=0.5)
    # the convolution kernel is retarded-only; short-range entry still demands
    # a window at least delta wide
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    with pytest.raises(DysonError):
        dyson_short_range(sys, k, None, data, 1.0,
                          SolveOptions(dt=1.0 / 64.0), W=0.1)


def _early_case(kind, switch_on, scale):
    """(k, run) for a retarded kernel of bound constant C = scale
    switched on at `switch_on`: the exponential memory (convolution), or a
    rank-one separable kernel with unit-norm profiles h on [-0.5, 0.25] and
    g / scale on [0.25, 1]."""
    grid, sys, _ = _memory_setup()
    dt = 1.0 / 64.0
    if kind == "convolution":
        k = make_convolution(lambda u: scale * math.exp(-u), None, grid,
                             t0=switch_on)
    else:
        t = (np.arange(97) - 32) * dt
        ones = np.ones((97, grid.sites, 1), complex)
        g = Trajectory(grid, dt, -32, scale * (t >= 0.25)[:, None, None] * ones)
        h = Trajectory(grid, dt, -32, (t <= 0.25)[:, None, None] * ones)
        flags = {} if math.isinf(switch_on) else {"switch_on": switch_on}
        k = make_separable([g], [h], retarded=True, **flags)
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    # g's jump at 0.25 puts the centered residual's floor at about 1e-2
    return k, lambda **kw: dyson_retarded(
        sys, k, None, data, 1.0, SolveOptions(dt=dt), n_max=20,
        tol_residual=0.1, constants={"D": 0.0}, **kw)


@pytest.mark.parametrize("kind", ["convolution", "separable"])
@pytest.mark.parametrize("allow", [False, True])
def test_switch_on_at_minus_infinity_is_refused(monkeypatch, kind, allow):
    """The constructors' default switch-on -inf is refused by name, with or
    without the flag, before any constant is measured: a probe window
    (-inf, T) cannot be sampled, and a separable margin would read NaN,
    which `margin >= 1` does not catch."""
    k, run = _early_case(kind, -math.inf, 1.0)
    assert k.switch_on == -math.inf

    def unmeasured(*args, **kwargs):
        raise AssertionError("a constant was measured")

    monkeypatch.setattr(dyson, "_measure_constants", unmeasured)
    with pytest.raises(DysonError, match="switch_on = -inf"):
        run(allow_early_switch_on=allow)


@pytest.mark.parametrize("kind", ["convolution", "separable"])
def test_early_switch_on_needs_the_flag_and_margin(kind):
    """Switched on at t0 = -0.5 with D = 0 the margin is t0^2 C: C = 1 gives
    0.25 and runs with the flag only; C = 8 gives 2 and is refused with it."""
    _, run = _early_case(kind, -0.5, 1.0)
    with pytest.raises(DysonError, match="explicit flag"):
        run()
    res = run(allow_early_switch_on=True)
    assert res.verdict == "Converged"
    assert res.config["C_est"] == pytest.approx(1.0, rel=1e-12)
    _, run = _early_case(kind, -0.5, 8.0)
    with pytest.raises(DysonError, match="margin") as err:
        run(allow_early_switch_on=True)
    assert "= 2 < 1" in str(err.value)


# ---------------------------------------------------------------------------
# residual

def test_residual_second_order_on_exact_solution():
    grid = make_grid(1, 2.0 * math.pi, 256, 1)
    sys = transport_system(grid)
    w = inner_weight(sys)

    def exact(dt):
        n = round(1.0 / dt) + 1
        return sample_trajectory(
            grid, lambda t, c: gaussian_pulse(grid, t), dt, 0, n)

    r1 = residual(sys, None, exact(0.02), None)
    r2 = residual(sys, None, exact(0.01), None)
    # the centered time difference floors the residual at O(dt^2)
    order = math.log(r1 / r2) / math.log(2.0)
    assert 1.8 <= order <= 2.3
    del w


def test_residual_detects_wrong_solution():
    grid = make_grid(1, 2.0 * math.pi, 128, 1)
    sys = transport_system(grid)
    n = 65
    wrong = sample_trajectory(
        grid, lambda t, c: gaussian_pulse(grid, -t), 0.01, 0, n)
    right = sample_trajectory(
        grid, lambda t, c: gaussian_pulse(grid, t), 0.01, 0, n)
    assert residual(sys, None, wrong, None) > 100.0 * residual(
        sys, None, right, None)


@pytest.mark.parametrize("chunk_frames", [1, 3, 100])
def test_equation_defect_chunks_match_per_frame(monkeypatch, chunk_frames):
    """Stacked apply_S over frame chunks against the per-frame loop, with a
    time-dependent S0, a memory kernel, a shifted source and a strip."""
    grid = make_grid(1, 2.0, 16, 2)
    rng = np.random.default_rng(np.random.Philox(11))
    sig1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sys = make_system(grid, np.diag([2.0, 1.0]), [sig1],
                      S0_t=lambda t: np.array([[t, 1j], [-1j, -t]]))
    k = make_convolution(lambda u: math.exp(-u), None, grid, t0=0.0)

    def traj(index0, n):
        v = rng.standard_normal((n, grid.sites, 2)) \
            + 1j * rng.standard_normal((n, grid.sites, 2))
        return Trajectory(grid, 0.125, index0, v)

    psi, phi = traj(-2, 14), traj(1, 6)
    monkeypatch.setattr(dyson, "_CHUNK_VALUES", chunk_frames * 32)
    b_all = k.apply_all(psi)
    got = equation_defect(sys, b_all, psi, phi, strip=(0.0, 1.0))

    ref = []
    for i in range(2, 11):                        # frames at t = 0 .. 1
        dpsi = (psi.values[i + 1] - psi.values[i - 1]) / (2.0 * psi.dt)
        src = phi.values[i - 3] if 3 <= i < 9 else 0.0
        ref.append(apply_S(sys, psi.values[i], dpsi, psi.time(i))
                   - b_all[i] - src)
    assert got.index0 == 0 and got.n_frames == len(ref)
    np.testing.assert_allclose(got.values, np.stack(ref), rtol=0,
                               atol=1e-14 * np.max(np.abs(ref)))



@pytest.mark.parametrize("index0,n", [(1, 6), (-6, 6), (8, 8), (20, 4)],
                         ids=["inside", "start", "end", "none"])
@pytest.mark.parametrize("chunk_frames", [1, 3, 100])
def test_equation_defect_subtracts_source_on_its_frames(monkeypatch,
                                                        chunk_frames,
                                                        index0, n):
    """The source is subtracted on the frames it covers only, bitwise equal
    to subtracting it zero-filled onto all of psi's frames (x - 0.0 == x),
    for sources that cover psi's frames in part and not at all."""
    grid = make_grid(1, 2.0, 16, 2)
    rng = np.random.default_rng(np.random.Philox(12))
    sys = make_system(grid, np.diag([2.0, 1.0]),
                      [np.array([[0.0, 1.0], [1.0, 0.0]])])

    def traj(index0, n):
        v = rng.standard_normal((n, grid.sites, 2)) \
            + 1j * rng.standard_normal((n, grid.sites, 2))
        return Trajectory(grid, 0.125, index0, v)

    psi, phi = traj(-2, 14), traj(index0, n)
    psi.values[:, 0] = complex(-0.0, -0.0)
    monkeypatch.setattr(dyson, "_CHUNK_VALUES", chunk_frames * 32)
    got = equation_defect(sys, None, psi, phi, None)
    aligned = np.zeros_like(psi.values)
    for i in range(phi.n_frames):
        j = phi.index0 + i - psi.index0
        if 0 <= j < psi.n_frames:
            aligned[j] = phi.values[i]
    want = equation_defect(sys, None, psi, None, None).values - aligned[1:-1]
    assert got.index0 == psi.index0 + 1
    assert got.values.tobytes() == want.tobytes()

# ---------------------------------------------------------------------------
# one kernel application per iterate (linearity)

def _linearity_case(name):
    """(kernel, run): `run(**kw)` is one Dyson run with that kernel, keyword
    arguments passed on to the driver."""
    if name == "retarded":
        grid, sys, k = _memory_setup()
        opts = SolveOptions(dt=1.0 / 128.0)
        data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
        phi = sample_trajectory(
            grid, lambda t, x: np.full((grid.sites, 1), math.sin(3.0 * t),
                                       complex), opts.dt, 0, 129)
        return k, lambda **kw: dyson_retarded(sys, k, phi, data, 1.0, opts,
                                              n_max=20, **kw)
    if name == "short_range":
        # scalar ODE with a two-sided kernel of range 0.25
        grid = make_grid(1, 1.0, 8, 1)
        sys = ode_system(grid, np.array([[-0.5]]))
        prof = (1.0 + 0.5 * np.sin(2.0 * math.pi * grid.coords()[:, 0]))
        k = make_modulated(grid, [ConvTerm(
            None, lambda z: 0.8 * np.cos(3.0 * z), None, (prof, None))],
            delta=0.25)
        opts = SolveOptions(dt=1.0 / 64.0)
        data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
        phi = sample_trajectory(
            grid, lambda t, x: math.sin(2.0 * math.pi * t) ** 2
            * np.cos(2.0 * math.pi * x).astype(complex), opts.dt, 0, 33)
        return k, lambda **kw: dyson_short_range(
            sys, k, phi, data, 0.5, opts, n_max=10, tol=1e-4,
            tol_residual=1e-2, constants={"C_est": 0.8, "D": 0.5}, **kw)
    if name == "separable_n_max":
        # the divergent rank-one counterexample, held to the full budget
        cfg = CounterexampleConfig(points=16, steps_per_delta=64, T=0.25,
                                   W=0.5, n_max=6)
        sys, k, f_tr, opts = build_counterexample(cfg)
        data = StateField(sys.grid, 0.0, sys.grid.zeros())
        return k, lambda **kw: dyson_short_range(
            sys, k, f_tr, data, cfg.T, opts, n_max=cfg.n_max, W=cfg.W,
            n_min=cfg.n_max + 1, constants={"C_est": 1.0, "D": 0.0}, **kw)
    raise ValueError(name)


def _count_apply_all(monkeypatch) -> list:
    calls = []
    inner = TimeKernel.apply_all

    def counted(self, tr):
        calls.append(tr.n_frames)
        return inner(self, tr)

    monkeypatch.setattr(TimeKernel, "apply_all", counted)
    return calls


def _recording_monitor(seen: list, kept: list):
    """Copies of each monitor call's (n, psi, total, b_total) values in
    `seen`; the psi arrays themselves with their copies in `kept`."""
    def mon(n, psi, total, b_total):
        seen.append((n, psi.values.copy(), total.values.copy(),
                     None if b_total is None else b_total.copy()))
        kept.append((psi.values, seen[-1][1]))
    return mon


@pytest.mark.parametrize("name,verdict", [("retarded", "Converged"),
                                          ("short_range", "Converged"),
                                          ("separable_n_max", "Stalled")])
def test_one_apply_all_per_iterate(monkeypatch, name, verdict):
    k, run = _linearity_case(name)
    calls = _count_apply_all(monkeypatch)
    res = run()
    assert res.verdict == verdict
    assert len(calls) == res.n_used + 1


def test_one_apply_all_on_zero_source_exit(monkeypatch):
    """A kernel switched on after T gives B psi = 0: the loop records
    psi^(1) = 0 without a solve and stops after the single application to
    psi^(0)."""
    grid, sys, _ = _memory_setup()
    k = make_convolution(lambda u: math.exp(-u), None, grid, t0=5.0)
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    calls = _count_apply_all(monkeypatch)
    res = dyson_retarded(sys, k, None, data, 1.0,
                         SolveOptions(dt=1.0 / 128.0), n_max=20,
                         constants={"C_est": 1.0, "D": 0.5, "M": 1.0})
    assert res.n_used == 1 and len(calls) == 1
    assert res.iterate_strip_norms[1] == 0.0 and res.verdict == "Converged"


def _exact_end_run(**kw):
    """A Dyson run whose series ends exactly: on a 64-site transport line, the
    separable retarded kernel g(t) <h(tau), .> with g = 0.01 e^{-(x-pi)^2}
    for t >= 0.5 and h = e^{-(x-pi)^2} for t <= 0.25. psi^(1) vanishes
    before t = 0.5, where h does not, so B psi^(1) = 0 exactly."""
    grid = make_grid(1, 2.0 * math.pi, 64, 1)
    sys = transport_system(grid)
    opts = SolveOptions(dt=grid.spacing / 4.0)
    n = round(1.0 / opts.dt) + 1
    T = (n - 1) * opts.dt                           # T = 1 on the lattice
    prof = np.exp(-(grid.coords()[:, :1] - math.pi) ** 2).astype(complex)
    g = sample_trajectory(grid, lambda t, x: 0.01 * (t >= 0.5) * prof,
                          opts.dt, 0, n)
    h = sample_trajectory(grid, lambda t, x: (t <= 0.25) * prof,
                          opts.dt, 0, n)
    k = make_separable([g], [h], retarded=True, switch_on=0.0)
    data = StateField(grid, 0.0, gaussian_pulse(grid))
    # the residual sits at its O(dt^2) floor of about 4e-3
    return dyson_retarded(sys, k, None, data, T, opts, tol_residual=1e-2,
                          **kw)


def test_series_that_ends_exactly_is_recorded():
    """B psi^(1) = 0 ends the series with psi^(2) = 0 recorded: sup and
    strip norm 0, the bound at n = 2, the residual of the partial sum
    unchanged and ratio 0, and the Converged verdict passes its
    invariants; the monitor sees the zero iterate too."""
    seen = []
    res = _exact_end_run(monitor=_recording_monitor(seen, []))
    assert res.verdict == "Converged" and res.n_used == 2
    assert res.iterate_sup_norms[2] == res.iterate_strip_norms[2] == 0.0
    assert res.iterate_strip_norms[1] > 0.0
    assert res.bound_values[2] == dyson.bound_retarded(
        2, res.config["K_T"], res.config["T"], res.config["M"]
        * math.exp(res.config["D"] * res.config["T"] / 2.0))
    assert res.residual_history[2] == res.residual_history[1]
    assert res.ratios == [res.ratios[0], 0.0]
    assert [n for n, *_ in seen] == [0, 1, 2]
    _, psi, total, b_total = seen[2]
    assert not np.any(psi)
    assert np.array_equal(total, seen[1][2])
    assert np.array_equal(b_total, seen[1][3])
    assert np.array_equal(total, res.partial_sum.values)


def test_source_that_squares_to_zero_is_solved():
    """The zero-source exit reads the source values, not its frame norms: a
    kernel scaled to 1e-170 gives a source whose values are nonzero but
    whose squares all underflow, so its norms read zero; the loop still
    solves for psi^(1), which then ends the run by its zero strip norm."""
    grid, sys, _ = _memory_setup()
    k = make_convolution(lambda u: 1e-170 * math.exp(-u), None, grid, t0=0.0)
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    res = dyson_retarded(sys, k, None, data, 1.0,
                         SolveOptions(dt=1.0 / 128.0), n_max=20,
                         constants={"C_est": 1.0, "D": 0.5, "M": 1.0})
    assert res.n_used == 1 and res.verdict == "Converged"
    assert res.iterate_strip_norms[1] == 0.0


def test_one_apply_all_on_solve_aborted(monkeypatch):
    """SolveAborted in iterate 2 ends the run as Diverged with n_used = 1:
    psi^(0) and psi^(1) were each given to the kernel once."""
    k, run = _linearity_case("retarded")
    calls = _count_apply_all(monkeypatch)
    solves = []
    solve = LocalSolver.solve

    def aborting(*args, **kwargs):
        solves.append(1)
        if len(solves) == 3:
            raise SolveAborted("forced", None, 0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(LocalSolver, "solve", aborting)
    res = run()
    assert res.verdict == "Diverged" and res.n_used == 1
    assert len(calls) == res.n_used + 1


@pytest.mark.parametrize("name", ["retarded", "short_range",
                                  "separable_n_max"])
def test_linearity_matches_reapplied_kernel(monkeypatch, name):
    """The residual from the running sum of sources against the reference
    that applies B to the whole partial sum: residual histories to 1e-12 of
    the series maximum, every other result field and every iterate, partial
    sum and B partial sum the monitor sees bitwise. Each B partial sum is B
    re-applied to that partial sum to 1e-12 of the largest, the last
    partial sum is the result's, and no iterate is written after the call."""
    k, run = _linearity_case(name)
    seen, kept = [], []
    res = run(monitor=_recording_monitor(seen, kept))
    for psi, at_call in kept:   # the loop never writes into a seen iterate
        assert np.array_equal(psi, at_call)
    grid, dt, index0 = res.partial_sum.grid, res.partial_sum.dt, \
        res.partial_sum.index0
    again = [k.apply_all(Trajectory(grid, dt, index0, total))
             for _, _, total, _ in seen]
    scale = max(np.max(np.abs(b)) for b in again)
    for (_, _, _, b_total), want in zip(seen, again):
        np.testing.assert_allclose(b_total, want, rtol=0, atol=1e-12 * scale)
    assert np.array_equal(seen[-1][2], res.partial_sum.values)

    def reference_residual(sys, b_psi, psi, phi, strip=None, solver=None):
        assert solver is None           # every case runs the sites loop
        return norm_strip(equation_defect(sys, k.apply_all(psi), psi, phi,
                                          strip), inner_weight(sys))

    monkeypatch.setattr(dyson, "residual", reference_residual)
    ref_seen = []
    ref = run(monitor=_recording_monitor(ref_seen, []))

    scale = max(ref.residual_history)
    np.testing.assert_allclose(res.residual_history, ref.residual_history,
                               rtol=0, atol=1e-12 * scale)
    assert res.verdict == ref.verdict and res.n_used == ref.n_used
    assert res.n_used >= 3
    for key in ("iterate_sup_norms", "iterate_strip_norms", "bound_values",
                "ratios", "config"):
        assert getattr(res, key) == getattr(ref, key), key
    assert res.partial_sum.index0 == ref.partial_sum.index0
    assert np.array_equal(res.partial_sum.values, ref.partial_sum.values)
    assert [n for n, *_ in seen] == [n for n, *_ in ref_seen]
    for got, want in zip(seen, ref_seen):
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)


def test_equation_defect_checks_b_psi_shape():
    grid, sys, k = _memory_setup()
    psi = Trajectory(grid, 0.125, 0, np.ones((9, grid.sites, 1), complex))
    with pytest.raises(DysonError, match="B psi"):
        equation_defect(sys, np.zeros((8, grid.sites, 1), complex), psi, None)


def _old_M(sys, data, phi):
    """Reference for the data norm M of _measure_constants: the weight and
    A0^{-1} applied as per-site stacks in three-operand einsums."""
    w = per_site(sys.grid, inner_weight(sys).weight)
    dv = sys.grid.cell_volume
    m = math.sqrt(max((np.einsum("sf,sfg,sg->", np.conj(data.values), w,
                                 data.values).real * dv), 0.0))
    nv = np.einsum("sfg,tsg->tsf", per_site(sys.grid, sys.A0_inv), phi.values)
    sq = np.einsum("tsf,sfg,tsg->t", np.conj(nv), w, nv).real * dv
    return m + trapezoid_sum(np.sqrt(np.maximum(sq, 0.0)), phi.dt)


@pytest.mark.parametrize("weighted", [False, True])
def test_data_norm_matches_old_einsums(weighted):
    """M = ||data|| + int ||A0^{-1} phi||_t dt agrees with the per-site
    einsums to 1e-14 relative (the sums run in another order)."""
    grid = make_grid(1, 2.0 * math.pi, 32, 2)
    x = grid.coords()[:, 0]
    if weighted:
        A0 = np.zeros((grid.sites, 2, 2), complex)
        A0[:, 0, 0] = 2.0 + np.sin(x)
        A0[:, 1, 1] = 1.0
        A0[:, 0, 1], A0[:, 1, 0] = 0.3j, -0.3j
        sys = make_system(grid, A0, [np.zeros((2, 2))],
                          beta=1.0 + 0.25 * np.cos(x))
    else:
        sys = make_system(grid, np.eye(2), [np.zeros((2, 2))])
    rng = np.random.default_rng(np.random.Philox(9))
    data = StateField(grid, 0.0, rng.standard_normal((grid.sites, 2))
                      + 1j * rng.standard_normal((grid.sites, 2)))
    phi = Trajectory(grid, 0.125, 0, rng.standard_normal((9, grid.sites, 2))
                     + 1j * rng.standard_normal((9, grid.sites, 2)))
    M = dyson._measure_constants(sys, None, phi, data, 1.0,
                                 {"D": 0.0, "C_est": 0.0}, (0.0, 1.0), 0)["M"]
    assert M == pytest.approx(_old_M(sys, data, phi), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# result bookkeeping

def test_result_serialization(tmp_path):
    grid, sys, k = _memory_setup()
    opts = SolveOptions(dt=1.0 / 128.0)
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    res = dyson_retarded(sys, k, None, data, 1.0, opts, n_max=20)

    doc = result_to_json(res)
    json.dumps(doc)   # must be serializable as-is
    assert doc["verdict"] == res.verdict
    assert doc["n_used"] == res.n_used
    assert len(doc["iterate_sup_norms"]) == len(res.iterate_sup_norms)

    p = tmp_path / "dyson.csv"
    result_to_csv(res, str(p))
    lines = p.read_text().strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 1 + len(res.iterate_sup_norms)


def test_monitor_sees_every_iterate():
    grid, sys, k = _memory_setup()
    opts = SolveOptions(dt=1.0 / 128.0)
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    seen = []
    res = dyson_retarded(sys, k, None, data, 1.0, opts, n_max=20,
                         monitor=lambda n, psi, total, b_total: seen.append(n))
    assert seen == list(range(res.n_used + 1))


def test_deterministic_partial_sum():
    grid, sys, k = _memory_setup()
    opts = SolveOptions(dt=1.0 / 128.0)
    data = StateField(grid, 0.0, np.ones((grid.sites, 1), complex))
    a = dyson_retarded(sys, k, None, data, 1.0, opts, n_max=20)
    b = dyson_retarded(sys, k, None, data, 1.0, opts, n_max=20)
    assert np.array_equal(a.partial_sum.values, b.partial_sum.values)


# ---------------------------------------------------------------------------
# the Fourier-mode loop, against the same kernel on the sites loop

def _profiled(k):
    """k with an all-ones site profile on every term: the same operator,
    which the predicate sends through the sites loop (the oracle)."""
    ones = np.ones(k.grid.sites, dtype=complex)
    terms = [ConvTerm(m, c, n, (ones, None if M is None else M[1]))
             for m, c, n, M in k.data["terms"]]
    return dataclasses.replace(k, data={"terms": terms})


def _modes_case(name, chi_dot=None):
    """(sys, k, run): `run(kernel, **kw)` is the case's Dyson run with that
    kernel, keyword arguments passed on to dyson_retarded (or
    dyson_short_range)."""
    if chi_dot is None:
        _, chi_dot = drude_lorentz(0.2, 1.0, 2.0)
    rng = np.random.default_rng(np.random.Philox(4))
    if name == "maxwell3d":
        grid = make_grid(3, 2.0 * math.pi, 8, 6)
        sys = maxwell_system_3d(grid)
        vals = random_divfree_data(grid, 3)
        vals /= np.max(np.abs(vals))
        opts = SolveOptions(dt=0.25 * grid.spacing)
        T = 16 * opts.dt
        kw = dict(T=T, tol=1e-10, tol_residual=math.inf, n_max=12)
        delta = math.inf
    elif name in _SKEW_A0_CASES:
        # the skew_A0 system of test_solver.py: A0 != I, and L skew-adjoint
        # in the A0 inner product, not in the plain one
        grid = make_grid(1, 2.0 * math.pi, 16, 2)
        a0 = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.5]])
        sys = make_system(grid, a0, [np.array([[0.5, 0.2j], [-0.2j, -0.3]])],
                          S0=1j * np.array([[0.4, 0.3 - 0.2j],
                                            [0.3 + 0.2j, -0.7]]),
                          beta=1.5 if name == "lapse" else None)
        vals = rng.standard_normal((grid.sites, 2)) \
            + 1j * rng.standard_normal((grid.sites, 2))
        opts = SolveOptions(dt=0.2 * grid.spacing / sys.v_max)
        T = 24 * opts.dt
        kw = dict(T=T, tol=1e-10, tol_residual=math.inf, n_max=12)
        delta = 4 * opts.dt if name == "window_exhausted" else math.inf
    else:
        # the volterra system: E = 1, B = 0 on the line, and a source that
        # varies in space, so that more than the constant mode is live
        grid = make_grid(1, 1.0, 8, 2)
        sys = maxwell_system_1d(grid)
        vals = np.zeros((grid.sites, 2), dtype=complex)
        vals[:, 0] = 1.0
        opts = SolveOptions(dt=1.0 / 64.0)
        T = 0.5
        kw = dict(T=T, tol=1e-10, tol_residual=0.1, n_max=12)
        delta = 0.125 if name == "volterra_short" else math.inf
    k = maxwell_kernel(grid, chi_dot, delta_eff=delta)
    data = StateField(grid, 0.0, vals)
    phi = Trajectory(grid, opts.dt, 2, 0.1 * (
        rng.standard_normal((6, grid.sites, grid.fiber))
        + 1j * rng.standard_normal((6, grid.sites, grid.fiber))))
    constants = {"C_est": 0.5, "D": 0.0}

    def run(kern, **extra):
        args = dict(kw, constants=constants, **extra)
        T = args.pop("T")
        if math.isfinite(delta):
            return dyson_short_range(sys, kern, phi, data, T, opts, **args)
        return dyson_retarded(sys, kern, phi, data, T, opts, **args)
    return sys, k, run


def _assert_matches_oracle(res, ref):
    assert res.verdict == ref.verdict and res.n_used == ref.n_used
    for key in ("iterate_sup_norms", "iterate_strip_norms", "bound_values",
                "residual_history", "ratios"):
        got, want = getattr(res, key), getattr(ref, key)
        assert len(got) == len(want), key
        if want:
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=key)
    assert res.partial_sum.index0 == ref.partial_sum.index0
    want = ref.partial_sum.values
    np.testing.assert_allclose(res.partial_sum.values, want, rtol=0,
                               atol=1e-12 * np.max(np.abs(want)))


# cases that no config reaches: the skew_A0 system, with a constant lapse,
# with a monitor, and on a short range whose window is exhausted
_SKEW_A0_CASES = ("skew_A0", "lapse", "monitor", "window_exhausted")


@pytest.mark.parametrize("name", ["maxwell3d", "volterra", "volterra_short",
                                  *_SKEW_A0_CASES])
def test_modes_loop_matches_sites_oracle(name):
    """The eigen loop against the same kernel on the sites loop: every
    result field and the partial sum to 1e-12 of each series' maximum
    (every case has a source phi). "monitor" also compares each psi,
    total and b_total the monitor sees to 1e-12 of the largest value of
    that argument over the run (b_total is A0 V W_sum, with A0 != I);
    "window_exhausted" raises the same error on both loops."""
    sys, k, run = _modes_case(name)
    oracle = _profiled(k)
    solver = LocalSolver(sys, SolveOptions(dt=0.1))
    assert dyson._runs_on_modes(sys, k, solver)
    assert not dyson._runs_on_modes(sys, oracle, solver)
    if name == "window_exhausted":
        errors = []
        for kern in (k, oracle):
            with pytest.raises(DysonError, match="window exhausted") as err:
                run(kern, W=0.5 * k.delta * 3)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        return
    seen, ref_seen = [], []
    extra = name == "monitor"
    res = run(k, **(dict(monitor=_recording_monitor(seen, [])) if extra
                    else {}))
    ref = run(oracle, **(dict(monitor=_recording_monitor(ref_seen, []))
                         if extra else {}))
    assert res.n_used >= 3
    _assert_matches_oracle(res, ref)
    assert [n for n, *_ in seen] == [n for n, *_ in ref_seen]
    for arg in (1, 2, 3):
        scale = max((np.max(np.abs(want[arg])) for want in ref_seen),
                    default=0.0)
        for got, want in zip(seen, ref_seen):
            np.testing.assert_allclose(got[arg], want[arg], rtol=0,
                                       atol=1e-12 * scale)


def test_monitor_sees_site_values_on_the_modes_loop():
    """Each iterate, partial sum and B partial sum the monitor sees is the
    oracle's to 1e-12 of the largest value of that argument over the run.
    Relative to its own size a late iterate differs by more: the iterates
    shrink by about 1e3 per step and the difference grows about 3x, to
    1e-14 of iterate 5 here."""
    _, k, run = _modes_case("volterra")
    seen, ref_seen = [], []
    res = run(k, monitor=_recording_monitor(seen, []))
    run(_profiled(k), monitor=_recording_monitor(ref_seen, []))
    assert res.n_used >= 3
    assert [n for n, *_ in seen] == [n for n, *_ in ref_seen]
    for arg in (1, 2, 3):
        scale = max(np.max(np.abs(want[arg])) for want in ref_seen)
        for got, want in zip(seen, ref_seen):
            np.testing.assert_allclose(got[arg], want[arg], rtol=0,
                                       atol=1e-12 * scale)


def test_solve_aborted_on_the_modes_loop(monkeypatch):
    """A forced SolveAborted in the third solve, and a kernel whose lag
    table holds an infinity (every source frame is then NaN), end both
    loops as Diverged at the same n_used."""
    _, k, run = _modes_case("volterra")
    solves = []
    solve = LocalSolver.solve

    def aborting(*args, **kwargs):
        solves.append(1)
        if len(solves) % 3 == 0:
            raise SolveAborted("forced", None, 0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(LocalSolver, "solve", aborting)
    res, ref = run(k), run(_profiled(k))
    assert res.verdict == "Diverged" and res.n_used == 1
    _assert_matches_oracle(res, ref)
    monkeypatch.setattr(LocalSolver, "solve", solve)

    _, k, run = _modes_case("volterra",
                            lambda u: math.inf if u > 0.25 else 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        res, ref = run(k), run(_profiled(k))
    assert res.verdict == ref.verdict == "Diverged"
    assert res.n_used == ref.n_used == 0


def test_window_contamination_on_the_modes_loop(monkeypatch):
    """A window of two kernel ranges is exhausted at the same iterate on
    both loops, and the check reads the source in site values on both."""
    _, k, run = _modes_case("volterra_short")
    check = dyson._window_contamination
    errors, checked = [], []

    def recorded(src, *args):
        checked.append(src.values.copy())
        return check(src, *args)

    monkeypatch.setattr(dyson, "_window_contamination", recorded)
    for kern in (k, _profiled(k)):
        with pytest.raises(DysonError, match="window exhausted") as err:
            run(kern, W=0.25)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert "at iterate 1:" in errors[0]
    got, want = checked
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.max(np.abs(want)))


def _window_contamination_scan(src, delta, W, T):
    """The check _window_contamination replaced: the peak over every frame
    and site first, then the edge bands."""
    amp = np.max(np.abs(src.values), axis=(1, 2))
    peak = float(np.max(amp))
    if peak == 0.0:
        return False
    times = src.times()
    mask = (times < -W + delta + 1e-9) | (times > T + W - delta - 1e-9)
    if not np.any(mask):
        return False
    return bool(np.max(amp[mask]) > 1e-10 * peak)


def _contaminated(band=None, inside=None):
    """A source on [-W, T + W] = [-0.5, 1.5] (dt = 0.125, delta = 0.25, so
    the edge bands are the first and the last two frames) with peak 1 in
    the middle frame: `band` is written at one band value, `inside` at one
    value of frame 4, outside the bands."""
    vals = np.zeros((17, 8, 2), dtype=complex)
    vals[8, 3, 1] = 1.0
    if band is not None:
        vals[15, 2, 0] = band
    if inside is not None:
        vals[4, 5, 1] = inside
    return vals


@pytest.mark.parametrize("vals,index0,want", [
    (np.zeros((17, 8, 2), dtype=complex), -4, False),
    (_contaminated(), -4, False),
    (_contaminated(band=1.0001e-10), -4, True),
    (_contaminated(band=0.9999e-10), -4, False),
    (_contaminated(band=complex(0.0, -2e-10)), -4, True),
    (_contaminated(band=np.nan), -4, False),
    (_contaminated(inside=np.nan), -4, False),
    (_contaminated(band=1e-3, inside=np.nan), -4, False),
    (_contaminated(band=np.inf), -4, False),
    (_contaminated(band=1.0)[4:13], 0, False),
], ids=["zero", "zero-bands", "above", "below", "imaginary", "nan-in-band",
        "nan-outside", "nan-outside-live-band", "inf-in-band",
        "no-band-frames"])
def test_window_contamination_matches_full_scan(vals, index0, want):
    """Reading the edge bands first gives the boolean of the full scan on
    every case, NaN and inf included (a NaN anywhere reads as clean)."""
    src = Trajectory(make_grid(1, 1.0, 8, 2), 0.125, index0, vals)
    args = (src, 0.25, 0.5, 1.0)
    assert dyson._window_contamination(*args) is \
        _window_contamination_scan(*args) is want


def test_modes_loop_holds_at_most_four_trajectories():
    """The traced peak of an eigen-loop run of 193 frames (9.5 MB a
    trajectory) is at most dyson.LIVE_TRAJECTORIES (4) trajectories (the
    partial sum, the running sum of sources, the iterate and its source),
    the size of one direction's step matrices (the eigenbasis the run holds
    is smaller), what one apply_all allocates besides its output, and 2 MB
    for the run's fixed-size arrays (data, source, frame norms, residual
    chunks, the chunks of B's per-mode products). A fifth trajectory held
    at any point exceeds it."""
    import tracemalloc
    sys, k, run = _modes_case("maxwell3d")
    g = sys.grid
    dt = 0.25 * g.spacing
    steps = 192
    traj = (steps + 1) * g.sites * g.fiber * 16
    mats = 3 * g.sites * g.fiber ** 2 * 16
    psi = Trajectory(g, dt, 0, np.ones((steps + 1, g.sites, g.fiber),
                                       dtype=complex))
    tracemalloc.start()
    try:
        b = k.apply_all(psi)
        kernel_extra = tracemalloc.get_traced_memory()[1] - traj
        del b
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = run(k, T=steps * dt, n_max=4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.n_used == 4
    assert peak <= dyson.LIVE_TRAJECTORIES * traj + mats + kernel_extra \
        + (2 << 20)


def _sites_loop_cases():
    """(name, sys, k) that keep the sites loop, on the 1D Maxwell line."""
    grid = make_grid(1, 1.0, 8, 2)
    sys = maxwell_system_1d(grid)
    _, chi_dot = drude_lorentz(0.2, 1.0, 2.0)
    k = maxwell_kernel(grid, chi_dot)
    proj = k.data["terms"][0].M[1]
    per_site = make_modulated(grid, [ConvTerm(
        None, k.data["terms"][0].c, None,
        (None, np.broadcast_to(proj, (grid.sites, 2, 2))))], retarded=True)
    x = grid.coords()[:, 0]
    post = np.broadcast_to(np.eye(2), (grid.sites, 2, 2)) \
        * (1.0 + 0.5 * np.sin(2.0 * math.pi * x))[:, None, None]
    prof = sample_trajectory(grid, lambda t, c: np.ones((grid.sites, 2)),
                             1.0 / 64.0, 0, 33)
    separable = make_separable([prof], [prof], retarded=False)
    from hypnl.systems import PROFILES
    varying = make_system(grid, np.eye(2), [PROFILES["offset_sin"](
        grid, 1.0, 0.25, 2.0 * math.pi) @ np.array([[0.0, 1.0], [1.0, 0.0]])])
    lapse = make_system(grid, np.eye(2), list(sys.Aj),
                        beta=1.0 + 0.25 * np.cos(2.0 * math.pi * x))
    stepping = make_system(grid, np.eye(2), list(sys.Aj),
                           S0_t=lambda t: t * np.eye(2))
    return [("profiled", sys, _profiled(k)), ("per_site_M", sys, per_site),
            ("per_site_post", sys, fold_output_op(k, post)),
            ("separable", sys, separable),
            ("site_varying_Aj", varying, k), ("site_varying_lapse", lapse, k),
            ("stepping", stepping, k), ("no_kernel", sys, None)]


def test_loop_basis_predicate():
    cases = _sites_loop_cases()
    opts = SolveOptions(dt=1.0 / 64.0)
    for name, sys, k in cases:
        assert not dyson._runs_on_modes(sys, k, LocalSolver(sys, opts)), name
    _, sys, k = cases[0]
    k = maxwell_kernel(sys.grid, lambda u: 1.0)
    assert k.translation_invariant
    assert dyson._runs_on_modes(sys, k, LocalSolver(sys, opts))
    # a site-constant output operator and identity M terms keep the modes
    # loop
    one_post = fold_output_op(k, np.array([[2.0, 0.0], [0.0, 1.0]]))
    bare = make_modulated(sys.grid, [ConvTerm(None, lambda z: 1.0, None)])
    for kern in (one_post, bare):
        assert kern.translation_invariant
        assert dyson._runs_on_modes(sys, kern, LocalSolver(sys, opts))
    kinds = {name: k.translation_invariant for name, _, k in cases[:4]}
    assert not any(kinds.values()), kinds


def test_residual_is_norm_of_defect_chunk_by_chunk(monkeypatch):
    """residual takes the defect's frame norms chunk by chunk: bitwise the
    strip norm of the whole defect, for chunks of 1, 3 and 100 frames; in
    the eigen coordinates of the generator on the modes (the eigen loop's
    residual, A0 = I and A0 != I, a lapse of 1.5) the same to round-off."""
    grid = make_grid(1, 2.0, 16, 2)
    rng = np.random.default_rng(np.random.Philox(12))

    def traj(index0, n):
        return Trajectory(grid, 0.125, index0, rng.standard_normal(
            (n, grid.sites, 2)) + 1j * rng.standard_normal((n, grid.sites, 2)))

    psi, phi, b = traj(-2, 14), traj(1, 6), traj(-2, 14).values
    for a0 in (np.array([[2.0, 0.5j], [-0.5j, 1.0]]), np.eye(2)):
        sys = make_system(grid, a0, [np.array([[0.0, 1.0], [1.0, 0.0]])],
                          S0=1j * np.array([[0.5, 1j], [-1j, -0.5]]),
                          beta=1.5)
        solver = LocalSolver(sys, SolveOptions(dt=0.125))
        assert solver.recurrence == "eigen" and solver.basis == "modes"
        w = inner_weight(sys)
        for chunk_frames in (1, 3, 100):
            monkeypatch.setattr(dyson, "_CHUNK_VALUES", chunk_frames * 32)
            want = norm_strip(equation_defect(sys, b, psi, phi, (0.0, 1.0)),
                              w)
            assert residual(sys, b, psi, phi, (0.0, 1.0)) == want
            u, w_phi = (Trajectory(grid, tr.dt, tr.index0, dyson._to_eigen(
                solver, tr.values, source)) for tr, source in
                ((psi, False), (phi, True)))
            got = residual(sys, dyson._to_eigen(solver, b, source=True), u,
                           w_phi, (0.0, 1.0), solver)
            assert got == pytest.approx(want, rel=1e-13, abs=0)
