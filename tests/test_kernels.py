"""Time-kernel application against brute-force quadrature oracles, adjoint
identities, and the bound/threshold arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypnl.grids import GridError, Trajectory, make_grid, sample_trajectory
from hypnl.kernels import (KernelError, adjoint, estimate_bound,
                           make_convolution, make_dense, make_separable,
                           threshold_margin, weighted)
from hypnl.systems import make_system


def _grid():
    return make_grid(1, 2.0, 16, 2)


def _traj(grid, seed, dt=0.125, index0=0, n=17):
    rng = np.random.default_rng(np.random.Philox(seed))
    vals = (rng.standard_normal((n, grid.sites, grid.fiber))
            + 1j * rng.standard_normal((n, grid.sites, grid.fiber)))
    return Trajectory(grid, dt, index0, vals)


def _profile(grid, fn, dt=0.125, index0=-4, n=33):
    return sample_trajectory(grid, fn, dt, index0, n)


def _sep_kernel(grid, g_gate=None, h_gate=None, **flags):
    """Rank-one kernel; optional time gates shrink the profile supports so a
    declared flag is consistent with them."""

    def gfn(t, coords):
        v = np.zeros((grid.sites, grid.fiber), complex)
        if g_gate is None or g_gate(t):
            v[:, 0] = np.exp(-t * t) * np.sin(math.pi * coords[:, 0])
        return v

    def hfn(t, coords):
        v = np.zeros((grid.sites, grid.fiber), complex)
        if h_gate is None or h_gate(t):
            v[:, 1] = math.cos(t) * (1.0 + 0.3 * np.cos(math.pi * coords[:, 0]))
        return v

    return make_separable([_profile(grid, gfn)], [_profile(grid, hfn)], **flags)


def _apply_oracle(k, tr, t):
    """Trapezoid over the admitted tau lattice of the frame operator, written
    as an explicit loop independent of the vectorized paths."""
    out = np.zeros((k.grid.sites, k.grid.fiber), complex)
    idx = [j for j in range(tr.n_frames) if k._admissible(t, tr.time(j))]
    if len(idx) < 2:
        return out
    for pos, j in enumerate(idx):
        w = tr.dt if 0 < pos < len(idx) - 1 else 0.5 * tr.dt
        out += w * k.pair_apply(t, tr.time(j), tr.values[j])
    return out


def _assert_matches_oracle(k, tr, atol=1e-12):
    """apply_all against the pair_apply trapezoid on every frame; the input
    frames are left as they were."""
    before = tr.values.copy()
    allv = k.apply_all(tr)
    np.testing.assert_array_equal(tr.values, before)
    for i in range(tr.n_frames):
        np.testing.assert_allclose(allv[i], _apply_oracle(k, tr, tr.time(i)),
                                   rtol=0, atol=atol)


def _rot_op(t, tau, values):
    """Dense test operator cos(t - tau) * rotation, vectorized over pairs."""
    m = np.array([[0.0, 1.0], [-1.0, 0.0]], complex)
    return np.cos(t - tau)[:, None, None] * (values @ m.T)


# ---------------------------------------------------------------------------
# application vs oracle

@pytest.mark.parametrize("flags", [
    {},
    {"retarded": True,
     "g_gate": lambda t: t >= 0.25, "h_gate": lambda t: t <= 0.25},
    {"delta": 0.5,
     "g_gate": lambda t: 0.0 <= t <= 0.375,
     "h_gate": lambda t: 0.125 <= t <= 0.5},
    {"switch_on": 0.5, "h_gate": lambda t: t >= 0.5},
])
def test_separable_apply_matches_oracle(flags):
    g = _grid()
    k = _sep_kernel(g, **flags)
    _assert_matches_oracle(k, _traj(g, 11))


def test_separable_pair_apply_is_rank_one():
    g = _grid()
    k = _sep_kernel(g)
    tr = _traj(g, 12)
    gp, hp = k.data["g"][0], k.data["h"][0]
    t, tau = 0.5, 0.25
    psi = tr.values[2]
    c = np.vdot(hp.values[hp.index_of(tau)], psi) * g.cell_volume
    np.testing.assert_allclose(k.pair_apply(t, tau, psi),
                               c * gp.values[gp.index_of(t)], atol=1e-13)


def test_convolution_apply_matches_oracle():
    g = _grid()
    k = make_convolution(lambda u: math.exp(-u) * math.sin(2.0 * u),
                         np.diag([1.0, 0.0]), g, t0=0.0, delta_eff=1.0)
    _assert_matches_oracle(k, _traj(g, 13))


def test_dense_apply_matches_oracle():
    g = _grid()
    k = make_dense(g, _rot_op, delta=0.75)
    _assert_matches_oracle(k, _traj(g, 14))


def _oracle_case(name, g):
    if name == "separable":
        return _sep_kernel(g, delta=1.0,
                           g_gate=lambda t: 0.0 <= t <= 0.75,
                           h_gate=lambda t: 0.0 <= t <= 0.75)
    if name == "convolution":
        return make_convolution(lambda u: math.exp(-u), None, g, t0=0.0,
                                delta_eff=0.75)
    if name == "convolution_adjoint":
        k = make_convolution(lambda u: math.exp(-u) * (0.3 + 1j * u),
                             np.array([[1.0, 0.5j], [0.0, 2.0]]), g, t0=0.25,
                             delta_eff=0.625)
        return adjoint(k)
    if name == "dense":
        return make_dense(g, lambda t, tau, v: (t - tau)[:, None, None] * v,
                          retarded=True, delta=0.5)
    if name == "dense_identity":        # op hands back its input array
        return make_dense(g, lambda t, tau, v: v, delta=0.5)
    if name == "dense_infinite_range":
        return make_dense(g, _rot_op)
    if name == "dense_advanced_switch_on":
        return make_dense(g, _rot_op, advanced=True, delta=0.5,
                          switch_on=0.75)
    raise ValueError(name)


@pytest.mark.parametrize("name", [
    "separable", "convolution", "convolution_adjoint", "dense",
    "dense_identity", "dense_infinite_range", "dense_advanced_switch_on"])
def test_apply_all_matches_oracle(name):
    g = _grid()
    _assert_matches_oracle(_oracle_case(name, g), _traj(g, 15, index0=-3),
                           atol=1e-11)


def test_apply_is_one_frame_of_apply_all():
    g = _grid()
    k = make_dense(g, _rot_op, delta=0.5)
    tr = _traj(g, 16)
    np.testing.assert_array_equal(k.apply(tr, 0.75), k.apply_all(tr)[6])
    with pytest.raises(GridError):
        k.apply(tr, 0.3)


# ---------------------------------------------------------------------------
# adjoints

def _strip_pair(a, b, dt):
    w = np.ones(len(a))
    w[0] = w[-1] = 0.5
    return complex(np.einsum("t,tsf,tsf->", w, np.conj(a), b)) * dt


def test_adjoint_pairing_exact_unflagged():
    """<a, B b>_strip = <B^+ a, b>_strip bit-for-bit up to round-off when no
    support flag truncates the trapezoid."""
    g = _grid()
    k = _sep_kernel(g)
    a, b = _traj(g, 21), _traj(g, 22)
    lhs = _strip_pair(a.values, k.apply_all(b), a.dt) * g.cell_volume
    rhs = _strip_pair(adjoint(k).apply_all(a), b.values, a.dt) * g.cell_volume
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_adjoint_involution():
    g = _grid()
    k = _sep_kernel(g, delta=0.75,
                    g_gate=lambda t: 0.0 <= t <= 0.5,
                    h_gate=lambda t: 0.0 <= t <= 0.5)
    kk = adjoint(adjoint(k))
    tr = _traj(g, 23)
    for t in (0.25, 1.0):
        np.testing.assert_allclose(kk.apply(tr, t), k.apply(tr, t),
                                   rtol=0, atol=1e-12)
    assert kk.retarded == k.retarded and kk.advanced == k.advanced


def test_adjoint_swaps_retarded_advanced():
    g = _grid()
    k = _sep_kernel(g, retarded=True,
                    g_gate=lambda t: t >= 0.25, h_gate=lambda t: t <= 0.25)
    ka = adjoint(k)
    assert ka.advanced and not ka.retarded


def test_convolution_adjoint_pairing_second_order():
    """With a retarded flag the diagonal of the double trapezoid is clipped
    asymmetrically, so the discrete pairing defect is O(dt^2) rather than
    exact; check the order under one refinement."""
    g = _grid()
    k = make_convolution(lambda u: math.exp(-u) * (0.3 + 1j * u), None, g,
                         t0=-10.0, delta_eff=math.inf)
    ka = adjoint(k)

    # smooth trajectories for a clean order: cos/sin time profiles
    def smooth(dt, n, phase):
        ts = np.arange(n) * dt
        prof = np.cos(ts + phase) + 1j * np.sin(0.7 * ts)
        vals = prof[:, None, None] * np.ones((n, g.sites, g.fiber))
        return Trajectory(g, dt, 0, vals.astype(complex))

    def defect_smooth(dt, n):
        a, b = smooth(dt, n, 0.0), smooth(dt, n, 0.4)
        lhs = _strip_pair(a.values, k.apply_all(b), dt)
        rhs = _strip_pair(ka.apply_all(a), b.values, dt)
        return abs(lhs - rhs)

    d1 = defect_smooth(0.125, 17)
    d2 = defect_smooth(0.0625, 33)
    assert d2 < d1
    order = math.log(d1 / d2) / math.log(2.0)
    assert order >= 1.7


def test_dense_adjoint_requires_callback():
    g = _grid()
    k = make_dense(g, lambda t, tau, v: v)
    with pytest.raises(KernelError):
        adjoint(k)


# ---------------------------------------------------------------------------
# construction-time flag checks

def test_retarded_declaration_checked_against_support():
    g = _grid()
    with pytest.raises(KernelError):
        _sep_kernel(g, retarded=True, delta=math.inf).data  # h lives at all times
    # but a genuinely past-supported pair passes
    gp = _profile(g, lambda t, c: np.full((g.sites, g.fiber), 1.0 + 0j)
                  * (1.0 if t >= 1.0 else 0.0))
    hp = _profile(g, lambda t, c: np.full((g.sites, g.fiber), 1.0 + 0j)
                  * (1.0 if t <= 0.5 else 0.0))
    make_separable([gp], [hp], retarded=True)


def test_range_declaration_checked_against_support():
    g = _grid()
    with pytest.raises(KernelError):
        _sep_kernel(g, delta=0.05)


def test_convolution_rejects_nonpositive_range():
    g = _grid()
    with pytest.raises(KernelError):
        make_convolution(lambda u: 1.0, None, g, delta_eff=0.0)


# ---------------------------------------------------------------------------
# bounds and thresholds

def test_threshold_margin_formula():
    assert threshold_margin(1.0, 1.0) == pytest.approx(8.0 * math.e)
    assert threshold_margin(2.0, 0.5) == pytest.approx(8.0 * math.e * 0.5)
    with pytest.raises(KernelError):
        threshold_margin(1.0, 0.0)
    with pytest.raises(KernelError):
        threshold_margin(-1.0, 1.0)


def test_estimate_bound_exact_rank_one():
    """For a rank-one separable kernel on an identity-weight system the
    operator norm at (t, tau) is ||g_t|| ||h_tau||; the sampled sup must hit
    max_t ||g_t|| * max_tau ||h_tau|| exactly (the profiles are on-lattice)."""
    g = _grid()
    sys = make_system(g, np.eye(2), [np.zeros((2, 2))])
    amp_g = lambda t: math.exp(-t * t)
    amp_h = lambda t: 1.0 / (1.0 + t * t)

    gp = _profile(g, lambda t, c: amp_g(t) * np.ones((g.sites, g.fiber), complex))
    hp = _profile(g, lambda t, c: amp_h(t) * np.ones((g.sites, g.fiber), complex))
    k = make_separable([gp], [hp])
    est = estimate_bound(k, sys, probes=32)
    # ||const 1 field||^2 = fiber * extent
    unit = 2.0 * g.extent
    times = gp.times()
    expect = (max(abs(amp_g(t)) for t in times)
              * max(abs(amp_h(t)) for t in times) * unit)
    assert est.C_est == pytest.approx(expect, rel=1e-12)


def test_estimate_bound_deterministic():
    g = _grid()
    sys = make_system(g, np.eye(2), [np.zeros((2, 2))])
    k = make_convolution(lambda u: math.exp(-u), None, g, t0=0.0,
                         delta_eff=0.5)
    e1 = estimate_bound(k, sys, probes=32, t_window=(0.0, 1.0), seed=5)
    e2 = estimate_bound(k, sys, probes=32, t_window=(0.0, 1.0), seed=5)
    assert e1.C_est == e2.C_est and e1.samples == e2.samples


def _pair_sup_loop(V, Gg, Hh, times, idx, D):
    """Reference for kernels._pair_sup: the per-pair double loop, one
    _admissible call per pair."""
    best, n = 0.0, 0
    for i in idx:
        t = float(times[i])
        for j in idx:
            tau = float(times[j])
            if not V._admissible(t, tau):
                continue
            if Gg.shape[1] == 1:
                nrm = math.sqrt(max((Gg[i, 0, 0] * Hh[j, 0, 0]).real, 0.0))
            else:
                ev = np.linalg.eigvals(Gg[i] @ Hh[j])
                nrm = math.sqrt(max(float(np.max(ev.real)), 0.0))
            n += 1
            best = max(best, nrm / math.exp(-D * abs(tau) / 2.0))
    return best, n


def _separable_case(rank, flags):
    g = _grid()
    rng = np.random.default_rng(np.random.Philox(rank))
    gate = {"retarded": (lambda t: t >= 0.0, lambda t: -0.5 <= t <= 0.0),
            "delta": (lambda t: abs(t) <= 0.5, lambda t: abs(t) <= 0.5)}
    g_gate, h_gate = next((gate[f] for f in flags if f in gate), (None, None))
    prof = {"g": [], "h": []}
    for side, keep in (("g", g_gate), ("h", h_gate)):
        for _ in range(rank):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a, b = rng.uniform(0.5, 2.0, size=2)

            def fn(t, x, c=c, a=a, b=b, keep=keep):
                on = keep is None or keep(t)
                return on * math.exp(-a * t * t) * np.cos(b * x[:, :1]) * c
            prof[side].append(_profile(g, fn))
    return g, make_separable(prof["g"], prof["h"], **flags)


SEPARABLE_BOUND_CASES = [
    (1, {}, 0.0, None),
    (1, {"delta": 1.0}, 0.3, (-0.5, 1.0)),
    (2, {"retarded": True, "switch_on": -0.5}, 0.0, None),
    (2, {"delta": 1.0}, 0.7, (0.0, 1.5)),
]


@pytest.mark.parametrize("rank,flags,D,window", SEPARABLE_BOUND_CASES)
def test_pair_sup_matches_loop_bitwise(rank, flags, D, window):
    from hypnl.kernels import _pair_sup
    _, k = _separable_case(rank, flags)
    rng = np.random.default_rng(np.random.Philox(7))
    times = k.data["g"][0].times()
    F = len(times)
    m = rng.standard_normal((2, F, rank, rank)) \
        + 1j * rng.standard_normal((2, F, rank, rank))
    Gg, Hh = (np.einsum("tab,tcb->tac", x, x.conj()) for x in m)
    idx = np.arange(F) if window is None else np.arange(3, F - 5)
    assert _pair_sup(k, Gg, Hh, times, idx, D) \
        == _pair_sup_loop(k, Gg, Hh, times, idx, D)


@pytest.mark.parametrize("rank,flags,D,window", SEPARABLE_BOUND_CASES)
def test_estimate_bound_separable_matches_loop(monkeypatch, rank, flags, D,
                                               window):
    """C_est and samples are bitwise those of the per-pair loop."""
    from hypnl import kernels
    g, k = _separable_case(rank, flags)
    sys = make_system(g, np.diag([2.0, 1.0]), [np.zeros((2, 2))])
    est = estimate_bound(k, sys, probes=32, t_window=window, D=D)
    monkeypatch.setattr(kernels, "_pair_sup", _pair_sup_loop)
    ref = estimate_bound(k, sys, probes=32, t_window=window, D=D)
    assert (est.C_est, est.samples) == (ref.C_est, ref.samples)
    assert est.samples > 0


def test_weighted_applies_A0_inverse():
    g = _grid()
    sys = make_system(g, np.diag([2.0, 4.0]), [np.zeros((2, 2))])
    k = _sep_kernel(g)
    tr = _traj(g, 31)
    plain = k.apply(tr, 0.5)
    wk = weighted(k, sys)
    np.testing.assert_allclose(wk.apply(tr, 0.5),
                               plain @ np.diag([0.5, 0.25]), atol=1e-13)


@given(st.floats(0.01, 10.0), st.floats(0.01, 2.0))
@settings(max_examples=50, deadline=None)
def test_threshold_margin_monotone(C, delta):
    """The smallness margin grows with both the constant and the range."""
    m = threshold_margin(C, delta)
    assert m > 0
    assert threshold_margin(2.0 * C, delta) == pytest.approx(2.0 * m)
    assert threshold_margin(C, 2.0 * delta) == pytest.approx(4.0 * m)
