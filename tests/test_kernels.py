"""Time-kernel application against brute-force quadrature oracles, adjoint
identities, and the bound/threshold arithmetic."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fold_output_op, per_site
from hypnl import kernels
from hypnl.grids import GridError, Trajectory, make_grid, sample_trajectory
from hypnl.kernels import (ConvTerm, KernelError, TimeKernel, adjoint,
                           estimate_bound, make_convolution, make_modulated,
                           make_separable, threshold_margin, weighted)
from hypnl.scenarios import (DiracConfig, _dirac_potentials, dirac_kernel,
                             drude_lorentz, maxwell_kernel)
from hypnl.systems import inner_weight, make_system


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


def _rot_kernel(g, **flags):
    """cos(t - tau) times a rotation of the fiber, as one convolution term."""
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return make_modulated(g, [ConvTerm(None, np.cos, None, (None, rot))],
                          **flags)


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


# DIRECT_MAX_LAGS values that force each path of `TimeKernel._conv_all`
FORCE_PATH = {"fft": 0, "direct": 1 << 30}


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
    # the dense_* cases: the operators these cases once gave as callbacks
    # of all (t, tau) pairs, now single convolution terms
    if name == "dense":
        return make_modulated(g, [ConvTerm(None, np.negative, None)],
                              retarded=True, delta=0.5)
    if name == "dense_identity":
        return make_modulated(g, [ConvTerm(None, lambda z: 1.0, None)],
                              delta=0.5)
    if name == "dense_infinite_range":
        return _rot_kernel(g)
    if name == "dense_advanced_switch_on":
        return _rot_kernel(g, advanced=True, delta=0.5, switch_on=0.75)
    if name == "dense_post":
        return fold_output_op(_rot_kernel(g, delta=0.5),
                              np.array([[1.0, 0.5j], [0.0, 2.0]]))
    if name == "terms_two_sided":
        return make_modulated(g, _terms(g), delta=0.5)
    if name == "terms_retarded_switch_on":
        return make_modulated(g, _terms(g)[1:2], retarded=True, delta=0.625,
                              switch_on=0.25)
    if name == "terms_advanced":
        return make_modulated(g, _terms(g)[2:], advanced=True, delta=0.375)
    if name == "terms_advanced_switch_on":
        return make_modulated(g, _terms(g), advanced=True, delta=0.5,
                              switch_on=0.25)
    if name == "terms_infinite_range":
        return make_modulated(g, _terms(g))
    if name == "terms_adjoint_post":
        post = np.stack([np.array([[1.0 + 0.1 * s, 0.3j], [0.0, 0.5]])
                         for s in range(g.sites)])
        k = make_modulated(g, _terms(g), delta=0.5, switch_on=0.0)
        return adjoint(fold_output_op(k, post))
    raise ValueError(name)


def _terms(g):
    """Three modulated terms: a complex two-sided lag function with time
    factors and a profile times a constant matrix, an unmodulated term with
    the identity M, and a term with only n and a per-site matrix that reads
    one column."""
    x = g.coords()[:, 0]
    per_site = np.zeros((g.sites, 2, 2), complex)
    per_site[:, 0, 1] = 1.0 + 0.5 * np.sin(math.pi * x)
    per_site[:, 1, 1] = 0.25j
    return [
        ConvTerm(lambda t: np.cos(1.3 * t),
                 lambda z: np.exp(-z * z) * (1.0 + 0.4j * z),
                 lambda tau: 0.5 + np.sin(0.7 * tau) * 1j,
                 (1.0 + 0.3 * np.cos(math.pi * x),
                  np.array([[0.0, 1.0], [-2.0j, 0.5]]))),
        ConvTerm(None, lambda z: 1.0 / (1.0 + z * z), None, None),
        ConvTerm(None, lambda z: np.cos(3.0 * z) + 0.2j, np.exp,
                 (None, per_site)),
    ]


@pytest.mark.parametrize("name", [
    "separable", "convolution", "convolution_adjoint", "dense",
    "dense_identity", "dense_infinite_range", "dense_advanced_switch_on",
    "dense_post", "terms_two_sided", "terms_retarded_switch_on",
    "terms_advanced", "terms_advanced_switch_on", "terms_infinite_range",
    "terms_adjoint_post"])
def test_apply_all_matches_oracle(monkeypatch, name):
    """Convolution cases are checked on each path of `_conv_all` as well."""
    g = _grid()
    k = _oracle_case(name, g)
    tr = _traj(g, 15, index0=-3)
    _assert_matches_oracle(k, tr, atol=1e-11)
    if k.kind == "convolution":
        for bound in FORCE_PATH.values():
            monkeypatch.setattr(kernels, "DIRECT_MAX_LAGS", bound)
            _assert_matches_oracle(k, tr, atol=1e-11)


@pytest.mark.parametrize("d", [0, 6, 20])
@pytest.mark.parametrize("name", [
    "separable", "convolution", "convolution_adjoint", "dense_identity",
    "dense_infinite_range", "dense_advanced_switch_on", "dense_post",
    "terms_two_sided", "terms_retarded_switch_on", "terms_advanced",
    "terms_advanced_switch_on", "terms_infinite_range", "terms_adjoint_post"])
def test_pair_band_matches_pair_apply(name, d):
    """pair_band against dv <psi_i, pair_apply(t_i, t_{i+l}) psi_{i+l}>,
    pair by pair: the admitted lags match, all others (outside the flags or
    past the last frame) are 0. d = 20 runs past the trajectory."""
    g = _grid()
    k = _oracle_case(name, g)
    tr = _traj(g, 18, index0=-3)
    band = k.pair_band(tr, d)
    assert band.shape == (d + 1, tr.n_frames)
    ref = np.zeros_like(band)
    for i in range(tr.n_frames):
        for lag in range(min(d, tr.n_frames - 1 - i) + 1):
            j = i + lag
            bv = k.pair_apply(tr.time(i), tr.time(j), tr.values[j])
            ref[lag, i] = np.vdot(tr.values[i], bv) * g.cell_volume
    assert np.any(ref)
    np.testing.assert_allclose(band, ref, rtol=0,
                               atol=1e-13 * np.max(np.abs(ref)))
    np.testing.assert_array_equal(band[ref == 0], 0.0)


def test_pair_band_chunks_hold_every_lag(monkeypatch):
    """Convolution bands taken in frame chunks of d + 1 (the least allowed)
    match one chunk over all frames."""
    g = _grid()
    k = _oracle_case("terms_two_sided", g)
    tr = _traj(g, 19, index0=-3, n=40)
    whole = k.pair_band(tr, 6)
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1)
    np.testing.assert_allclose(k.pair_band(tr, 6), whole, rtol=0,
                               atol=1e-14 * np.max(np.abs(whole)))


def test_apply_is_one_frame_of_apply_all():
    g = _grid()
    k = _rot_kernel(g, delta=0.5)
    tr = _traj(g, 16)
    np.testing.assert_array_equal(k.apply(tr, 0.75), k.apply_all(tr)[6])
    with pytest.raises(GridError):
        k.apply(tr, 0.3)


# ---------------------------------------------------------------------------
# convolution terms

def test_pair_apply_evaluates_terms():
    g = _grid()
    terms = _terms(g)
    k = make_modulated(g, terms, delta=0.5)
    v = _traj(g, 17).values[3]
    t, tau = 0.5, 0.125
    expect = np.zeros_like(v)
    for m, c, n, (prof, mat) in (terms[0], terms[2]):
        s = c(np.array([tau - t]))[0] * (1.0 if m is None else m(t)) \
            * (1.0 if n is None else n(tau))
        mv = (v @ mat.T if mat.ndim == 2
              else np.einsum("sfg,sg->sf", mat, v))
        expect += s * (mv if prof is None else mv * prof[:, None])
    expect += terms[1].c(tau - t) * v
    np.testing.assert_allclose(k.pair_apply(t, tau, v), expect,
                               rtol=0, atol=1e-14)
    assert not np.any(k.pair_apply(0.0, 0.75, v))      # outside delta


def test_adjoint_of_terms_is_pointwise_adjoint():
    """<a, B^+_{t,tau} b> = <B_{tau,t} a, b> at every sampled pair, for a
    multi-term kernel with a per-site output operator folded in."""
    g = _grid()
    post = np.stack([np.array([[2.0, 0.5j], [0.1 * s, 1.0]])
                     for s in range(g.sites)])
    k = fold_output_op(make_modulated(g, _terms(g), delta=0.75), post)
    ka = adjoint(k)
    a, b = _traj(g, 18).values[:2]
    for t, tau in ((0.25, 0.5), (0.5, 0.25), (-0.3, 0.1), (1.0, 1.0)):
        lhs = np.vdot(a, ka.pair_apply(t, tau, b))
        rhs = np.vdot(k.pair_apply(tau, t, a), b)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))
    tr = _traj(g, 19)
    np.testing.assert_allclose(adjoint(ka).apply_all(tr), k.apply_all(tr),
                               rtol=0, atol=1e-12)


def _dirac_dense_op(cfg, grid):
    """The Dirac kernel as the dense callback it was before it had a term
    form: every potential evaluated at the midpoint (t + tau) / 2, one
    envelope and window table per call."""
    from hypnl.scenarios import _dirac_sup_C
    pots = _dirac_potentials(cfg)
    scale = cfg.target_margin / threshold_margin(
        _dirac_sup_C(cfg, pots, grid), cfg.delta)
    x = grid.coords()[:, 0]

    def op(t, tau, values):
        out = np.zeros_like(values)
        mid, z = 0.5 * (t + tau), tau - t
        for amp, om, sp, window, gam in pots:
            env = amp * np.cos(om * mid)[:, None] * sp(x)[None, :]
            fac = scale * env * window(z)[:, None]          # (P, sites)
            term = values @ gam.T
            np.multiply(fac[..., None], term, out=term)
            out += term
        return out

    return op


def _pair_trapezoid(op, tr, delta):
    """The trapezoid of a callback op(t, tau, values) over the tau frames
    within delta of each output frame, one (t, tau) pair at a time."""
    d = int(math.floor(delta / tr.dt + 1e-9))
    times = tr.times()
    out = np.zeros_like(tr.values)
    for i in range(tr.n_frames):
        j0, j1 = max(0, i - d), min(tr.n_frames - 1, i + d)
        for j in range(j0, j1 + 1):
            w = tr.dt * (0.5 if j in (j0, j1) else 1.0)
            out[i] += w * op(times[i:i + 1], times[j:j + 1],
                             tr.values[j:j + 1])[0]
    return out


def _assert_frames_close(got, ref, rel):
    """Every frame within rel of that frame's maximum modulus."""
    for i in range(len(ref)):
        scale = float(np.max(np.abs(ref[i])))
        np.testing.assert_allclose(got[i], ref[i], rtol=0, atol=rel * scale)


@pytest.mark.parametrize("n_pot,delta,index0", [(2, 0.25, -40), (1, 0.3, 7),
                                                (2, 0.1, 0)])
def test_dirac_kernel_matches_dense_op(n_pot, delta, index0):
    """The term form of the Dirac kernel against the old dense callback
    through a per-pair trapezoid: every frame, the ends included, within
    1e-12 of the frame's maximum; pair_apply and the adjoint (whose callback
    is -op: the kernel is anti-Hermitian) likewise."""
    cfg = DiracConfig(points=64, n_pot=n_pot, delta=delta, T=0.5)
    grid = make_grid(1, cfg.extent, cfg.points, 2)
    kern, _ = dirac_kernel(cfg, grid)
    op = _dirac_dense_op(cfg, grid)
    dt = cfg.cfl * grid.spacing
    tr = _traj(grid, 41, dt=dt, index0=index0, n=90)
    _assert_frames_close(kern.apply_all(tr), _pair_trapezoid(op, tr, delta),
                         1e-12)
    _assert_frames_close(adjoint(kern).apply_all(tr),
                         _pair_trapezoid(lambda t, tau, v: -op(t, tau, v),
                                         tr, delta), 1e-12)
    v = tr.values[5]
    for t, tau in ((0.1, 0.1 + 0.9 * delta), (1.3, 1.3 - 0.5 * delta),
                   (-0.4, -0.4)):
        ref = op(np.array([t]), np.array([tau]), v[None])[0]
        np.testing.assert_allclose(kern.pair_apply(t, tau, v), ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))


def _chunk_case(case):
    """(kernel, trajectory) of the site-chunking tests."""
    if case == "dirac":
        cfg = DiracConfig(points=64, delta=0.25)
        g = make_grid(1, cfg.extent, cfg.points, 2)
        return (dirac_kernel(cfg, g)[0],
                _traj(g, 51, dt=cfg.cfl * g.spacing, index0=-20, n=120))
    if case == "terms":
        g = _grid()
        return make_modulated(g, _terms(g), delta=0.5), _traj(g, 52, index0=-3)
    g = make_grid(3, 1.0, 8, 6)
    return (maxwell_kernel(g, drude_lorentz(0.4, 1.0, 2.0)[1]),
            _traj(g, 53, dt=0.05, n=40))


@pytest.mark.parametrize("case", ["dirac", "terms", "maxwell"])
def test_chunked_fft_is_bitwise_one_pass(monkeypatch, case):
    """Transforming the columns a few sites at a time gives the bytes of one
    pass over all sites (the FFT path)."""
    monkeypatch.setattr(kernels, "DIRECT_MAX_LAGS", FORCE_PATH["fft"])
    k, tr = _chunk_case(case)
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1 << 40)
    one_pass = k.apply_all(tr)
    for budget in (1, 3 * 16 * 64, 16 * 128 * 7):
        monkeypatch.setattr(kernels, "CHUNK_BYTES", budget)
        assert np.array_equal(k.apply_all(tr), one_pass)


# the direct path's products in site chunks against one pass: BLAS rounds
# the edge columns of a product differently when the column count changes
DIRECT_CHUNK_RTOL = 1e-14


@pytest.mark.parametrize("case", ["dirac", "terms", "maxwell"])
def test_chunked_direct_matches_one_pass(monkeypatch, case):
    """The direct path a few sites at a time agrees with one pass over all
    sites within DIRECT_CHUNK_RTOL of the largest output modulus."""
    monkeypatch.setattr(kernels, "DIRECT_MAX_LAGS", FORCE_PATH["direct"])
    k, tr = _chunk_case(case)
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1 << 40)
    one_pass = k.apply_all(tr)
    for budget in (1, 3 * 16 * 64, 16 * 128 * 7):
        monkeypatch.setattr(kernels, "CHUNK_BYTES", budget)
        np.testing.assert_allclose(
            k.apply_all(tr), one_pass, rtol=0,
            atol=DIRECT_CHUNK_RTOL * np.max(np.abs(one_pass)))


def _trapezoid_loop(k, tr):
    """apply_all of a convolution kernel as the plain trapezoid sum, one
    output frame, tau frame and term at a time, the scalar factors sampled
    one time each."""
    j0, j1 = k._slice_arrays(tr)
    out = np.zeros_like(tr.values)
    for i in range(tr.n_frames):
        if j1[i] <= j0[i]:
            continue
        t = tr.time(i)
        for j in range(j0[i], j1[i] + 1):
            w = tr.dt * (0.5 if j in (j0[i], j1[i]) else 1.0)
            tau = tr.time(j)
            for m, c, n, M in k.data["terms"]:
                s = w * complex(c(np.array([tau - t]))[0])
                s *= 1.0 if m is None else complex(m(np.array([t]))[0])
                s *= 1.0 if n is None else complex(n(np.array([tau]))[0])
                if M is None:
                    mv = tr.values[j]
                else:
                    mv = np.einsum("sfg,sg->sf", per_site(k.grid, M[1]),
                                   tr.values[j])
                    mv = mv if M[0] is None else mv * M[0][:, None]
                out[i] += s * mv
    return out


# the direct path against the plain trapezoid loop: the same products,
# summed in another order
DIRECT_LOOP_RTOL = 1e-14


@pytest.mark.parametrize("name", [
    "convolution", "convolution_adjoint", "terms_two_sided",
    "terms_retarded_switch_on", "terms_advanced", "terms_infinite_range",
    "terms_adjoint_post"])
def test_direct_path_is_the_trapezoid_sum(monkeypatch, name):
    """Within DIRECT_LOOP_RTOL of the largest output modulus."""
    monkeypatch.setattr(kernels, "DIRECT_MAX_LAGS", FORCE_PATH["direct"])
    g = _grid()
    k = _oracle_case(name, g)
    tr = _traj(g, 57, index0=-3, n=30)
    ref = _trapezoid_loop(k, tr)
    np.testing.assert_allclose(k.apply_all(tr), ref, rtol=0,
                               atol=DIRECT_LOOP_RTOL * np.max(np.abs(ref)))


def _benchmark_shape(case):
    """(kernel, trajectory) at a benchmark workload's shape: the Dirac kernel
    on 256 sites with delta 0.125 over 286 frames (41 lags), or Maxwell's
    retarded memory on a 16^3 grid over 32 frames (32 lags)."""
    if case == "dirac":
        cfg = DiracConfig(points=256, delta=0.125)
        g = make_grid(1, cfg.extent, cfg.points, 2)
        return (dirac_kernel(cfg, g)[0],
                _traj(g, 58, dt=cfg.cfl * g.spacing, index0=-20, n=286))
    g = make_grid(3, 1.0, 16, 6)
    return (maxwell_kernel(g, drude_lorentz(0.4, 1.0, 2.0)[1]),
            _traj(g, 59, dt=0.05, n=32))


# the direct and FFT paths on the same sum: different roundings
PATHS_AGREE_RTOL = 1e-13


@pytest.mark.parametrize("case", ["dirac", "maxwell"])
def test_direct_and_fft_paths_agree_on_benchmark_shapes(monkeypatch, case):
    """Within PATHS_AGREE_RTOL of the largest output modulus."""
    k, tr = _benchmark_shape(case)
    got = {}
    for path, bound in FORCE_PATH.items():
        monkeypatch.setattr(kernels, "DIRECT_MAX_LAGS", bound)
        got[path] = k.apply_all(tr)
    np.testing.assert_allclose(
        got["direct"], got["fft"], rtol=0,
        atol=PATHS_AGREE_RTOL * np.max(np.abs(got["fft"])))


@pytest.mark.parametrize("path", sorted(FORCE_PATH))
@pytest.mark.parametrize("name", ["convolution", "terms_retarded_switch_on"])
def test_frames_before_switch_on_are_not_read(monkeypatch, path, name):
    """A NaN or inf in the frames before the switch-on reaches no output:
    each path gives the bytes it gives with those frames finite."""
    monkeypatch.setattr(kernels, "DIRECT_MAX_LAGS", FORCE_PATH[path])
    g = _grid()
    k = _oracle_case(name, g)
    tr = _traj(g, 60, index0=-3)
    j_first = int(np.min(k._slice_arrays(tr)[0]))
    assert j_first > 1
    poisoned = tr.values.copy()
    poisoned[0] = np.nan
    poisoned[j_first - 1] = np.inf
    got = k.apply_all(Trajectory(g, tr.dt, tr.index0, poisoned))
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, k.apply_all(tr))


# ---------------------------------------------------------------------------
# separable kernels read only the frames on their profiles' spans

def _separable_full(k, tr, d=None):
    """Reference for the separable branches of apply_all (d None) and
    pair_band (lag count d): the full-frame formulas, which read every
    frame of each profile and of tr."""
    F, dv = tr.n_frames, k.grid.cell_volume
    j0, j1 = k._slice_arrays(tr)
    pairs = [(kernels._profile_frames(g_tr, tr),
              kernels._profile_frames(h_tr, tr))
             for g_tr, h_tr in zip(k.data["g"], k.data["h"])]
    if d is not None:
        band = np.zeros((d + 1, F), dtype=complex)
        for gv, hv in pairs:
            u = np.einsum("tsf,tsf->t", np.conj(tr.values), gv)
            v = np.einsum("tsf,tsf->t", np.conj(hv), tr.values) * dv
            for lag in range(min(d, F - 1) + 1):
                band[lag, :F - lag] += u[:F - lag] * v[lag:]
        band *= dv
        j = np.arange(F) + np.arange(d + 1)[:, None]
        band[(j < j0) | (j > j1)] = 0.0
        return band
    out = np.zeros((F, k.grid.sites, k.grid.fiber), dtype=complex)
    live = j1 > j0
    if not np.any(live):
        return out
    j0c, j1c = np.clip(j0, 0, F - 1), np.clip(j1, 0, F - 1)
    for gv, hv in pairs:
        c = np.einsum("tsf,tsf->t", np.conj(hv), tr.values) * dv
        P = np.concatenate([[0.0 + 0.0j], np.cumsum(c)])
        s = P[j1c + 1] - P[j0c] - 0.5 * c[j0c] - 0.5 * c[j1c]
        s = np.where(live, s, 0.0) * tr.dt
        out += s[:, None, None] * gv
    return out


# (flags, g frames, h frames) on a 40-frame profile lattice from index -6;
# the trajectory holds its frames 3..32, so "wide" reaches past both ends
# and "edges" starts g and ends h on the trajectory's first and last frame.
# Pair a of a rank-r kernel keeps frames lo + a .. hi - a; None is all zero
SPAN_CASES = {
    "wide": ({}, (0, 39), (0, 39)),
    "edges": ({}, (3, 20), (20, 32)),
    "retarded": ({"retarded": True}, (15, 30), (5, 15)),
    "delta": ({"delta": 1.0}, (10, 16), (12, 18)),
    "switch_on": ({"switch_on": 0.75}, (0, 39), (12, 25)),
    "zero_g": ({}, None, (5, 20)),
    "zero_h": ({}, (5, 20), None),
}


def _span_kernel(name, rank, fiber):
    """A rank-r separable kernel with random profiles on the frames of a
    SPAN_CASES entry (pair 0 all zero on a None side, the others on the
    'wide' frames), its grid, and a trajectory on frames -3..26."""
    flags, g_frames, h_frames = SPAN_CASES[name]
    g = make_grid(1, 2.0, 8, fiber)
    rng = np.random.default_rng(np.random.Philox(rank * 10 + fiber))
    prof = {"g": [], "h": []}
    for side, frames in (("g", g_frames), ("h", h_frames)):
        for a in range(rank):
            vals = (rng.standard_normal((40, g.sites, fiber))
                    + 1j * rng.standard_normal((40, g.sites, fiber)))
            lo, hi = (0, -1) if frames is None and a == 0 else (
                (0, 39) if frames is None else (frames[0] + a, frames[1] - a))
            vals[:lo] = 0.0
            vals[hi + 1:] = 0.0
            prof[side].append(Trajectory(g, 0.125, -6, vals))
    return (g, make_separable(prof["g"], prof["h"], **flags),
            _traj(g, 70 + rank, index0=-3, n=30))


def _span_variants(k, g):
    """k, its adjoint (advanced where k is retarded), and k with a
    per-site output operator and with the weighted (f, f) one folded in."""
    f = g.fiber
    post = np.stack([np.eye(f) * (1.0 + 0.1 * s) + 0.3j * np.eye(f, k=1)
                     for s in range(g.sites)])
    A0 = np.eye(f) * 2.0 + 0.5j * (np.eye(f, k=1) - np.eye(f, k=-1))
    return {"plain": k, "adjoint": adjoint(k),
            "post": fold_output_op(k, post),
            "weighted": weighted(k, make_system(g, A0, [np.zeros((f, f))]))}


@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("name", sorted(SPAN_CASES))
def test_separable_spans_match_full_frames(name, rank, fiber):
    """apply_all and pair_band on the profile spans equal the full-frame
    formulas bitwise, for every flag, with and without an output
    operator folded in."""
    g, k, tr = _span_kernel(name, rank, fiber)
    for variant, kv in _span_variants(k, g).items():
        assert np.array_equal(kv.apply_all(tr), _separable_full(kv, tr)), \
            variant
        for d in (0, 5, 40):
            assert np.array_equal(kv.pair_band(tr, d),
                                  _separable_full(kv, tr, d)), (variant, d)


@pytest.mark.parametrize("name", sorted(SPAN_CASES))
def test_separable_constructors_carry_spans(name):
    """make_separable takes each profile's exact nonzero span; the adjoint
    and the weighted kernel carry spans that hold every nonzero frame of
    their profiles."""
    g, k, _ = _span_kernel(name, 3, 2)
    for p, span in zip(k.data["g"] + k.data["h"],
                       k.data["g_span"] + k.data["h_span"]):
        live = np.flatnonzero(np.any(p.values != 0, axis=(1, 2)))
        assert span == (None if live.size == 0 else
                        (p.index0 + live[0], p.index0 + live[-1]))
    for variant, kv in _span_variants(k, g).items():
        for side in ("g", "h"):
            for p, span in zip(kv.data[side], kv.data[side + "_span"]):
                live = p.index0 + np.flatnonzero(
                    np.any(p.values != 0, axis=(1, 2)))
                if span is None:
                    assert live.size == 0, variant
                else:
                    assert np.all((live >= span[0]) & (live <= span[1])), \
                        variant
    ka = adjoint(k)
    assert ka.data["g_span"] == k.data["h_span"]
    assert ka.data["h_span"] == k.data["g_span"]


def test_frames_outside_the_spans_are_not_read():
    """A NaN or inf in frames where the profiles are zero reaches no output
    of apply_all or pair_band: each gives the bytes it gives with those
    frames finite (the full-frame formulas spread them, as 0 * NaN)."""
    g = _grid()
    k = _oracle_case("separable", g)
    tr = _traj(g, 60, index0=-3)
    lo, hi = k.data["h_span"][0]
    assert k.data["g_span"][0] == (lo, hi)
    assert lo - tr.index0 > 0 and hi - tr.index0 < tr.n_frames - 1
    poisoned = tr.values.copy()
    poisoned[0] = np.nan
    poisoned[hi - tr.index0 + 1] = np.inf
    bad = Trajectory(g, tr.dt, tr.index0, poisoned)
    got = k.apply_all(bad)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, k.apply_all(tr))
    band = k.pair_band(bad, 6)
    assert np.all(np.isfinite(band))
    assert np.array_equal(band, k.pair_band(tr, 6))
    with np.errstate(invalid="ignore"):
        assert not np.all(np.isfinite(_separable_full(k, bad)))


@pytest.mark.parametrize("lags,path", [(kernels.DIRECT_MAX_LAGS, "direct"),
                                       (kernels.DIRECT_MAX_LAGS + 1, "fft")])
def test_lag_count_picks_the_path(monkeypatch, lags, path):
    """A window of at most DIRECT_MAX_LAGS admitted lags takes the direct
    path, one more lag the FFT path."""
    taken = []
    for name in ("_conv_direct", "_conv_fft"):
        monkeypatch.setattr(kernels.TimeKernel, name,
                            lambda *args, name=name: taken.append(name))
    g = _grid()
    k = make_convolution(lambda u: math.exp(-u), None, g,
                         delta_eff=(lags - 1) * 0.125)
    k.apply_all(_traj(g, 61, n=lags + 10))
    assert taken == ["_conv_" + path]


def test_unread_columns_are_not_transformed():
    """Columns M never reads do not enter the output: filling them with NaN
    leaves the output bitwise unchanged (a transformed NaN column would
    spread through the fiber product)."""
    g = make_grid(1, 2.0, 16, 3)
    mat = np.array([[1.0, 0.0, 2.0], [0.5j, 0.0, 0.0], [0.0, 0.0, 1.0]])
    k = make_modulated(g, [ConvTerm(np.cos, lambda z: np.exp(-z * z), None,
                                    (None, mat))], delta=0.5)
    tr = _traj(g, 54)
    ref = k.apply_all(tr)
    poisoned = tr.values.copy()
    poisoned[:, :, 1] = np.nan
    got = k.apply_all(Trajectory(g, tr.dt, tr.index0, poisoned))
    assert np.array_equal(got, ref)
    _assert_matches_oracle(k, tr)
    # the Maxwell projector reads the E columns only
    g6 = make_grid(1, 2.0, 8, 6)
    km = maxwell_kernel(g6, drude_lorentz(0.4, 1.0, 2.0)[1])
    tr6 = _traj(g6, 55)
    poisoned = tr6.values.copy()
    poisoned[:, :, 3:] = np.inf
    assert np.array_equal(
        km.apply_all(Trajectory(g6, tr6.dt, tr6.index0, poisoned)),
        km.apply_all(tr6))


def _old_conv_all(k, chi_dot, projector, tr, conj=False):
    """The one-term FFT integrator of memory kernels before they became sums
    of terms: chi_dot on the lags 0..F-1, an advanced kernel as the retarded
    convolution of the time-reversed frames, all columns transformed at
    once, the projector applied after."""
    F = tr.n_frames
    j0, j1 = k._slice_arrays(tr)
    live = j1 > j0
    chi = np.asarray([chi_dot(float(u)) for u in np.arange(F) * tr.dt],
                     dtype=complex)
    if conj:
        chi = np.conj(chi)
    if math.isfinite(k.delta):
        chi[int(math.floor(k.delta / tr.dt + 1e-9)) + 1:] = 0.0
    psi = tr.values.copy()
    psi[:int(np.min(j0[live]))] = 0.0
    if k.advanced:
        psi = psi[::-1]
    n_fft = 1
    while n_fft < 2 * F:
        n_fft *= 2
    conv = np.fft.ifft(np.fft.fft(psi, n=n_fft, axis=0)
                       * np.fft.fft(chi, n=n_fft)[:, None, None], axis=0)[:F]
    if k.advanced:
        conv = conv[::-1]
    i = np.arange(F)
    j0c, j1c = np.clip(j0, 0, F - 1), np.clip(j1, 0, F - 1)
    corr = (0.5 * chi[np.abs(i - j0c)][:, None, None] * tr.values[j0c]
            + 0.5 * chi[np.abs(j1c - i)][:, None, None] * tr.values[j1c])
    out = (conv - corr) * tr.dt
    out[~live] = 0.0
    proj = None if projector is None else np.asarray(projector, complex)
    return out if proj is None else out @ proj.T


# Maxwell's one-term path against the old integrator: the FFT length and the
# transformed columns differ, so the sums round differently
MAXWELL_OLD_PATH_RTOL = 1e-14


@pytest.mark.parametrize("dim,points,delta_eff,n,adj", [
    (1, 16, math.inf, 60, False), (1, 16, 0.4, 60, False),
    (3, 8, math.inf, 41, False), (1, 16, math.inf, 60, True),
    (3, 8, 0.3, 41, True)])
def test_maxwell_term_matches_old_conv_all(monkeypatch, dim, points,
                                          delta_eff, n, adj):
    """Within MAXWELL_OLD_PATH_RTOL of the largest output modulus, on each
    path of `_conv_all`."""
    g = make_grid(dim, 1.0, points, 6)
    chi_dot = drude_lorentz(0.4, 1.0, 2.0)[1]
    k = maxwell_kernel(g, chi_dot, delta_eff=delta_eff)
    proj = np.zeros((6, 6))
    proj[:3, :3] = -np.eye(3)
    tr = _traj(g, 56, dt=0.05, index0=-4, n=n)
    if adj:
        k = adjoint(k)
        proj = proj.T
    ref = _old_conv_all(k, chi_dot, proj, tr, conj=adj)
    for bound in FORCE_PATH.values():
        monkeypatch.setattr(kernels, "DIRECT_MAX_LAGS", bound)
        got = k.apply_all(tr)
        np.testing.assert_allclose(
            got, ref, rtol=0, atol=MAXWELL_OLD_PATH_RTOL * np.max(np.abs(ref)))


def test_make_modulated_rejects_bad_terms():
    g = _grid()
    c = lambda z: np.exp(-z * z)
    with pytest.raises(KernelError):
        make_modulated(g, [])
    with pytest.raises(KernelError):
        make_modulated(g, [ConvTerm(None, 1.0, None, None)])
    with pytest.raises(KernelError):
        make_modulated(g, [ConvTerm(None, c, None, (np.ones(3), None))])
    with pytest.raises(KernelError):
        make_modulated(g, [ConvTerm(None, c, None, (None, np.eye(3)))])
    k = make_convolution(lambda u: 1.0, np.eye(2), g)
    assert list(k.data) == ["terms"] and len(k.data["terms"]) == 1


def test_fft_len_is_smallest_5_smooth():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1
    for n in range(1, 700):
        got = kernels._fft_len(n)
        assert got >= n and smooth(got)
        assert not any(smooth(m) for m in range(n, got))


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


def test_unknown_kernel_kind_is_refused():
    with pytest.raises(KernelError, match="unknown kernel kind 'dense'"):
        TimeKernel(grid=_grid(), kind="dense", data={})


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
    est = estimate_bound(k, sys)
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
    e1 = estimate_bound(k, sys, t_window=(0.0, 1.0), seed=5)
    e2 = estimate_bound(k, sys, t_window=(0.0, 1.0), seed=5)
    assert e1.C_est == e2.C_est and e1.samples == e2.samples


def _window_frames(times, t_window):
    """The frames of a profile lattice in a time window, by the filter
    estimate_bound once applied."""
    if t_window is None:
        return np.arange(len(times))
    return np.flatnonzero((times >= t_window[0] - 1e-12)
                          & (times <= t_window[1] + 1e-12))


def _frame_range(idx):
    """(a, b) of the consecutive frames idx, (0, 0) for none."""
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


def _pair_sup_loop(V, Gg, Hh, lattice, a, b, D):
    """Reference for kernels._pair_sup: the per-pair double loop over the
    frames [a, b), one _admissible call per pair."""
    times = lattice.times()
    best, n = 0.0, 0
    for i in range(a, b):
        t = float(times[i])
        for j in range(a, b):
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


def _admissible_mask(V, t, tau):
    """The float rule the kernels once decided lattice pairs by: whether
    the flags admit each (t, tau) pair, arrays broadcast."""
    eps = 1e-12 * (1.0 + np.abs(t) + np.abs(tau))
    ok = np.ones(np.broadcast(t, tau).shape, dtype=bool)
    if V.retarded:
        ok &= ~(tau > t + eps)
    if V.advanced:
        ok &= ~(tau < t - eps)
    if math.isfinite(V.delta):
        ok &= ~(np.abs(t - tau) > V.delta + eps)
    if math.isfinite(V.switch_on):
        ok &= ~(tau < V.switch_on - eps)
    return ok


def _pair_sup_mask(V, Gg, Hh, times, idx, D):
    """Reference for kernels._pair_sup: the float admissibility mask of all
    pairs of the frames idx, as _pair_sup computed it before it read the
    frame ranges of _slice_arrays."""
    t = times[idx]
    ok = _admissible_mask(V, t[:, None], t[None, :])
    rows = np.flatnonzero(np.any(Gg[idx] != 0, axis=(1, 2)))
    cols = np.flatnonzero(np.any(Hh[idx] != 0, axis=(1, 2)))
    ii, jj = np.nonzero(ok[rows][:, cols])
    count = int(np.count_nonzero(ok))
    if ii.size == 0:
        return 0.0, count
    gi, hj = Gg[idx[rows[ii]]], Hh[idx[cols[jj]]]
    if Gg.shape[1] == 1:
        sq = (gi[:, 0, 0] * hj[:, 0, 0]).real
    else:
        sq = np.max(np.linalg.eigvals(gi @ hj).real, axis=-1)
    decay = np.array([math.exp(-D * abs(float(tau)) / 2.0)
                      for tau in t[cols]])
    return float(np.max(np.sqrt(np.maximum(sq, 0.0)) / decay[jj])), count


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


def _pair_sup_case(rank, flags, window):
    """(k, Gg, Hh, a, b) with random Hermitian Gram data per frame on the
    profile lattice k.data["g"][0] and the window frames [a, b)."""
    _, k = _separable_case(rank, flags)
    rng = np.random.default_rng(np.random.Philox(7))
    F = k.data["g"][0].n_frames
    m = rng.standard_normal((2, F, rank, rank)) \
        + 1j * rng.standard_normal((2, F, rank, rank))
    Gg, Hh = (np.einsum("tab,tcb->tac", x, x.conj()) for x in m)
    a, b = (0, F) if window is None else (3, F - 5)
    return k, Gg, Hh, a, b


@pytest.mark.parametrize("rank,flags,D,window", SEPARABLE_BOUND_CASES)
def test_pair_sup_matches_loop_bitwise(rank, flags, D, window):
    from hypnl.kernels import _pair_sup
    k, Gg, Hh, a, b = _pair_sup_case(rank, flags, window)
    lattice = k.data["g"][0]
    assert _pair_sup(k, Gg, Hh, lattice, a, b, D) \
        == _pair_sup_loop(k, Gg, Hh, lattice, a, b, D)


@pytest.mark.parametrize("rank,flags,D,window", SEPARABLE_BOUND_CASES)
def test_pair_sup_with_zero_frames_matches_loop_bitwise(rank, flags, D,
                                                        window):
    """Gg zero on the first third of the frames and Hh on the second half,
    where _pair_sup takes no norm: the sup and the count of every
    admissible pair are still the loop's."""
    from hypnl.kernels import _pair_sup
    k, Gg, Hh, a, b = _pair_sup_case(rank, flags, window)
    F = len(Gg)
    Gg[:F // 3] = 0.0
    Hh[F // 2:] = 0.0
    lattice = k.data["g"][0]
    assert _pair_sup(k, Gg, Hh, lattice, a, b, D) \
        == _pair_sup_loop(k, Gg, Hh, lattice, a, b, D)


# flags of the lattice-rule test: every flag alone and combined, ranges and
# switch-on times on the frame lattice (dt = 0.125) and off it
LATTICE_FLAGS = [
    {}, {"retarded": True}, {"advanced": True},
    {"retarded": True, "advanced": True},
    {"delta": 0.5}, {"delta": 0.3}, {"delta": 0.0625},
    {"switch_on": 0.25}, {"switch_on": 0.3}, {"switch_on": 5.0},
    {"retarded": True, "delta": 0.375, "switch_on": -0.2},
    {"advanced": True, "delta": 0.6, "switch_on": 0.5},
    {"retarded": True, "advanced": True, "delta": 0.25, "switch_on": 0.0},
]

# time windows on the lattice, off it, past its ends, and holding no frame
LATTICE_WINDOWS = [None, (-0.5, 1.0), (-0.43, 0.91), (1.0, 9.0),
                   (5.0, 6.0), (0.3, 0.32)]


@pytest.mark.parametrize("zero_frames", [False, True])
@pytest.mark.parametrize("t_window", LATTICE_WINDOWS)
@pytest.mark.parametrize("flags", LATTICE_FLAGS)
def test_pair_sup_lattice_rule_matches_float_mask(flags, t_window,
                                                  zero_frames):
    """The frame ranges of _slice_arrays admit the pairs the float mask
    admitted: sup and count are bitwise the mask's, rank 1 and 2, with and
    without zero Gram frames; a window that holds no frame gives (0.0, 0)."""
    from hypnl.kernels import _pair_sup
    for rank in (1, 2):
        k, Gg, Hh, _, _ = _pair_sup_case(rank, {}, None)
        V = dataclasses.replace(k, **flags)
        if zero_frames:
            Gg[:len(Gg) // 3] = 0.0
            Hh[len(Hh) // 2:] = 0.0
        lattice = V.data["g"][0]
        idx = _window_frames(lattice.times(), t_window)
        got = _pair_sup(V, Gg, Hh, lattice, *_frame_range(idx), 0.4)
        assert got == _pair_sup_mask(V, Gg, Hh, lattice.times(), idx, 0.4)
        if idx.size == 0:
            assert got == (0.0, 0)


def _assert_admissible_is_lattice_rule(k, tr):
    """k._admissible at every pair of frame times of tr admits exactly the
    tau frames [j0, j1] of k._slice_arrays(tr)."""
    j0, j1 = k._slice_arrays(tr)
    times = tr.times()
    for i in range(tr.n_frames):
        got = [k._admissible(float(times[i]), float(times[j]))
               for j in range(tr.n_frames)]
        assert got == [j0[i] <= j <= j1[i] for j in range(tr.n_frames)], i


@pytest.mark.parametrize("flags", LATTICE_FLAGS)
def test_admissible_agrees_with_the_lattice_rule(flags):
    """On a lattice whose step and start are not binary fractions the scalar
    test admits the pairs _slice_arrays does; the ranges are scaled to the
    step."""
    g = _grid()
    scaled = {key: val * 0.8 if key in ("delta", "switch_on") else val
              for key, val in flags.items()}
    _assert_admissible_is_lattice_rule(
        dataclasses.replace(_rot_kernel(g), **scaled),
        _traj(g, 34, dt=0.1, index0=3, n=40))


@pytest.mark.parametrize("shift", [-1e-14, 1e-14])
def test_admissible_rounds_like_the_lattice_rule(shift):
    """A range or a switch-on a round-off away from a lattice value admits
    the frames the lattice rule does, in both directions."""
    g = _grid()
    tr = _traj(g, 35, dt=0.1, index0=3, n=30)
    for flags in ({"delta": 4 * tr.dt + shift},
                  {"switch_on": float(tr.times()[10]) + shift},
                  {"retarded": True, "delta": 3 * tr.dt + shift}):
        _assert_admissible_is_lattice_rule(
            dataclasses.replace(_rot_kernel(g), **flags), tr)


@pytest.mark.parametrize("t_window", LATTICE_WINDOWS)
def test_estimate_bound_takes_the_window_frames(monkeypatch, t_window):
    """estimate_bound hands _pair_sup the frames the time window holds; a
    window that holds no profile frame gives C_est 0 and no samples."""
    g, k = _separable_case(2, {"delta": 1.0})
    sys = make_system(g, np.eye(2), [np.zeros((2, 2))])
    est = estimate_bound(k, sys, t_window=t_window, D=0.3)
    idx = _window_frames(k.data["g"][0].times(), t_window)
    seen = []
    pair_sup = kernels._pair_sup

    def recording(V, Gg, Hh, lattice, a, b, D):
        seen.append((a, b))
        return pair_sup(V, Gg, Hh, lattice, a, b, D)
    monkeypatch.setattr(kernels, "_pair_sup", recording)
    estimate_bound(k, sys, t_window=t_window, D=0.3)
    assert np.array_equal(np.arange(*seen[0]), idx)
    if idx.size == 0:
        assert (est.C_est, est.samples) == (0.0, 0)
    else:
        assert est.samples > 0


@pytest.mark.parametrize("rank,flags,D,window", SEPARABLE_BOUND_CASES)
def test_estimate_bound_separable_matches_loop(monkeypatch, rank, flags, D,
                                               window):
    """C_est and samples are bitwise those of the per-pair loop."""
    from hypnl import kernels
    g, k = _separable_case(rank, flags)
    sys = make_system(g, np.diag([2.0, 1.0]), [np.zeros((2, 2))])
    est = estimate_bound(k, sys, t_window=window, D=D)
    monkeypatch.setattr(kernels, "_pair_sup", _pair_sup_loop)
    ref = estimate_bound(k, sys, t_window=window, D=D)
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


# ---------------------------------------------------------------------------
# the bound constant against the per-site forms it replaced

def _old_weight_transforms(sys):
    """W^{1/2}, W^{-1/2} per site for the slice weight W = beta A0, built
    for every weight, the identity included."""
    w = per_site(sys.grid, inner_weight(sys).weight)
    evals, vecs = np.linalg.eigh(w)
    root = np.einsum("sfg,sg,shg->sfh", vecs, np.sqrt(evals), np.conj(vecs))
    iroot = np.einsum("sfg,sg,shg->sfh", vecs, 1.0 / np.sqrt(evals),
                      np.conj(vecs))
    return root, iroot


def _old_estimate_bound(k, sys, probes=32, t_window=None, D=0.0, seed=0):
    """Reference for estimate_bound: every coefficient and weight root as a
    per-site stack, A0^{-1} applied per site to the output of k (to each g,
    and after each pair_apply), and the random-probe loop run for separable
    kernels too (after the exact per-pair branch). Returns (C_est,
    samples)."""
    g = sys.grid
    A0_inv = per_site(g, sys.A0_inv)
    wroot, wiroot = _old_weight_transforms(sys)
    dv = g.cell_volume

    def h_norm(values):
        tv = np.einsum("sfg,sg->sf", wroot, values)
        return math.sqrt(max((np.vdot(tv, tv) * dv).real, 0.0))

    if k.kind == "separable":
        lattice = k.data["g"][0]
        times = lattice.times()
        idx = _window_frames(times, t_window)
        gtil = np.stack([np.einsum("sfg,tsg->tsf", A0_inv, ga.values)
                         for ga in k.data["g"]])
        htil = np.stack([ha.values for ha in k.data["h"]])
        gw = np.einsum("sfg,atsg->atsf", wroot, gtil)
        hw = np.einsum("sfg,atsg->atsf", wiroot, htil)
        Gg = np.einsum("atsf,btsf->tab", np.conj(gw), gw) * dv
        Hh = np.einsum("atsf,btsf->tab", np.conj(hw), hw) * dv
        best, n_samples = kernels._pair_sup(k, Gg, Hh, lattice,
                                            *_frame_range(idx), D)
        pair_times = [(float(times[i]), float(times[j]))
                      for i in idx[:: max(1, len(idx) // 16)]
                      for j in idx[:: max(1, len(idx) // 16)]
                      if k._admissible(float(times[i]), float(times[j]))]
    else:
        best, n_samples = 0.0, 0
        rng = np.random.Generator(np.random.Philox(seed))
        lo, hi = t_window
        pair_times = []
        while len(pair_times) < probes:
            t = float(rng.uniform(lo, hi))
            if math.isfinite(k.delta):
                tau = float(rng.uniform(max(lo, t - k.delta),
                                        min(hi, t + k.delta)))
            else:
                tau = float(rng.uniform(lo, hi))
            if k._admissible(t, tau):
                pair_times.append((t, tau))
        pair_times += [(t, t) for t in np.linspace(lo, hi, 9)
                       if k._admissible(t, t)]
    rng = np.random.Generator(np.random.Philox(seed + 1))
    for t, tau in pair_times:
        for _ in range(4):
            psi = (rng.normal(size=(g.sites, g.fiber))
                   + 1j * rng.normal(size=(g.sites, g.fiber)))
            n = h_norm(psi)
            if n == 0:
                continue
            psi /= n
            out = np.einsum("sfg,sg->sf", A0_inv, k.pair_apply(t, tau, psi))
            n_samples += 1
            best = max(best, h_norm(out) / math.exp(-D * abs(tau) / 2.0))
    return best, n_samples


def _weighted_system(g):
    """A site-varying, non-diagonal Hermitian A0 > 0 and a non-unit lapse."""
    x = g.coords()[:, 0]
    A0 = np.zeros((g.sites, 2, 2), complex)
    A0[:, 0, 0] = 2.0 + np.sin(x)
    A0[:, 1, 1] = 1.5
    A0[:, 0, 1] = 0.4 + 0.3j * np.cos(x)
    A0[:, 1, 0] = np.conj(A0[:, 0, 1])
    return make_system(g, A0, [np.zeros((2, 2))], beta=1.0 + 0.25 * np.cos(x))


@pytest.mark.parametrize("A0", [np.eye(2), np.diag([2.0, 1.0])],
                         ids=["identity", "diag"])
@pytest.mark.parametrize("rank,flags,D,window", SEPARABLE_BOUND_CASES)
def test_estimate_bound_separable_matches_old(A0, rank, flags, D, window):
    """C_est is bitwise that of the per-site stacks with the probe loop:
    every probe pair is one of the frame pairs the exact branch takes."""
    g, k = _separable_case(rank, flags)
    sys = make_system(g, A0, [np.zeros((2, 2))])
    est = estimate_bound(k, sys, t_window=window, D=D)
    C_ref, n_ref = _old_estimate_bound(k, sys, t_window=window, D=D)
    assert est.C_est == C_ref
    assert 0 < est.samples < n_ref


def _counterexample_bound_case(**options):
    from hypnl.scenarios import CounterexampleConfig, build_counterexample
    cfg = CounterexampleConfig(**options)
    sys, k, _, _ = build_counterexample(cfg)
    return k, sys, (0.0, cfg.delta)


def _maxwell_bound_case():
    from hypnl.scenarios import maxwell_system_3d
    g = make_grid(3, 2.0 * math.pi, 8, 6)
    _, chi_dot = drude_lorentz(0.2, 1.0, 2.0)
    return maxwell_kernel(g, chi_dot), maxwell_system_3d(g), (0.0, 1.5)


def _weighted_convolution_case():
    g = _grid()
    k = make_convolution(lambda u: math.exp(-u) * math.sin(2.0 * u),
                         np.array([[1.0, 0.5j], [-0.5j, 2.0]]), g, t0=0.0,
                         delta_eff=0.75)
    return k, _weighted_system(g), (0.0, 1.5)


def _weighted_dense_case():
    """The operator of the former dense case: cos(3 (t - tau)) times one
    matrix, two-sided with range 0.5."""
    g = _grid()
    mat = np.array([[0.5, 1.0], [-2.0j, 1.0]])
    k = make_modulated(g, [ConvTerm(None, lambda z: np.cos(3.0 * z), None,
                                    (None, mat))], delta=0.5)
    return k, _weighted_system(g), (0.0, 1.5)


# A0^{-1} folded into each M against A0^{-1} applied after the kernel: the
# probes' outputs round differently where A0 is not the identity
WEIGHTED_PROBE_RTOL = 1e-14


@pytest.mark.parametrize("case", [
    _counterexample_bound_case,
    lambda: _counterexample_bound_case(T=0.25, W=0.5, delta=0.25),
    _maxwell_bound_case,
    _weighted_convolution_case,
    _weighted_dense_case,
], ids=["counterexample", "counterexample_short", "maxwell_8cubed",
        "convolution_weighted", "dense_weighted"])
@pytest.mark.parametrize("seed", [0, 3])
def test_estimate_bound_matches_old(case, seed):
    """C_est is that of the reference: the probes' one standard_normal draw
    per pair is the stream of the reference's eight normal draws. Bitwise
    where A0 is the identity, within WEIGHTED_PROBE_RTOL elsewhere."""
    k, sys, window = case()
    est = estimate_bound(k, sys, t_window=window, seed=seed)
    C_ref, n_ref = _old_estimate_bound(k, sys, t_window=window, seed=seed)
    if sys.A0_inv is None:
        assert est.C_est == C_ref
    else:
        assert est.C_est == pytest.approx(C_ref, rel=WEIGHTED_PROBE_RTOL,
                                          abs=0)
    assert est.samples <= n_ref


def _shared_M_kernel(g):
    """_terms with a fourth term that shares the first term's M (after it)
    and a fifth with the identity M."""
    terms = _terms(g)
    terms.insert(1, terms[0]._replace(c=lambda z: np.sin(z) + 0.5j))
    terms.append(ConvTerm(np.cos, lambda z: np.exp(-z * z), None, None))
    return make_modulated(g, terms, delta=0.5)


@pytest.mark.parametrize("A0", ["site_constant", "per_site"])
@pytest.mark.parametrize("kind", ["separable", "convolution"])
def test_weighted_folds_A0_inverse_into_the_data(kind, A0):
    """weighted(k, sys) is A0^{-1} B with A0^{-1} in the data: A0^{-1} g on
    the same spans (h untouched), or (profile, A0^{-1} mat) for each
    distinct M, shared M still shared; its apply_all and pair_apply are
    A0^{-1} applied per site after k's, to round-off."""
    g = _grid()
    sys = (_weighted_system(g) if A0 == "per_site" else
           make_system(g, np.array([[2.0, 0.5j], [-0.5j, 1.0]]),
                       [np.zeros((2, 2))]))
    A0_inv = per_site(g, sys.A0_inv)
    k = _sep_kernel(g) if kind == "separable" else _shared_M_kernel(g)
    wk = weighted(k, sys)
    assert weighted(k, make_system(g, np.eye(2), [np.zeros((2, 2))])) is k
    if kind == "separable":
        assert wk.data["h"] is k.data["h"]
        assert (wk.data["g_span"], wk.data["h_span"]) \
            == (k.data["g_span"], k.data["h_span"])
        for new, old in zip(wk.data["g"], k.data["g"]):
            ref = np.einsum("sfg,tsg->tsf", A0_inv, old.values)
            np.testing.assert_allclose(new.values, ref, rtol=0,
                                       atol=1e-15 * np.max(np.abs(ref)))
    else:
        old_M = [term.M for term in k.data["terms"]]
        new_M = [term.M for term in wk.data["terms"]]
        assert new_M[0] is new_M[1] and old_M[0] is old_M[1]
        assert len({id(M) for M in new_M}) == len({id(M) for M in old_M})
        for new, old in zip(new_M, old_M):
            prof, mat = (None, None) if old is None else old
            assert new[0] is prof
            ref = np.einsum("sfg,sgh->sfh", A0_inv, per_site(g, mat))
            np.testing.assert_allclose(per_site(g, new[1]), ref, rtol=0,
                                       atol=1e-15 * np.max(np.abs(ref)))
            assert new[1].ndim == (2 if A0 == "site_constant"
                                   and (mat is None or mat.ndim == 2) else 3)
    tr = _traj(g, 32)
    ref = np.einsum("sfg,tsg->tsf", A0_inv, k.apply_all(tr))
    np.testing.assert_allclose(wk.apply_all(tr), ref, rtol=0,
                               atol=1e-14 * np.max(np.abs(ref)))
    v = tr.values[4]
    ref = np.einsum("sfg,sg->sf", A0_inv, k.pair_apply(0.5, 0.25, v))
    np.testing.assert_allclose(wk.pair_apply(0.5, 0.25, v), ref, rtol=0,
                               atol=1e-14 * np.max(np.abs(ref)))


def test_weighted_data_takes_the_plan_form():
    """A0 = I gives k itself; a site-constant A0 folds one (f, f) matrix
    into each M, so a translation-invariant kernel stays so."""
    g = _grid()
    k = make_modulated(g, [ConvTerm(None, np.cos, None, None),
                           ConvTerm(None, np.sin, None,
                                    (None, np.array([[0.0, 1.0],
                                                     [1.0, 0.0]])))])
    assert weighted(k, make_system(g, np.eye(2), [np.zeros((2, 2))])) is k
    sys = make_system(g, np.array([[2.0, 0.5j], [-0.5j, 1.0]]),
                      [np.zeros((2, 2))])
    wk = weighted(k, sys)
    assert all(term.M[1].shape == (2, 2) for term in wk.data["terms"])
    assert k.translation_invariant and wk.translation_invariant
    assert not weighted(k, _weighted_system(g)).translation_invariant


@pytest.mark.parametrize("frames,cols,profile", [
    (5, 6, False), (70, 3, False), (70, 6, True)])
def test_apply_M_per_site_stack_matches_einsum(frames, cols, profile):
    """A per-site (sites, f, k) stack on a (frames, sites, k) stack, taken
    as one batched product per site (over more than one block of frames at
    70 frames), equals the per-site einsum it replaced to 1e-15 of the
    largest value: on every column, on the 3 of 6 an M reads, and with a
    site profile."""
    rng = np.random.default_rng(5)
    sites, f = 37, 6

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    mat, values = draw(sites, f, cols), draw(frames, sites, cols)
    prof = draw(sites) if profile else None
    want = np.einsum("sfg,tsg->tsf", mat, values)
    if profile:
        want = want * prof[:, None]
    got = kernels._apply_M((prof, mat), values)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-15 * np.max(np.abs(want)))


@pytest.mark.parametrize("kind", ["separable", "convolution"])
def test_estimate_bound_weights_data_that_carries_an_operator(kind):
    """A kernel whose data already carries an operator P gets the C of
    A0^{-1} P B: with P = I the C of B itself, and for a rank-one separable
    kernel the exact max ||A0^{-1} P g_t||_W max ||h_tau||_{W^-1} (W = A0),
    not the C of P B unweighted."""
    g = _grid()
    A0 = np.diag([4.0, 0.25])
    sys = make_system(g, A0, [np.zeros((2, 2))])
    if kind == "convolution":
        k, _, window = _weighted_convolution_case()
        for kern in (k, make_convolution(lambda u: math.exp(-u), None, g,
                                         t0=0.0, delta_eff=0.75)):
            C = estimate_bound(kern, sys, t_window=window).C_est
            assert estimate_bound(fold_output_op(kern, np.eye(2)), sys,
                                  t_window=window).C_est == C
        return
    k = _sep_kernel(g)
    P = np.array([[1.0, 0.5j], [0.0, 2.0]])
    dv = g.cell_volume

    def w_norm(values, W):
        return math.sqrt(max(
            (np.einsum("sf,fg,sg->", np.conj(values), W, values) * dv).real,
            0.0))

    A0_inv = np.linalg.inv(A0)
    g_max = max(w_norm(v @ (A0_inv @ P).T, A0) for v in k.data["g"][0].values)
    h_max = max(w_norm(v, A0_inv) for v in k.data["h"][0].values)
    C = estimate_bound(fold_output_op(k, P), sys).C_est
    assert C == pytest.approx(g_max * h_max, rel=1e-12)
    unweighted = max(w_norm(v @ P.T, A0) for v in k.data["g"][0].values)
    assert C < 0.5 * unweighted * h_max


@pytest.mark.parametrize("A0", [np.array([[2.0, 0.5j], [-0.5j, 1.0]]), None],
                         ids=["site_constant", "per_site"])
def test_separable_adjoint_of_weighted_matches_old(A0):
    """The adjoint's new h profiles are A0^{-1} g, as the double
    conjugate-transpose einsum computed them."""
    g = _grid()
    sys = (_weighted_system(g) if A0 is None
           else make_system(g, A0, [np.zeros((2, 2))]))
    k = _sep_kernel(g)
    pd = np.conj(np.swapaxes(per_site(g, sys.A0_inv), 1, 2))
    for new, gp in zip(adjoint(weighted(k, sys)).data["h"], k.data["g"]):
        ref = np.einsum("sfg,tsg->tsf", np.conj(np.swapaxes(pd, 1, 2)),
                        gp.values)
        np.testing.assert_allclose(new.values, ref, rtol=0,
                                   atol=1e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize("P", ["site_constant", "per_site"])
@pytest.mark.parametrize("kind", ["separable", "convolution"])
def test_adjoint_of_folded_operator_is_adjoint_of_P_B(kind, P):
    """With an output operator P folded into the data, the adjoint is that
    of P applied after B: <a, (P B)^+_{t,tau} b> = <P B_{tau,t} a, b>, with
    P applied per site after k's pair_apply."""
    g = _grid()
    Ps = (np.stack([np.array([[1.0 + 0.1 * s, 0.3j], [0.2, 0.5]])
                    for s in range(g.sites)]) if P == "per_site"
          else np.array([[1.0, 0.5j], [0.0, 2.0]]))
    k = (_sep_kernel(g, delta=1.0, g_gate=lambda t: 0.0 <= t <= 0.75,
                     h_gate=lambda t: 0.0 <= t <= 0.75)
         if kind == "separable" else make_modulated(g, _terms(g), delta=0.75))
    ka = adjoint(fold_output_op(k, Ps))
    a, b = _traj(g, 33).values[:2]
    for t, tau in ((0.25, 0.5), (0.5, 0.25), (0.125, 0.625), (0.75, 0.75)):
        lhs = np.vdot(a, ka.pair_apply(t, tau, b))
        rhs = np.vdot(np.einsum("sfg,sg->sf", per_site(g, Ps),
                                k.pair_apply(tau, t, a)), b)
        assert abs(rhs) > 1e-3
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


@given(st.floats(0.01, 10.0), st.floats(0.01, 2.0))
@settings(max_examples=50, deadline=None)
def test_threshold_margin_monotone(C, delta):
    """The smallness margin grows with both the constant and the range."""
    m = threshold_margin(C, delta)
    assert m > 0
    assert threshold_margin(2.0 * C, delta) == pytest.approx(2.0 * m)
    assert threshold_margin(C, 2.0 * delta) == pytest.approx(4.0 * m)
