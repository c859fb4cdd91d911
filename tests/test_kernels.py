"""Time-kernel application against brute-force quadrature oracles, adjoint
identities, and the bound/threshold arithmetic."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_site
from hypnl import kernels
from hypnl.grids import GridError, Trajectory, make_grid, sample_trajectory
from hypnl.kernels import (ConvTerm, KernelError, TimeKernel, adjoint,
                           estimate_bound, make_convolution, make_modulated,
                           make_separable, threshold_margin, weighted)
from hypnl.scenarios import (DiracConfig, _dirac_potentials, dirac_kernel,
                             drude_lorentz, maxwell_kernel)
from hypnl.systems import _fiber_apply, inner_weight, make_system


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
        return dataclasses.replace(_rot_kernel(g, delta=0.5),
                                   post=np.array([[1.0, 0.5j], [0.0, 2.0]]))
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
        return adjoint(dataclasses.replace(k, post=post))
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
    multi-term kernel with a per-site post folded in."""
    g = _grid()
    post = np.stack([np.array([[2.0, 0.5j], [0.1 * s, 1.0]])
                     for s in range(g.sites)])
    k = dataclasses.replace(make_modulated(g, _terms(g), delta=0.75),
                            post=post)
    ka = adjoint(k)
    assert ka.post is None
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
    return out if k.post is None else np.einsum(
        "sfg,tsg->tsf", per_site(k.grid, k.post), out)


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
            u = np.einsum("tsf,tsf->t", np.conj(tr.values),
                          _fiber_apply(k.post, gv))
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
    return _fiber_apply(k.post, out)


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
    per-site post and with the weighted (f, f) post."""
    f = g.fiber
    post = np.stack([np.eye(f) * (1.0 + 0.1 * s) + 0.3j * np.eye(f, k=1)
                     for s in range(g.sites)])
    A0 = np.eye(f) * 2.0 + 0.5j * (np.eye(f, k=1) - np.eye(f, k=-1))
    return {"plain": k, "adjoint": adjoint(k),
            "post": dataclasses.replace(k, post=post),
            "weighted": weighted(k, make_system(g, A0, [np.zeros((f, f))]))}


@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("name", sorted(SPAN_CASES))
def test_separable_spans_match_full_frames(name, rank, fiber):
    """apply_all and pair_band on the profile spans equal the full-frame
    formulas bitwise, for every flag, with and without a post."""
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


def _pair_sup_case(rank, flags, window):
    """(k, Gg, Hh, times, idx) with random Hermitian Gram data per frame."""
    _, k = _separable_case(rank, flags)
    rng = np.random.default_rng(np.random.Philox(7))
    times = k.data["g"][0].times()
    F = len(times)
    m = rng.standard_normal((2, F, rank, rank)) \
        + 1j * rng.standard_normal((2, F, rank, rank))
    Gg, Hh = (np.einsum("tab,tcb->tac", x, x.conj()) for x in m)
    idx = np.arange(F) if window is None else np.arange(3, F - 5)
    return k, Gg, Hh, times, idx


@pytest.mark.parametrize("rank,flags,D,window", SEPARABLE_BOUND_CASES)
def test_pair_sup_matches_loop_bitwise(rank, flags, D, window):
    from hypnl.kernels import _pair_sup
    k, Gg, Hh, times, idx = _pair_sup_case(rank, flags, window)
    assert _pair_sup(k, Gg, Hh, times, idx, D) \
        == _pair_sup_loop(k, Gg, Hh, times, idx, D)


@pytest.mark.parametrize("rank,flags,D,window", SEPARABLE_BOUND_CASES)
def test_pair_sup_with_zero_frames_matches_loop_bitwise(rank, flags, D,
                                                        window):
    """Gg zero on the first third of the frames and Hh on the second half,
    where _pair_sup takes no norm: the sup and the count of every
    admissible pair are still the loop's."""
    from hypnl.kernels import _pair_sup
    k, Gg, Hh, times, idx = _pair_sup_case(rank, flags, window)
    F = len(times)
    Gg[:F // 3] = 0.0
    Hh[F // 2:] = 0.0
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
    per-site stack, and the random-probe loop run for separable kernels too
    (after the exact per-pair branch). Returns (C_est, samples)."""
    g = sys.grid
    V = dataclasses.replace(k, post=per_site(g, sys.A0_inv)) \
        if k.post is None else k
    wroot, wiroot = _old_weight_transforms(sys)
    dv = g.cell_volume

    def h_norm(values):
        tv = np.einsum("sfg,sg->sf", wroot, values)
        return math.sqrt(max((np.vdot(tv, tv) * dv).real, 0.0))

    if V.kind == "separable":
        times = V.data["g"][0].times()
        sel = np.ones(len(times), dtype=bool) if t_window is None else (
            (times >= t_window[0] - 1e-12) & (times <= t_window[1] + 1e-12))
        idx = np.nonzero(sel)[0]
        gtil = np.stack([np.einsum("sfg,tsg->tsf", V.post, ga.values)
                         for ga in V.data["g"]])
        htil = np.stack([ha.values for ha in V.data["h"]])
        gw = np.einsum("sfg,atsg->atsf", wroot, gtil)
        hw = np.einsum("sfg,atsg->atsf", wiroot, htil)
        Gg = np.einsum("atsf,btsf->tab", np.conj(gw), gw) * dv
        Hh = np.einsum("atsf,btsf->tab", np.conj(hw), hw) * dv
        best, n_samples = kernels._pair_sup(V, Gg, Hh, times, idx, D)
        pair_times = [(float(times[i]), float(times[j]))
                      for i in idx[:: max(1, len(idx) // 16)]
                      for j in idx[:: max(1, len(idx) // 16)]
                      if V._admissible(float(times[i]), float(times[j]))]
    else:
        best, n_samples = 0.0, 0
        rng = np.random.Generator(np.random.Philox(seed))
        lo, hi = t_window
        pair_times = []
        while len(pair_times) < probes:
            t = float(rng.uniform(lo, hi))
            if math.isfinite(V.delta):
                tau = float(rng.uniform(max(lo, t - V.delta),
                                        min(hi, t + V.delta)))
            else:
                tau = float(rng.uniform(lo, hi))
            if V._admissible(t, tau):
                pair_times.append((t, tau))
        pair_times += [(t, t) for t in np.linspace(lo, hi, 9)
                       if V._admissible(t, t)]
    rng = np.random.Generator(np.random.Philox(seed + 1))
    for t, tau in pair_times:
        for _ in range(4):
            psi = (rng.normal(size=(g.sites, g.fiber))
                   + 1j * rng.normal(size=(g.sites, g.fiber)))
            n = h_norm(psi)
            if n == 0:
                continue
            psi /= n
            out = V.pair_apply(t, tau, psi)
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
    est = estimate_bound(k, sys, probes=32, t_window=window, D=D)
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
    """C_est is bitwise that of the reference: the probes' one
    standard_normal draw per pair is the stream of the reference's eight
    normal draws."""
    k, sys, window = case()
    est = estimate_bound(k, sys, probes=32, t_window=window, seed=seed)
    C_ref, n_ref = _old_estimate_bound(k, sys, t_window=window, seed=seed)
    assert est.C_est == C_ref
    assert est.samples <= n_ref


def test_weighted_post_takes_the_plan_form():
    """A0 = I leaves post None; a site-constant A0 gives one (f, f) post
    that applies as the per-site stack did, to round-off."""
    g = _grid()
    k = make_modulated(g, _terms(g), delta=0.5)
    assert weighted(k, make_system(g, np.eye(2), [np.zeros((2, 2))])) is k
    A0 = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    sys = make_system(g, A0, [np.zeros((2, 2))])
    wk = weighted(k, sys)
    assert wk.post.shape == (2, 2)
    stack = dataclasses.replace(k, post=per_site(g, sys.A0_inv))
    tr = _traj(g, 32)
    ref = stack.apply_all(tr)
    np.testing.assert_allclose(wk.apply_all(tr), ref, rtol=0,
                               atol=1e-14 * np.max(np.abs(ref)))
    v = tr.values[4]
    ref = stack.pair_apply(0.5, 0.25, v)
    np.testing.assert_allclose(wk.pair_apply(0.5, 0.25, v), ref, rtol=0,
                               atol=1e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize("A0", [np.array([[2.0, 0.5j], [-0.5j, 1.0]]), None],
                         ids=["site_constant", "per_site"])
def test_separable_adjoint_of_weighted_matches_old(A0):
    """The adjoint's new h profiles are post g, as the double
    conjugate-transpose einsum computed them."""
    g = _grid()
    sys = (_weighted_system(g) if A0 is None
           else make_system(g, A0, [np.zeros((2, 2))]))
    k = weighted(_sep_kernel(g), sys)
    post = per_site(g, sys.A0_inv)
    pd = np.conj(np.swapaxes(post, 1, 2))
    for new, gp in zip(adjoint(k).data["h"], k.data["g"]):
        ref = np.einsum("sfg,tsg->tsf", np.conj(np.swapaxes(pd, 1, 2)),
                        gp.values)
        np.testing.assert_allclose(new.values, ref, rtol=0,
                                   atol=1e-14 * np.max(np.abs(ref)))


@given(st.floats(0.01, 10.0), st.floats(0.01, 2.0))
@settings(max_examples=50, deadline=None)
def test_threshold_margin_monotone(C, delta):
    """The smallness margin grows with both the constant and the range."""
    m = threshold_margin(C, delta)
    assert m > 0
    assert threshold_margin(2.0 * C, delta) == pytest.approx(2.0 * m)
    assert threshold_margin(C, 2.0 * delta) == pytest.approx(4.0 * m)
