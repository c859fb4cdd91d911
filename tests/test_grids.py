"""Lattice, trajectory, and stencil invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_site
from hypnl.grids import (GridError, InnerWeight, StateField, Trajectory,
                         diff4, diff_upwind, frame_norms_sq, inner_t,
                         make_grid, mode_axes, norm_t,
                         sample_trajectory, stencil_symbols,
                         stencil_wavenumber, to_modes, trapezoid_sum)


def _rand(grid, seed):
    rng = np.random.default_rng(np.random.Philox(seed))
    return (rng.standard_normal((grid.sites, grid.fiber))
            + 1j * rng.standard_normal((grid.sites, grid.fiber)))


# ---------------------------------------------------------------------------
# grids

def test_make_grid_validation():
    with pytest.raises(GridError):
        make_grid(2, 1.0, 8, 1)       # only 1D and 3D lattices
    with pytest.raises(GridError):
        make_grid(1, 1.0, 4, 1)       # too few points for the 5-point stencil
    with pytest.raises(GridError):
        make_grid(1, -1.0, 8, 1)


def test_coords_and_volume():
    g = make_grid(3, 2.0, 8, 3)
    assert g.sites == 512
    assert g.spacing == pytest.approx(0.25)
    assert g.cell_volume == pytest.approx(0.25 ** 3)
    c = g.coords()
    assert c.shape == (512, 3)
    assert c.min() == 0.0 and c.max() == pytest.approx(2.0 - 0.25)


def test_shaped_flat_roundtrip():
    g = make_grid(3, 1.0, 8, 2)
    v = _rand(g, 1)
    assert np.array_equal(g.flat(g.shaped(v)), v)


# ---------------------------------------------------------------------------
# trajectories

@given(st.integers(-2000, 2000), st.integers(0, 300),
       st.sampled_from([1e-3, 1.0 / 3.0, 0.125, 0.7]))
@settings(max_examples=60, deadline=None)
def test_trajectory_times_exact(index0, i, dt):
    """Frame times are (index0 + i) * dt computed directly, never accumulated,
    so refining by 2 keeps shared lattice points bitwise identical."""
    g = make_grid(1, 1.0, 8, 1)
    n = i + 1
    tr = Trajectory(g, dt, index0, np.zeros((n, g.sites, 1), complex))
    assert tr.time(i) == (index0 + i) * dt
    assert tr.index_of(tr.time(i)) == i


def test_sample_trajectory_and_frame():
    g = make_grid(1, 2.0 * math.pi, 16, 1)

    def fn(t, coords):
        return np.exp(1j * coords[:, :1]) * t

    tr = sample_trajectory(g, fn, 0.5, -2, 5)
    assert tr.t_start == -1.0 and tr.t_end == 1.0
    f = tr.frame(2)
    assert isinstance(f, StateField)
    assert f.time == 0.0
    assert np.all(f.values == 0.0)


def test_trajectory_algebra():
    g = make_grid(1, 1.0, 8, 1)
    vals = np.arange(2 * 8, dtype=float).reshape(2, 8, 1).astype(complex)
    tr = Trajectory(g, 0.1, 0, vals)
    two = tr.plus(tr)
    assert np.array_equal(two.values, tr.scaled(2.0).values)


# ---------------------------------------------------------------------------
# inner products and strip norms

def test_inner_weight_rejects_indefinite():
    g = make_grid(1, 1.0, 8, 2)
    w = np.tile(np.diag([1.0, -1.0])[None], (g.sites, 1, 1)).astype(complex)
    for weight in (w, w[0]):
        with pytest.raises(GridError, match="positive definite"):
            InnerWeight(grid=g, weight=weight)
    with pytest.raises(GridError, match="shape"):
        InnerWeight(grid=g, weight=w[:3])


def test_inner_t_weighted():
    g = make_grid(1, 2.0, 8, 2)
    w = np.tile(np.diag([2.0, 3.0])[None], (g.sites, 1, 1)).astype(complex)
    a = StateField(g, 0.0, np.ones((g.sites, 2), complex))
    for weight in (w, w[0]):
        iw = InnerWeight(grid=g, weight=weight)
        # <a, a> = sum_s (2 + 3) * dv
        assert inner_t(a, a, iw).real == pytest.approx(5.0 * 2.0)
        assert norm_t(a, iw) == pytest.approx(math.sqrt(10.0))


_HERM = np.array([[2.0, 0.5j], [-0.5j, 1.0]])


def _weights(g):
    """The slice weight in each of its forms: the identity (None), one
    (f, f) matrix, and a per-site stack."""
    x = g.coords()[:, 0]
    rng = np.random.default_rng(np.random.Philox(g.fiber))
    m = rng.standard_normal((g.fiber, g.fiber)) \
        + 1j * rng.standard_normal((g.fiber, g.fiber))
    herm = m @ m.conj().T + np.eye(g.fiber)
    lapse = 1.0 + 0.25 * np.cos(x)
    w = (lapse * (1.0 + 0.5 * np.sin(x)))[:, None, None] * herm
    return {"identity": InnerWeight.identity(g),
            "constant": InnerWeight(g, 0.75 * herm),
            "weighted": InnerWeight(g, w)}


# The identity and (f, f) einsums run the sum over sites and fiber in
# another order than the per-site one. Measured: the (f, f) form bitwise on
# fiber 2, at most 3.9e-15 of the value on 8^3 sites x fiber 6 (1.1e-14 on
# 16^3 x 6); the identity's real einsum at most 2.2e-16 on fiber 2, 2.1e-15
# on 8^3 x 6 and 7.1e-15 on 16^3 x 6.
_REORDERED = 1e-13
_NORM_GRIDS = ((1, 16, 2), (3, 8, 6))


def _per_site_norms_sq(tr, w):
    """The per-site einsum the forms replace."""
    v = tr.values
    return np.einsum("tsf,sfg,tsg->t", np.conj(v), per_site(tr.grid, w.weight),
                     v).real * tr.grid.cell_volume


@pytest.mark.parametrize("kind", ["identity", "constant", "weighted"])
def test_frame_norms_sq_matches_per_frame_inner_t(kind):
    """The batched einsum over all frames gives each frame's inner_t, and
    both agree with the per-site einsum: bitwise for a per-site stack, to
    _REORDERED for the identity and one (f, f) matrix."""
    for dim, points, fiber in _NORM_GRIDS:
        g = make_grid(dim, 2.0, points, fiber)
        rng = np.random.default_rng(np.random.Philox(3))
        shape = (9, g.sites, fiber)
        tr = Trajectory(g, 0.125, -3, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
        w = _weights(g)[kind]
        got = frame_norms_sq(tr, w)
        ref = np.array([inner_t(fr, fr, w).real for fr in tr])
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
        old = _per_site_norms_sq(tr, w)
        if kind == "weighted":
            assert got.tobytes() == old.tobytes()
        np.testing.assert_allclose(got, old, rtol=_REORDERED, atol=0)
        a, b = tr.frame(2), StateField(g, tr.time(2), tr.values[5])
        old_ab = complex(np.einsum("sf,sfg,sg->", np.conj(a.values),
                                   per_site(g, w.weight), b.values)) \
            * g.cell_volume
        assert abs(inner_t(a, b, w) - old_ab) <= _REORDERED * abs(old_ab)


@pytest.mark.parametrize("kind", ["identity", "constant", "weighted"])
def test_inner_weight_roots_match_per_site_einsum(kind):
    """W^{1/2} and W^{-1/2} keep the weight's form and are bitwise the
    per-site eigh einsum; the identity has none."""
    for dim, points, fiber in _NORM_GRIDS:
        g = make_grid(dim, 2.0, points, fiber)
        w = _weights(g)[kind]
        root, iroot = w.roots()
        if w.weight is None:
            assert root is None and iroot is None
            continue
        evals, vecs = np.linalg.eigh(per_site(g, w.weight))
        want = [np.einsum("sfg,sg,shg->sfh", vecs, p(evals), np.conj(vecs))
                for p in (np.sqrt, lambda e: 1.0 / np.sqrt(e))]
        for got, ref in zip((root, iroot), want):
            assert got.shape == w.weight.shape
            assert per_site(g, got).tobytes() == ref.tobytes()
        scale = np.max(np.abs(w.weight))
        np.testing.assert_allclose(root @ root, w.weight, rtol=0,
                                   atol=1e-13 * scale)


def test_inner_weight_identity_flag():
    """The identity weight is None, and its norms are the plain complex sums
    to 1e-13 relative (frame_norms_sq sums the real and imaginary squares in
    one real einsum, another summation order)."""
    g = make_grid(1, 2.0, 16, 2)
    assert InnerWeight.identity(g).weight is None
    assert _weights(g)["constant"].weight.shape == (2, 2)
    assert _weights(g)["weighted"].weight.shape == (g.sites, 2, 2)
    v = _rand(g, 4)
    tr = Trajectory(g, 0.1, 0, v[None])
    plain = np.einsum("tsf,tsf->t", np.conj(tr.values), tr.values).real
    np.testing.assert_allclose(frame_norms_sq(tr, InnerWeight.identity(g)),
                               plain * g.cell_volume, rtol=1e-13, atol=0)


def _trapezoid_loop(series, dt):
    """The left-to-right loop trapezoid_sum replaced."""
    if len(series) == 1:
        return 0.0
    acc = 0.5 * (series[0] + series[-1])
    for v in series[1:-1]:
        acc += v
    return float(acc * dt)


def test_trapezoid_sum_matches_reference():
    rng = np.random.default_rng(np.random.Philox(7))
    s = rng.standard_normal(33)
    assert trapezoid_sum(s, 0.01) == pytest.approx(np.trapezoid(s, dx=0.01))
    assert trapezoid_sum(s[:1], 0.01) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 17, 769, 1800])
def test_trapezoid_sum_bitwise_equals_loop(n):
    rng = np.random.default_rng(np.random.Philox(n))
    s = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    assert trapezoid_sum(s, 0.0123) == _trapezoid_loop(s, 0.0123)


# ---------------------------------------------------------------------------
# stencils

def _diff4_roll(grid, values, axis):
    """Reference: the np.roll form of the stencil, summed in the same order."""
    v = grid.shaped(values)
    out = np.zeros_like(v)
    for off, c in ((1, 8.0), (2, -1.0)):
        out += c * (np.roll(v, -off, axis=axis) - np.roll(v, off, axis=axis))
    return grid.flat(out / (12.0 * grid.spacing))


@pytest.mark.parametrize("dim,points,fiber", [(1, 64, 1), (1, 256, 2),
                                              (3, 16, 6)])
def test_diff4_matches_roll_reference_bitwise(dim, points, fiber):
    g = make_grid(dim, 1.3, points, fiber)
    rng = np.random.default_rng(np.random.Philox(points + fiber))
    stack = (rng.standard_normal((3, g.sites, fiber))
             + 1j * rng.standard_normal((3, g.sites, fiber)))
    for axis in range(dim):
        ref = np.stack([_diff4_roll(g, v, axis) for v in stack])
        assert np.array_equal(diff4(g, stack[0], axis), ref[0])
        assert np.array_equal(diff4(g, stack, axis), ref)


def test_diff4_is_circulant_symbol():
    """On e^{ikx} the 4th-order stencil acts as multiplication by the exact
    modified wavenumber i*(8 sin(kh) - sin(2kh))/(6h)."""
    g = make_grid(1, 2.0 * math.pi, 32, 1)
    h = g.spacing
    for k in (1, 3, 7):
        v = np.exp(1j * k * g.coords()[:, :1])
        kt = (8.0 * math.sin(k * h) - math.sin(2.0 * k * h)) / (6.0 * h)
        np.testing.assert_allclose(diff4(g, v, 0), 1j * kt * v,
                                   rtol=0, atol=1e-13)


def test_diff4_fourth_order():
    errs = []
    for pts in (32, 64, 128):
        g = make_grid(1, 2.0 * math.pi, pts, 1)
        x = g.coords()[:, :1]
        v = np.exp(np.sin(x)).astype(complex)
        exact = np.cos(x) * v
        errs.append(float(np.max(np.abs(diff4(g, v, 0) - exact))))
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert 3.7 <= order <= 4.3


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_diff4_exactly_skew_symmetric(seed):
    """<a, D b> + <D a, b> vanishes to the last bit on the periodic lattice:
    discrete integration by parts with no boundary term."""
    g = make_grid(1, 1.0, 16, 2)
    a, b = _rand(g, seed), _rand(g, seed + 1)
    lhs = np.vdot(a, diff4(g, b, 0)) + np.vdot(diff4(g, a, 0), b)
    scale = float(np.max(np.abs(a)) * np.max(np.abs(b)) * g.sites / g.spacing)
    assert abs(lhs) <= 1e-13 * scale


def test_diff_upwind_not_skew_symmetric():
    """The one-sided stencil breaks the integration-by-parts identity — this
    is the documented reason the solver uses the central stencil."""
    g = make_grid(1, 1.0, 16, 1)
    a, b = _rand(g, 5), _rand(g, 6)
    lhs = np.vdot(a, diff_upwind(g, b, 0)) + np.vdot(diff_upwind(g, a, 0), b)
    assert abs(lhs) > 1.0


def test_diff_upwind_first_order():
    errs = []
    for pts in (64, 128):
        g = make_grid(1, 2.0 * math.pi, pts, 1)
        x = g.coords()[:, :1]
        v = np.sin(x).astype(complex)
        errs.append(float(np.max(np.abs(diff_upwind(g, v, 0) - np.cos(x)))))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert 0.8 <= order <= 1.2


# ---------------------------------------------------------------------------
# Fourier modes

@pytest.mark.parametrize("dim,points", [(1, 16), (3, 8)])
def test_to_modes_is_unitary(dim, points):
    """Parseval: frame norms with a site-constant weight are kept to
    round-off, and the inverse takes the values back."""
    grid = make_grid(dim, 2.0 * math.pi, points, 2)
    rng = np.random.default_rng(np.random.Philox(3))
    v = (rng.standard_normal((5, grid.sites, 2))
         + 1j * rng.standard_normal((5, grid.sites, 2)))
    hat = to_modes(grid, v)
    w = InnerWeight(grid, 0.5 * _HERM)
    for weight in (InnerWeight.identity(grid), w):
        want = frame_norms_sq(Trajectory(grid, 0.1, 0, v), weight)
        got = frame_norms_sq(Trajectory(grid, 0.1, 0, hat), weight)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    np.testing.assert_allclose(to_modes(grid, hat, inverse=True), v,
                               rtol=0, atol=1e-14 * np.max(np.abs(v)))
    # one frame transforms as a stack of one
    assert np.array_equal(to_modes(grid, v[2]), hat[2])


@pytest.mark.parametrize("dim,points", [(1, 16), (3, 8)])
def test_stencil_symbol_is_diff4_on_the_modes(dim, points):
    """diff4 along axis j multiplies each Fourier mode by its stencil
    symbol, the L of the solver's recurrence on the modes."""
    grid = make_grid(dim, 3.0, points, 3)
    v = np.stack([_rand(grid, 5), _rand(grid, 6)])
    for axis in range(dim):
        want = to_modes(grid, diff4(grid, v, axis))
        got = to_modes(grid, v) * stencil_symbols(grid)[axis][:, None]
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
        # the symbol is i times stencil_wavenumber at theta_j / dx
        theta = mode_axes(grid)[axis]
        h = grid.spacing
        np.testing.assert_allclose(
            stencil_symbols(grid)[axis],
            [1j * stencil_wavenumber(th / h, h) for th in theta],
            rtol=0, atol=1e-13 / h)
