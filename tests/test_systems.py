"""Coefficient validation, adjoint identities, and systems read from JSON."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_site
from hypnl import systems
from hypnl.grids import InnerWeight, StateField, diff4, make_grid
from hypnl.scenarios import CounterexampleConfig, build_counterexample
from hypnl.systems import (PROFILES, SystemError, adjoint_defect, apply_S,
                           evolution_rhs, inner_weight, make_system,
                           ode_system, symbol_divergence, system_from_json,
                           transport_system, validate_system,
                           zero_order_matrices)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], complex)


def _rand_field(grid, seed):
    rng = np.random.default_rng(np.random.Philox(seed))
    v = (rng.standard_normal((grid.sites, grid.fiber))
         + 1j * rng.standard_normal((grid.sites, grid.fiber)))
    return StateField(grid, 0.0, v)


def test_transport_validates():
    g = make_grid(1, 2.0 * math.pi, 64, 1)
    rep = validate_system(transport_system(g))
    assert rep.hyperbolic and rep.ok
    assert rep.adjoint_defect <= 1e-12
    assert all(me > 0 for _, me in rep.min_eig_samples)


def test_superluminal_coefficient_fails_hyperbolicity():
    """A0 + alpha A1 loses positivity once |A1| eigenvalues exceed 1/|alpha|;
    speed 2 transport is caught by the sampled-direction check."""
    g = make_grid(1, 2.0 * math.pi, 64, 1)
    rep = validate_system(transport_system(g, speed=2.0))
    assert not rep.hyperbolic and not rep.ok


def test_nonhermitian_coefficient_fails_symmetry():
    """A^j not Hermitian to 1e-12, as one matrix or at one site of a stack,
    is refused with a SystemError on its field, as A0 is."""
    g = make_grid(1, 1.0, 8, 2)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    with pytest.raises(SystemError, match=r"^Aj\[0\] not Hermitian$") as exc:
        make_system(g, np.eye(2), [bad])
    assert (exc.value.field, exc.value.what) == ("Aj[0]", "not Hermitian")
    g3 = make_grid(3, 1.0, 8, 2)
    stack = np.broadcast_to(SIGMA1, (g3.sites, 2, 2)).copy()
    stack[5, 0, 1] += 2e-12
    with pytest.raises(SystemError, match=r"^Aj\[2\] not Hermitian$"):
        make_system(g3, np.eye(2), [SIGMA1, SIGMA3, stack])


@pytest.mark.parametrize("varying", [False, True], ids=["one", "per_site"])
def test_stored_coefficients_are_exactly_hermitian(varying):
    """A0 and each A^j are held exactly Hermitian: an exactly Hermitian one
    bitwise as given, one Hermitian only to round-off (defect 1e-13, under
    the 1e-12 that is refused) as its Hermitian part (A + A^H)/2."""
    g = make_grid(1, 1.0, 8, 2)
    rng = np.random.default_rng(np.random.Philox(9))
    h = _herm(rng, 2)
    a0 = h @ h.conj().T + 2.0 * np.eye(2)      # Hermitian to round-off
    a0 = 0.5 * (a0 + a0.conj().T)               # exactly Hermitian
    a1 = _herm(rng, 2)
    if varying:
        scale = (1.0 + 0.5 * np.sin(2.0 * math.pi * g.coords()[:, 0]))
        a0, a1 = scale[:, None, None] * a0, scale[:, None, None] * a1
    sys = make_system(g, a0, [a1])
    assert sys.A0.tobytes() == a0.tobytes()
    assert sys.Aj[0].tobytes() == a1.tobytes()
    off = a1.copy()
    off[..., 0, 1] += 1e-13
    off0 = a0.copy()
    off0[..., 1, 0] -= 1e-13j
    sys = make_system(g, off0, [off])
    for held, given in ((sys.A0, off0), (sys.Aj[0], off)):
        herm = (given + np.conj(np.swapaxes(given, -1, -2))) / 2.0
        assert held.tobytes() == herm.tobytes()
        assert np.array_equal(held, np.conj(np.swapaxes(held, -1, -2)))


def test_v_max_tracks_speed():
    g = make_grid(1, 1.0, 16, 1)
    assert transport_system(g, speed=0.5).v_max == pytest.approx(0.5)
    assert transport_system(g).v_max == pytest.approx(1.0)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_adjoint_identity_exact_dirac_coefficients(seed):
    """<S a, b> = <a, S^dagger b> holds to round-off for the constant
    Hermitian coefficients with the skew-symmetric central stencil."""
    g = make_grid(1, 2.0 * math.pi, 32, 2)
    sys = make_system(g, np.eye(2), [-SIGMA1], S0=-0.5j * SIGMA3)
    d = adjoint_defect(sys, _rand_field(g, seed), _rand_field(g, seed + 1))
    assert d <= 1e-11


def test_adjoint_identity_fails_upwind():
    g = make_grid(1, 2.0 * math.pi, 32, 1)
    sys = transport_system(g)
    a, b = _rand_field(g, 3), _rand_field(g, 4)
    assert adjoint_defect(sys, a, b, stencil="upwind") > 1e-2
    assert adjoint_defect(sys, a, b) <= 1e-12


def test_symbol_divergence_zero_for_constant_coefficients():
    g = make_grid(1, 1.0, 16, 2)
    sys = make_system(g, np.eye(2), [SIGMA1])
    assert not np.any(symbol_divergence(sys))


def test_zero_order_matrices_diag():
    """S0 = diag(1, 0) gives the zero-order operator -(S0 + S0^dagger) with
    uniform bound 2 (identity A0 and unit lapse)."""
    g = make_grid(1, 1.0, 8, 2)
    sys = ode_system(g, np.diag([1.0, 0.0]))
    z = zero_order_matrices(sys)
    np.testing.assert_allclose(
        z, np.broadcast_to(np.diag([-2.0, 0.0]), z.shape), atol=1e-14)


def test_inner_weight_is_beta_A0():
    """beta * A0 in `_fiber_apply` form: None for beta = 1 and A0 = I, one
    (f, f) matrix for a site-constant beta and A0, else the per-site stack,
    bitwise the per-site product."""
    g = make_grid(1, 1.0, 8, 2)
    A0 = np.diag([2.0, 1.0])
    x = g.coords()[:, 0]
    cases = [(np.eye(2), None, None), (np.eye(2), 3.0, (2, 2)),
             (A0, 3.0, (2, 2)), (A0, 1.0 + 0.5 * np.sin(x), (g.sites, 2, 2)),
             ((1.5 + np.cos(x))[:, None, None] * A0, None, (g.sites, 2, 2))]
    for a0, beta, shape in cases:
        lapse = None if beta is None else beta * np.ones(g.sites)
        sys = make_system(g, a0, [np.zeros((2, 2))], beta=lapse)
        w = inner_weight(sys).weight
        assert (w is None) if shape is None else (w.shape == shape)
        want = sys.beta[:, None, None] * per_site(g, a0)
        assert per_site(g, w).tobytes() == want.tobytes()


def test_inner_weight_is_built_once_per_system(monkeypatch):
    """One InnerWeight per system, with a read-only matrix; a system made by
    dataclasses.replace builds its own."""
    g = make_grid(1, 1.0, 8, 2)
    sys = make_system(g, np.diag([2.0, 1.0]), [np.zeros((2, 2))])
    built = []
    monkeypatch.setattr(systems, "InnerWeight",
                        lambda *a: built.append(a) or InnerWeight(*a))
    w = inner_weight(sys)
    assert inner_weight(sys) is w and len(built) == 1
    assert not w.weight.flags.writeable
    other = dataclasses.replace(sys, beta=2.0 * np.ones(g.sites))
    np.testing.assert_array_equal(inner_weight(other).weight, 2.0 * w.weight)
    assert len(built) == 2


def test_indefinite_A0_rejected():
    g = make_grid(1, 1.0, 8, 2)
    with pytest.raises(SystemError):
        make_system(g, np.diag([1.0, -1.0]), [np.zeros((2, 2))])



@pytest.mark.parametrize("varying", ["none", "A0", "Aj"])
def test_A0_inv_and_v_max_bitwise_equal_per_site_formulas(varying):
    """A site-constant coefficient is checked and measured once, on its one
    (f, f) matrix; A0_inv and v_max stay bitwise those of the per-site
    formulas, on constant and on site-varying systems. This A0 = x x^H + 3I
    is Hermitian only to round-off, so the formulas take its Hermitian
    part (A0 + A0^H)/2, as SystemSpec holds it."""
    g = make_grid(3, 1.0, 8, 3)
    rng = np.random.default_rng(np.random.Philox(3))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a0 = x @ x.conj().T + 3.0 * np.eye(3)
    aj = [m + m.conj().T for m in
          rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))]
    scale = 1.0 + 0.5 * rng.random(g.sites)[:, None, None]
    if varying == "A0":
        a0 = scale * a0
    if varying == "Aj":
        aj[1] = scale * aj[1]
    sys = make_system(g, a0, aj, S0=np.eye(3))
    a0 = per_site(g, a0)
    inv = np.linalg.inv((a0 + np.conj(np.swapaxes(a0, -1, -2))) / 2.0)
    assert sys.A0_inv.shape == ((g.sites, 3, 3) if varying == "A0" else (3, 3))
    assert per_site(g, sys.A0_inv).tobytes() == inv.tobytes()
    v_max = max(float(np.max(np.abs(np.linalg.eigvals(inv @ per_site(g, a)))))
                for a in aj)
    assert sys.v_max == v_max
    assert v_max > 0.0


@pytest.mark.parametrize("varying", ["none", "A0", "Aj"])
def test_validate_system_matches_per_site_loop(varying):
    """The sampled minimum eigenvalues are bitwise those of the per-site
    loop over directions, with one eigvalsh call on the stored forms."""
    g = make_grid(3, 1.0, 8, 2)
    x = g.coords()[:, 0]
    scale = (1.0 + 0.5 * np.sin(2.0 * math.pi * x))[:, None, None]
    a0, aj = np.diag([2.0, 1.0]), [SIGMA1, np.zeros((2, 2)), np.eye(2)]
    if varying == "A0":
        a0 = scale * a0
    if varying == "Aj":
        aj[0] = scale * SIGMA1
    rep = validate_system(make_system(g, a0, aj), seed=5)
    rng = np.random.Generator(np.random.Philox(5))
    want = []
    for _ in range(16):
        alpha = rng.normal(size=3)
        alpha *= rng.uniform(0.0, 0.999) / np.linalg.norm(alpha)
        m = per_site(g, a0)
        for j, a in enumerate(aj):
            m = m + alpha[j] * per_site(g, a)
        want.append((alpha.tolist(), float(np.min(np.linalg.eigvalsh(m)))))
    assert rep.min_eig_samples == want
    assert rep.hyperbolic == all(me > 0 for _, me in want)


def test_non_hermitian_A0_rejected():
    g = make_grid(1, 1.0, 8, 2)
    with pytest.raises(SystemError, match="Hermitian"):
        make_system(g, np.array([[2.0, 1.0], [0.0, 2.0]]), [np.zeros((2, 2))])
    a0 = np.broadcast_to(np.eye(2), (g.sites, 2, 2)).copy()
    a0[3, 0, 1] = 0.5
    with pytest.raises(SystemError, match="Hermitian"):
        make_system(g, a0, [np.zeros((2, 2))])

def test_json_roundtrip_constant():
    """A literal system document, constant matrices as row-major [re, im]
    pairs, reads back as the system it spells out."""
    g = make_grid(1, 2.0 * math.pi, 64, 2)
    sys = make_system(g, np.diag([2.0, 1.0]), [SIGMA1], S0=0.3j * SIGMA3,
                      name="probe")
    back = system_from_json(json.loads("""{
        "grid": {"dim": 1, "extent": 6.283185307179586, "points": 64,
                 "fiber": 2},
        "A0": {"matrix": [[[2.0, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [1.0, 0.0]]]},
        "Aj": [{"matrix": [[[0.0, 0.0], [1.0, 0.0]],
                           [[1.0, 0.0], [0.0, 0.0]]]}],
        "S0": {"matrix": [[[0.0, 0.3], [0.0, 0.0]],
                          [[0.0, 0.0], [0.0, -0.3]]]},
        "name": "probe"}"""))
    assert back.name == "probe"
    assert back.grid == g
    np.testing.assert_array_equal(back.A0, sys.A0)
    np.testing.assert_array_equal(back.Aj[0], sys.Aj[0])
    np.testing.assert_array_equal(back.S0, sys.S0)


def test_json_varying_coefficient_needs_profile():
    """A system document gives a coefficient that varies by site as a named
    profile; a coefficient spec with neither a matrix nor a profile is
    refused."""
    doc = {"grid": {"dim": 1, "extent": 1.0, "points": 8, "fiber": 1},
           "A0": {"matrix": [[[1.0, 0.0]]]},
           "Aj": [{"profile": "offset_sin",
                   "params": {"c0": 1.0, "c1": 0.5, "k": 2.0 * math.pi}}]}
    sys = system_from_json(doc)
    np.testing.assert_array_equal(
        sys.Aj[0], PROFILES["offset_sin"](sys.grid, 1.0, 0.5, 2.0 * math.pi))
    doc["Aj"] = [{"values": [1.0] * 8}]
    with pytest.raises(SystemError, match="'matrix' or 'profile'"):
        system_from_json(doc)


# ---------------------------------------------------------------------------
# the stored coefficient forms against the per-site reference formulas

def _site_apply(sys, m, v):
    return np.einsum("sfg,sg->sf", per_site(sys.grid, m), v)


def _rhs_reference(sys, values, source):
    acc = np.zeros_like(values)
    if source is not None:
        acc += source
    if sys.S0 is not None:
        acc += _site_apply(sys, sys.S0, values)
    for j, a in enumerate(sys.Aj):
        acc -= _site_apply(sys, a, diff4(sys.grid, values, j))
    return _site_apply(sys, sys.A0_inv, acc)


def _apply_S_reference(sys, values, dpsi_dt):
    out = _site_apply(sys, sys.A0, dpsi_dt)
    for j, a in enumerate(sys.Aj):
        out += _site_apply(sys, a, diff4(sys.grid, values, j))
    if sys.S0 is not None:
        out -= _site_apply(sys, sys.S0, values)
    return out


def _herm(rng, f):
    m = rng.standard_normal((f, f)) + 1j * rng.standard_normal((f, f))
    return 0.5 * (m + m.conj().T)


def _plan_case(name):
    """Random systems covering each way a coefficient is compacted."""
    rng = np.random.default_rng(np.random.Philox(sum(map(ord, name))))
    dim = 3 if name == "zero_axis_3d" else 1
    g = make_grid(dim, 2.0, 8 if dim == 3 else 32, 2)
    x = g.coords()[:, 0]
    h = _herm(rng, 2)
    pos = h @ h + np.eye(2)
    A0, Aj, kw = np.eye(2), [_herm(rng, 2) for _ in range(dim)], {}
    if name == "zero_axis_3d":
        Aj[1] = np.zeros((2, 2))
        kw["S0"] = _herm(rng, 2) + 0.3j * np.eye(2)
    elif name == "zero_Aj":
        A0, Aj = pos, [np.zeros((2, 2))]
    elif name == "offset_sin":
        Aj = [PROFILES["offset_sin"](g, 0.3, 0.2, math.pi)]
        kw["S0"] = _herm(rng, 2)
    elif name == "site_A0":
        A0 = (1.5 + np.sin(math.pi * x))[:, None, None] * pos
        kw["S0"] = (np.cos(x)[:, None, None] * _herm(rng, 2)).astype(complex)
    elif name == "site_Aj":
        Aj = [(1.2 + np.sin(math.pi * x))[:, None, None] * _herm(rng, 2)]
        kw["S0"] = _herm(rng, 2) + 0.3j * np.eye(2)
    elif name == "beta":
        A0 = pos
        kw["beta"] = 1.0 + 0.5 * np.cos(math.pi * x)
        kw["S0"] = np.eye(2)
    return make_system(g, A0, Aj, **kw), rng


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize("name", ["zero_Aj", "zero_axis_3d", "offset_sin",
                                  "site_A0", "site_Aj", "beta"])
def test_plan_matches_per_site_formulas(name):
    sys, rng = _plan_case(name)
    g = sys.grid

    def field(*lead):
        shape = lead + (g.sites, g.fiber)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v, src = field(), field()
    for source in (None, src):
        assert _close(evolution_rhs(sys, v, source),
                      _rhs_reference(sys, v, source))
    stack, dstack = field(4), field(4)
    ref = np.stack([_apply_S_reference(sys, a, b)
                    for a, b in zip(stack, dstack)])
    assert _close(apply_S(sys, stack[1], dstack[1]), ref[1])
    assert _close(apply_S(sys, stack, dstack), ref)


def test_plan_compacts_coefficients():
    """Each coefficient is held once, in `_fiber_apply` form; zero A^j are
    not live and a zero S0 is dropped."""
    g = make_grid(1, 1.0, 16, 2)
    sys = make_system(g, np.eye(2), [SIGMA1], S0=np.eye(2))
    assert sys.A0 is None and sys.A0_inv is None
    assert [j for j, _ in sys.live] == [0] and sys.Aj[0].shape == (2, 2)
    # an identity S0 is a live term, not an absent one
    np.testing.assert_array_equal(sys.S0, np.eye(2))
    sys = make_system(g, np.diag([2.0, 4.0]), [np.zeros((2, 2))],
                      S0=np.zeros((2, 2)))
    assert sys.live == () and sys.S0 is None
    np.testing.assert_array_equal(sys.A0_inv, np.diag([0.5, 0.25]))
    assert transport_system(make_grid(1, 1.0, 16, 1)).Aj[0] is None
    # a site-constant stack is held as its one matrix, a varying one as a
    # copy of the stack
    stack = np.broadcast_to(SIGMA1, (g.sites, 2, 2)).copy()
    assert make_system(g, np.eye(2), [stack]).Aj[0].shape == (2, 2)
    stack[3] *= 2.0
    varying = make_system(g, np.eye(2), [stack])
    assert varying.Aj[0].shape == (g.sites, 2, 2)
    assert varying.Aj[0] is not stack
    np.testing.assert_array_equal(varying.Aj[0], stack)
    # the stored forms build the same system again
    again = dataclasses.replace(varying, beta=2.0 * np.ones(g.sites))
    assert again.A0 is None and again.Aj[0].tobytes() == stack.tobytes()


def test_counterexample_plan_has_no_spatial_term():
    sys, _, _, _ = build_counterexample(
        CounterexampleConfig(points=16, steps_per_delta=16, T=0.5, W=0.5))
    assert sys.live == () and sys.S0 is None
    assert sys.A0 is None and sys.A0_inv is None


def test_maxwell_3d_holds_each_operator_once():
    """Maxwell at 16^3: every coefficient, A0^{-1}, the weight and its roots
    are None or one (6, 6) matrix, and the build holds under 1 MB (the
    per-site stacks took 2.36 MB each)."""
    import tracemalloc
    from hypnl.scenarios import maxwell_system_3d
    g = make_grid(3, 2.0 * math.pi, 16, 6)
    tracemalloc.start()
    try:
        sys = maxwell_system_3d(g)
        w = inner_weight(sys)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ops = (sys.A0, sys.A0_inv, sys.S0, w.weight) + sys.Aj + w.roots()
    assert all(m is None or m.shape == (6, 6) for m in ops)
    assert held < 1 << 20, held


def _full_column_terms(sys, values):
    """A^j D_j psi for every live A^j with every column differentiated."""
    from hypnl.systems import _fiber_apply
    return [_fiber_apply(sys.Aj[j], diff4(sys.grid, values, j))
            for j, _ in sys.live]


# a multi-axis system's terms are summed in one product, in another order
# than the per-axis sum (see _spatial_product): measured at most 1.8e-16 of
# the largest value (the per-site case below; 0 on Maxwell, whose rows each
# read one column per axis)
_STACKED_RTOL = 1e-14


def test_spatial_terms_read_only_live_columns():
    """Each A^j differentiates only the columns it reads (Maxwell: 4 of 6
    per axis), and the columns of all axes go through one product with
    `sys.spatial`. On one axis, apply_S and evolution_rhs equal the full
    products with == (so up to signed zeros) on finite values: the dropped
    terms are exact zeros. On several axes the one product sums in another
    order, so they agree to _STACKED_RTOL of the largest value."""
    from hypnl.scenarios import maxwell_system_3d
    from hypnl.systems import _spatial_product
    g3 = make_grid(3, 2.0 * math.pi, 8, 6)
    g1 = make_grid(1, 2.0, 16, 3)
    g2 = make_grid(3, 2.0, 8, 3)
    a = np.zeros((g1.sites, 3, 3), complex)
    a[:, 0, 2] = a[:, 2, 0] = 1.0 + 0.5 * np.sin(math.pi * g1.coords()[:, 0])
    a2 = np.zeros((g2.sites, 3, 3), complex)
    a2[:, 0, 2] = a2[:, 2, 0] = 1.0 + 0.5 * np.sin(math.pi * g2.coords()[:, 0])
    b2 = np.array([[0.5, 0.2j, 0.0], [-0.2j, -0.3, 1.0], [0.0, 1.0, 0.1]])
    cases = [(maxwell_system_3d(g3), ([1, 2, 4, 5], [0, 2, 3, 5], [0, 1, 3, 4])),
             (make_system(g1, np.eye(3), [a]), ([0, 2],)),
             (make_system(g1, np.eye(3), [np.ones((3, 3))]), (None,)),
             # a zero row and column 0: reads columns 1 and 2
             (make_system(g1, np.eye(3), [np.array([[0.0, 0.0, 0.0],
                                                    [0.0, 0.5, 0.2j],
                                                    [0.0, -0.2j, 0.0]])]),
              ([1, 2],)),
             # a per-site A^1 beside a site-constant A^2 that reads every
             # column: sys.spatial is a per-site stack
             (make_system(g2, np.eye(3), [a2, b2, np.zeros((3, 3))]),
              ([0, 2], None))]
    rng = np.random.default_rng(4)
    for sys, reads in cases:
        assert [None if c is None else c.tolist() for _, c in sys.live] \
            == list(reads)
        width = sum(sys.grid.fiber if c is None else len(c) for c in reads)
        assert sys.spatial.shape[-2:] == (sys.grid.fiber, width)
        for lead in ((), (3,)):
            shape = lead + (sys.grid.sites, sys.grid.fiber)
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            full = _full_column_terms(sys, v)
            total, s_psi, rhs = 0.0, d, d
            for term in full:        # in the order of the per-axis sum
                total, s_psi, rhs = total + term, s_psi + term, rhs - term
            got = (_spatial_product(sys, v), apply_S(sys, v, d),
                   evolution_rhs(sys, v, d))
            for have, want in zip(got, (total, s_psi, rhs)):
                if len(reads) == 1:
                    assert np.all(have == want)
                else:
                    scale = float(np.max(np.abs(want)))
                    assert float(np.max(np.abs(have - want))) <= \
                        _STACKED_RTOL * scale
