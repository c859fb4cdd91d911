"""Coefficient validation, adjoint identities, and JSON round-trips."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypnl import systems
from hypnl.grids import InnerWeight, StateField, diff4, make_grid
from hypnl.scenarios import CounterexampleConfig, build_counterexample
from hypnl.systems import (PROFILES, SystemError, adjoint_defect, apply_S,
                           evolution_rhs, inner_weight, make_system,
                           ode_system, symbol_divergence, system_from_json,
                           system_to_json, transport_system, validate_system,
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
    assert rep.symmetric and rep.hyperbolic and rep.ok
    assert rep.adjoint_defect <= 1e-12
    assert all(me > 0 for _, me in rep.min_eig_samples)


def test_superluminal_coefficient_fails_hyperbolicity():
    """A0 + alpha A1 loses positivity once |A1| eigenvalues exceed 1/|alpha|;
    speed 2 transport is caught by the sampled-direction check."""
    g = make_grid(1, 2.0 * math.pi, 64, 1)
    rep = validate_system(transport_system(g, speed=2.0))
    assert rep.symmetric and not rep.hyperbolic and not rep.ok


def test_nonhermitian_coefficient_fails_symmetry():
    g = make_grid(1, 1.0, 8, 2)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    rep = validate_system(make_system(g, np.eye(2), [bad]))
    assert not rep.symmetric


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
    d = adjoint_defect(sys, _rand_field(g, seed), _rand_field(g, seed + 1), 0.0)
    assert d <= 1e-11


def test_adjoint_identity_fails_upwind():
    g = make_grid(1, 2.0 * math.pi, 32, 1)
    sys = transport_system(g)
    a, b = _rand_field(g, 3), _rand_field(g, 4)
    assert adjoint_defect(sys, a, b, 0.0, stencil="upwind") > 1e-2
    assert adjoint_defect(sys, a, b, 0.0) <= 1e-12


def test_symbol_divergence_zero_for_constant_coefficients():
    g = make_grid(1, 1.0, 16, 2)
    sys = make_system(g, np.eye(2), [SIGMA1])
    assert not np.any(symbol_divergence(sys, 0.0))


def test_zero_order_matrices_diag():
    """S0 = diag(1, 0) gives the zero-order operator -(S0 + S0^dagger) with
    uniform bound 2 (identity A0 and unit lapse)."""
    g = make_grid(1, 1.0, 8, 2)
    sys = ode_system(g, np.diag([1.0, 0.0]))
    z = zero_order_matrices(sys, 0.0)
    np.testing.assert_allclose(
        z, np.broadcast_to(np.diag([-2.0, 0.0]), z.shape), atol=1e-14)


def test_inner_weight_is_beta_A0():
    g = make_grid(1, 1.0, 8, 2)
    A0 = np.diag([2.0, 1.0])
    sys = make_system(g, A0, [np.zeros((2, 2))], beta=3.0 * np.ones(g.sites))
    w = inner_weight(sys)
    np.testing.assert_allclose(
        w.weight, np.broadcast_to(3.0 * A0, w.weight.shape), atol=1e-14)


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
    formulas, on constant and on site-varying systems."""
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
    inv = np.linalg.inv(sys.A0)
    assert sys.A0_inv.shape == (g.sites, 3, 3)
    assert sys.A0_inv.tobytes() == inv.tobytes()
    v_max = max(float(np.max(np.abs(np.linalg.eigvals(inv @ a))))
                for a in sys.Aj)
    assert sys.v_max == v_max
    assert v_max > 0.0


def test_non_hermitian_A0_rejected():
    g = make_grid(1, 1.0, 8, 2)
    with pytest.raises(SystemError, match="Hermitian"):
        make_system(g, np.array([[2.0, 1.0], [0.0, 2.0]]), [np.zeros((2, 2))])
    a0 = np.broadcast_to(np.eye(2), (g.sites, 2, 2)).copy()
    a0[3, 0, 1] = 0.5
    with pytest.raises(SystemError, match="Hermitian"):
        make_system(g, a0, [np.zeros((2, 2))])

def test_json_roundtrip_constant():
    g = make_grid(1, 2.0 * math.pi, 64, 2)
    sys = make_system(g, np.diag([2.0, 1.0]), [SIGMA1], S0=0.3j * SIGMA3,
                      name="probe")
    doc = system_to_json(sys)
    back = system_from_json(doc)
    assert back.name == "probe"
    assert back.grid == g
    np.testing.assert_array_equal(back.A0, sys.A0)
    np.testing.assert_array_equal(back.Aj[0], sys.Aj[0])
    np.testing.assert_array_equal(back.S0, sys.S0)


def test_json_varying_coefficient_needs_profile():
    g = make_grid(1, 1.0, 8, 1)
    a = np.ones((g.sites, 1, 1), complex)
    a[0, 0, 0] = 2.0
    sys = make_system(g, np.ones((1, 1)), [a])
    with pytest.raises(SystemError):
        system_to_json(sys)


# ---------------------------------------------------------------------------
# the stepping plan against the per-site reference formulas

def _site_apply(m, v):
    return np.einsum("sfg,sg->sf", m, v)


def _rhs_reference(sys, values, t, source):
    acc = np.zeros_like(values)
    if source is not None:
        acc += source
    s0 = sys.S0_at(t)
    if s0 is not None:
        acc += _site_apply(s0, values)
    for j, a in enumerate(sys.Aj):
        acc -= _site_apply(a, diff4(sys.grid, values, j))
    return _site_apply(sys.A0_inv, acc)


def _apply_S_reference(sys, values, dpsi_dt, t):
    out = _site_apply(sys.A0, dpsi_dt)
    for j, a in enumerate(sys.Aj):
        out += _site_apply(a, diff4(sys.grid, values, j))
    s0 = sys.S0_at(t)
    if s0 is not None:
        out -= _site_apply(s0, values)
    return out


def _herm(rng, f):
    m = rng.standard_normal((f, f)) + 1j * rng.standard_normal((f, f))
    return 0.5 * (m + m.conj().T)


def _plan_case(name):
    """Random systems covering each way the plan compacts a coefficient."""
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
    elif name == "S0_t":
        s0 = _herm(rng, 2)
        kw["S0_t"] = lambda t: np.broadcast_to(np.cos(t) * s0 + 1j * t * np.eye(2),
                                               (g.sites, 2, 2))
    elif name == "beta":
        A0 = pos
        kw["beta"] = 1.0 + 0.5 * np.cos(math.pi * x)
        kw["S0"] = np.eye(2)
    return make_system(g, A0, Aj, **kw), rng


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize("name", ["zero_Aj", "zero_axis_3d", "offset_sin",
                                  "site_A0", "S0_t", "beta"])
def test_plan_matches_per_site_formulas(name):
    sys, rng = _plan_case(name)
    g = sys.grid

    def field(*lead):
        shape = lead + (g.sites, g.fiber)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v, src = field(), field()
    for t, source in ((0.3, None), (0.7, src)):
        assert _close(evolution_rhs(sys, v, t, source),
                      _rhs_reference(sys, v, t, source))
    stack, dstack = field(4), field(4)
    times = np.array([-0.5, 0.0, 0.25, 1.5])
    ref = np.stack([_apply_S_reference(sys, a, b, t)
                    for a, b, t in zip(stack, dstack, times)])
    assert _close(apply_S(sys, stack[1], dstack[1], 0.0), ref[1])
    assert _close(apply_S(sys, stack, dstack, times), ref)


def test_plan_compacts_coefficients():
    g = make_grid(1, 1.0, 16, 2)
    plan = make_system(g, np.eye(2), [SIGMA1], S0=np.eye(2)).plan
    assert plan.A0 is None and plan.A0_inv is None
    assert [j for j, _ in plan.Aj] == [0] and plan.Aj[0][1].shape == (2, 2)
    # an identity S0 is a live term, not an absent one
    np.testing.assert_array_equal(plan.S0, np.eye(2))
    plan = make_system(g, np.diag([2.0, 4.0]), [np.zeros((2, 2))],
                       S0=np.zeros((2, 2))).plan
    assert plan.Aj == () and plan.S0 is None
    np.testing.assert_array_equal(plan.A0_inv, np.diag([0.5, 0.25]))
    assert transport_system(make_grid(1, 1.0, 16, 1)).plan.Aj[0][1] is None


def test_counterexample_plan_has_no_spatial_term():
    sys, _, _, _ = build_counterexample(
        CounterexampleConfig(points=16, steps_per_delta=16, T=0.5, W=0.5))
    plan = sys.plan
    assert plan.Aj == () and plan.S0 is None
    assert plan.A0 is None and plan.A0_inv is None


def _full_column_terms(sys, values):
    """A^j D_j psi for every live A^j with every column differentiated."""
    from hypnl.systems import _fiber_apply
    return [_fiber_apply(a, diff4(sys.grid, values, j)) for j, a in sys.plan.Aj]


def test_spatial_terms_read_only_live_columns():
    """Each A^j differentiates only the columns it reads (Maxwell: 4 of 6
    per axis), and apply_S and evolution_rhs equal the full products, with
    == (so up to signed zeros) on finite values: the dropped terms are exact
    zeros, and the kept ones are summed in the same order."""
    from hypnl.scenarios import maxwell_system_3d
    from hypnl.systems import _spatial_terms
    g3 = make_grid(3, 2.0 * math.pi, 8, 6)
    g1 = make_grid(1, 2.0, 16, 3)
    a = np.zeros((g1.sites, 3, 3), complex)
    a[:, 0, 2] = a[:, 2, 0] = 1.0 + 0.5 * np.sin(math.pi * g1.coords()[:, 0])
    cases = [(maxwell_system_3d(g3), ([1, 2, 4, 5], [0, 2, 3, 5], [0, 1, 3, 4])),
             (make_system(g1, np.eye(3), [a]), ([0, 2],)),
             (make_system(g1, np.eye(3), [np.ones((3, 3))]), (None,)),
             # not Hermitian, so its rows and columns differ: reads column 1
             (make_system(g1, np.eye(3), [np.diag([1.0, 0.0], k=1)]), ([1],))]
    rng = np.random.default_rng(4)
    for sys, reads in cases:
        assert [None if c is None else c.tolist() for c in sys.plan.reads] \
            == list(reads)
        for lead in ((), (3,)):
            shape = lead + (sys.grid.sites, sys.grid.fiber)
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            full = _full_column_terms(sys, v)
            for got, want in zip(_spatial_terms(sys, v), full):
                assert np.all(got == want)
            s_psi, rhs = d, d
            for term in full:        # in the order apply_S and the rhs sum
                s_psi, rhs = s_psi + term, rhs - term
            t = np.zeros(lead) if lead else 0.0
            assert np.all(apply_S(sys, v, d, t) == s_psi)
            assert np.all(evolution_rhs(sys, v, 0.0, d) == rhs)
