"""Scenario-level invariants that do not need the heavy baseline bundles:
algebraic identities, closed-form profiles, and small-size oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import fold_output_op
from hypnl.grids import (Grid, StateField, Trajectory, diff4, frame_norms_sq,
                         make_grid, norm_strip, sample_trajectory)
from hypnl.kernels import (ConvTerm, adjoint, make_modulated,
                           make_separable, threshold_margin)
from hypnl.systems import inner_weight, make_system, validate_system
from hypnl.solver import SolveOptions, solve_local
from hypnl.scenarios import (GAMMA0, GAMMA1, MINKOWSKI_G, SPIN_METRIC,
                             CounterexampleConfig, DiracConfig,
                             _dirac_potentials, _dirac_sup_C, bump,
                             bump_dot,
                             build_counterexample, clifford_defect,
                             counterexample_oracle, curl4, dirac_kernel,
                             dirac_system, div4,
                             drude_lorentz, extended_system_check,
                             kernel_symmetry_defect, MAXWELL_MODES,
                             MaxwellConfig, maxwell_kernel, maxwell_problem,
                             maxwell_system_1d, maxwell_system_3d,
                             maxwell_volterra, ScenarioError,
                             spin_symmetry_defect, stencil_wavenumber,
                             surface_layer_product, surface_layer_series,
                             volterra_oracle)


# ---------------------------------------------------------------------------
# profiles

def test_bump_properties():
    u = np.linspace(-2.0, 2.0, 401)
    v = bump(u)
    assert np.all(v[np.abs(u) >= 1.0] == 0.0)
    assert bump(np.array([0.0]))[0] == pytest.approx(1.0)
    # derivative consistency by central differences
    h = 1e-6
    for x in (0.3, -0.7, 0.95):
        num = (bump(np.array([x + h]))[0] - bump(np.array([x - h]))[0]) / (2 * h)
        assert bump_dot(np.array([x]))[0] == pytest.approx(num, abs=1e-5)


def _masked_bump(u):
    """The boolean-mask bump and bump_dot that the mask-free forms replace."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    q = 1.0 - ui * ui
    b, d = np.zeros_like(u), np.zeros_like(u)
    b[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    d[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * ui / (q * q))
    return b, d


def test_bump_is_bitwise_the_masked_form():
    """Arrays and 0-d input, on and off the support: |u| = 1, just past it
    (where exp(1 - 1/q) overflows), far past it (where u^2 overflows),
    infinities and NaN. Any RuntimeWarning fails the test."""
    one = np.nextafter(1.0, 2.0)
    u = np.concatenate([np.linspace(-1.5, 1.5, 3001),
                        [1.0, -1.0, one, -one, np.nextafter(1.0, 0.0),
                         1.0 + 1e-5, 0.0, -0.0, 1e-200, 1e200, -1e200,
                         np.inf, -np.inf, np.nan]])
    want_b, want_d = _masked_bump(u)
    assert bump(u).tobytes() == want_b.tobytes()
    assert bump_dot(u).tobytes() == want_d.tobytes()
    for x in u[::7].tolist() + u[-14:].tolist():
        got_b, got_d = bump(x), bump_dot(np.float64(x))
        assert got_b.shape == got_d.shape == ()
        b, d = _masked_bump(np.asarray(x))
        assert (got_b.tobytes(), got_d.tobytes()) == (b.tobytes(), d.tobytes())
    u2 = u[-14:].reshape(2, 7)
    assert bump(u2).shape == bump_dot(u2).shape == (2, 7)
    assert bump(u2).tobytes() == _masked_bump(u2)[0].tobytes()


def test_stencil_wavenumber_limits():
    assert stencil_wavenumber(2.0, 0.01) == pytest.approx(2.0, abs=1e-6)
    # the modified wavenumber always undershoots the exact one
    assert stencil_wavenumber(2.0, 0.5) < 2.0


# ---------------------------------------------------------------------------
# Dirac algebra

def test_clifford_relations():
    assert clifford_defect() <= 1e-14
    for mu, gam_mu in enumerate((GAMMA0, GAMMA1)):
        for nu, gam_nu in enumerate((GAMMA0, GAMMA1)):
            anti = gam_mu @ gam_nu + gam_nu @ gam_mu
            np.testing.assert_allclose(
                anti, -2.0 * MINKOWSKI_G[mu, nu] * np.eye(2), atol=1e-14)


def test_spin_metric_symmetry():
    assert spin_symmetry_defect() <= 1e-14
    # the spin metric itself is Hermitian
    np.testing.assert_array_equal(SPIN_METRIC, SPIN_METRIC.conj().T)


def test_dirac_system_validates():
    g = make_grid(1, 2.0 * math.pi, 64, 2)
    rep = validate_system(dirac_system(g, mass=0.5))
    assert rep.ok and rep.adjoint_defect <= 1e-11


# ---------------------------------------------------------------------------
# Maxwell building blocks

def test_maxwell_systems_validate():
    g1 = make_grid(1, 2.0 * math.pi, 64, 2)
    assert validate_system(maxwell_system_1d(g1)).ok
    g3 = make_grid(3, 2.0 * math.pi, 8, 6)
    assert validate_system(maxwell_system_3d(g3)).ok


@pytest.mark.parametrize("mode", sorted(MAXWELL_MODES))
def test_maxwell_problem_of_each_mode(mode):
    """The 3D modes solve on a fiber-6 torus, the others on a fiber-2
    line; only the vacuum modes have no memory; T is snapped to the dt
    lattice of the mode's default dt."""
    cfg = MaxwellConfig(points=8, T=1.0)
    sys, kern, opts, T = maxwell_problem(cfg, mode)
    assert (sys.grid.dim, sys.grid.fiber) == \
        ((3, 6) if mode.endswith("_3d") else (1, 2))
    assert (kern is None) == mode.startswith("vacuum")
    dt = 1.0 / 8192 if mode == "volterra" else 0.25 * sys.grid.spacing
    assert opts.dt == dt and T == round(1.0 / dt) * dt
    with pytest.raises(ScenarioError, match="unknown Maxwell mode"):
        maxwell_problem(cfg, "vacuum")


def test_maxwell_mode_called_directly_builds_its_own_problem():
    """A mode function builds its own problem whatever cfg.mode says:
    maxwell_volterra on a config left at mode vacuum_1d still integrates
    the memory and matches the Volterra oracle."""
    cfg = MaxwellConfig(points=8, T=0.25, dt=0.25 / 512)
    assert cfg.mode == "vacuum_1d"
    out = maxwell_volterra(cfg)
    assert out["volterra_error"] <= 1e-6
    assert abs(out["series"][-1] - 1.0) > 1e-3     # E has moved


def test_div_of_curl_vanishes_exactly():
    """div4 and curl4 are built from commuting shift operators, so the
    composition is zero to round-off, not just to truncation order."""
    g = make_grid(3, 2.0 * math.pi, 12, 3)
    rng = np.random.default_rng(np.random.Philox(2))
    # smooth few-mode random vector field
    x = g.coords()
    w = np.zeros((g.sites, 3), complex)
    for _ in range(4):
        kvec = rng.integers(-2, 3, size=3)
        amp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w += np.exp(1j * (x @ kvec)) [:, None] * amp
    c = curl4(g, w)
    d = div4(g, c)
    assert np.max(np.abs(d)) <= 1e-12 * max(1.0, float(np.max(np.abs(c))))


def test_div4_of_a_stack_is_the_per_frame_divergence():
    """One div4 over a frame stack, each axis differentiating only its own
    column, is bitwise the per-frame divergence that differentiates every
    column along every axis."""
    g = make_grid(3, 2.0 * math.pi, 16, 6)
    rng = np.random.default_rng(np.random.Philox(5))
    vals = (rng.standard_normal((32, g.sites, 6))
            + 1j * rng.standard_normal((32, g.sites, 6)))
    g3 = Grid(3, g.extent, g.points, 3)
    for cols in (slice(0, 3), slice(3, 6)):
        ref = np.stack([sum(diff4(g3, v[:, cols], ax)[:, ax]
                            for ax in range(3)) for v in vals])
        assert np.array_equal(div4(g, vals[..., cols]), ref)
        assert np.array_equal(div4(g, vals[7][:, cols]), ref[7])


def test_drude_lorentz_derivative():
    chi, chi_dot = drude_lorentz(0.3, 1.0, 2.0)
    assert chi(0.0) == pytest.approx(0.0)
    h = 1e-6
    for t in (0.1, 0.7, 2.0):
        num = (chi(t + h) - chi(t - h)) / (2 * h)
        assert chi_dot(t) == pytest.approx(num, abs=1e-6)


def test_volterra_oracle_against_stiff_integrator():
    """The dense-trapezoid Volterra solver agrees with an adaptive
    integration of the equivalent augmented ODE system for the
    exponential-times-sine memory."""
    chi0, c1, c2 = 0.2, 1.0, 2.0
    _, chi_dot = drude_lorentz(chi0, c1, c2)
    T, dt = 3.0, 3.0 / 4096.0
    e = volterra_oracle(chi_dot, T, dt)
    times = np.arange(len(e)) * dt

    # e' = -m(t), m(t) = int_0^t chi_dot(t-s) e(s) ds; chi_dot solves a
    # linear 2nd-order ODE, so m does too with e as forcing:
    # m'' + 2 c1 m' + (c1^2 + c2^2) m = chi0 c2 (e' + c1 e) + ... easier:
    # carry p = int chi_dot'' ... integrate the 4-dim linear system directly
    def rhs(t, y):
        ev, m, q = y
        # q = int_0^t d/dt chi_dot(t-s) e(s) ds
        # m' = chi_dot(0) e + q ; q' = chi_dot'(0) e + r with the 2nd-order
        # closure chi_dot'' = -2 c1 chi_dot' - (c1^2+c2^2) chi_dot
        cd0 = chi0 * c2
        cdp0 = -2.0 * c1 * chi0 * c2 + chi0 * 0.0  # chi_dot'(0)
        del cdp0
        return [-m,
                cd0 * ev + q,
                (-2.0 * c1 * cd0) * ev + (-2.0 * c1) * q
                - (c1 * c1 + c2 * c2) * m]

    sol = solve_ivp(rhs, (0.0, T), [1.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    ref = sol.sol(times)[0]
    # Heun + trapezoid memory is second order: ~6e-8 at this dt
    assert np.max(np.abs(e - ref)) <= 2e-7


# ---------------------------------------------------------------------------
# counterexample building blocks (coarse, fast settings)

@pytest.fixture(scope="module")
def coarse_cx():
    return CounterexampleConfig(steps_per_delta=64, points=32, n_max=6)


def test_counterexample_source_normalized(coarse_cx):
    sys, k, f_tr, opts = build_counterexample(coarse_cx)
    w = inner_weight(sys)
    # ||f||_strip over [0, T] is calibrated to 1 on the solve lattice
    lo = f_tr.index_of(0.0)
    hi = f_tr.index_of(coarse_cx.T)
    from hypnl.grids import Trajectory
    strip = Trajectory(sys.grid, f_tr.dt, 0, f_tr.values[lo:hi + 1])
    assert norm_strip(strip, w) == pytest.approx(1.0, rel=1e-10)


def test_counterexample_oracle_is_time_integral(coarse_cx):
    """The closed-form solution is the running time integral of the source
    profile; cross-check with direct trapezoid integration of f itself."""
    sys, k, f_tr, opts = build_counterexample(coarse_cx)
    orc = counterexample_oracle(coarse_cx)
    # crude trapezoid of f on its own lattice
    run = np.zeros_like(f_tr.values)
    for i in range(1, f_tr.n_frames):
        run[i] = run[i - 1] + 0.5 * f_tr.dt * (f_tr.values[i - 1]
                                               + f_tr.values[i])
    i0 = f_tr.index_of(0.0)
    run -= run[i0]
    run[:i0] = 0.0
    gap = np.max(np.abs(orc.values - run))
    scale = float(np.max(np.abs(orc.values)))
    # the crude lattice trapezoid of the steep bump sits ~5e-4 away from the
    # 16x oversampled oracle at steps_per_delta=64; O(dt^2) overall
    assert gap <= 1e-3 * scale


def test_counterexample_report_samples_profiles_once(coarse_cx, monkeypatch):
    """The divergent run, the witness, the oracle and the family share one
    sampling of the profiles; the kernels and the oracle built from it equal
    those of the public builders bitwise."""
    from hypnl import scenarios
    calls = []
    sample = scenarios._counterexample_profiles

    def counted(cfg):
        calls.append(cfg)
        return sample(cfg)

    monkeypatch.setattr(scenarios, "_counterexample_profiles", counted)
    rep = scenarios.counterexample_report(coarse_cx)
    assert len(calls) == 1
    assert set(rep["family"]) == {0.1, 0.25, 0.5}

    profiles = sample(coarse_cx)
    f_tr = profiles[2]
    for eps in (coarse_cx.epsilon, 0.25):
        cfg = CounterexampleConfig(**{**coarse_cx.__dict__, "epsilon": eps})
        shared = scenarios._counterexample_kernel(cfg, profiles)
        public = build_counterexample(cfg)[1]
        assert np.array_equal(shared.apply_all(f_tr), public.apply_all(f_tr))
    assert np.array_equal(
        scenarios._counterexample_oracle(coarse_cx, profiles).values,
        counterexample_oracle(coarse_cx).values)


def test_counterexample_pairing_matches_reapplied_kernel(coarse_cx,
                                                        monkeypatch):
    """The pairings from the loop's partial sum and B partial sum against
    the old monitor, which kept its own partial sum and re-applied B to it:
    within 1e-12 of the largest pairing. The report makes one apply_all per
    iterate of its four Dyson runs and no other."""
    from hypnl import scenarios
    from hypnl.dyson import dyson_short_range, equation_defect
    from hypnl.kernels import TimeKernel
    calls = []
    apply_all = TimeKernel.apply_all

    def counted(self, tr):
        calls.append(tr.n_frames)
        return apply_all(self, tr)

    monkeypatch.setattr(TimeKernel, "apply_all", counted)
    rep = scenarios.counterexample_report(coarse_cx)
    runs = [rep["divergent"]] + [f["result"] for f in rep["family"].values()]
    assert len(calls) == sum(r.n_used + 1 for r in runs)
    monkeypatch.setattr(TimeKernel, "apply_all", apply_all)

    sys, k, f_tr, opts = build_counterexample(coarse_cx)
    w = inner_weight(sys)
    want, holder = [], []

    def reapplied(n, psi, total, b_total):
        holder[:] = [psi if n == 0 else holder[0].plus(psi)]
        d = equation_defect(sys, k.apply_all(holder[0]), holder[0], f_tr)
        want.append(scenarios._strip_pair(d, f_tr, w))

    cx = coarse_cx
    dyson_short_range(sys, k, f_tr, StateField(sys.grid, 0.0,
                                               sys.grid.zeros()),
                      cx.T, opts, tol=cx.tol, tol_residual=cx.tol_residual,
                      n_max=cx.n_max, W=cx.W, n_min=cx.n_max + 1,
                      constants={"C_est": rep["C_est"], "D": 0.0},
                      monitor=reapplied)
    got = np.array(rep["obstruction_pairings"])
    assert len(got) == len(want) == rep["divergent"].n_used + 1
    want = np.array(want)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.max(np.abs(want)))


def test_counterexample_pairing_on_f_span_matches_full_frames(coarse_cx,
                                                              monkeypatch):
    """The obstruction pairing takes the defect on f's nonzero span and one
    frame either side, fewer frames than the partial sum's interior; it
    agrees with the pairing over every interior frame to 1e-14 of the
    largest modulus."""
    from hypnl import scenarios
    defect = scenarios.equation_defect
    frames = []

    def recorded(sys, b_psi, psi, phi, strip=None):
        d = defect(sys, b_psi, psi, phi, strip)
        frames.append((d.n_frames, psi.n_frames))
        return d

    monkeypatch.setattr(scenarios, "equation_defect", recorded)
    got = np.array(scenarios.counterexample_report(coarse_cx)
                   ["obstruction_pairings"])
    assert all(n < total - 2 for n, total in frames)
    monkeypatch.setattr(scenarios, "equation_defect",
                        lambda sys, b_psi, psi, phi, strip=None:
                        defect(sys, b_psi, psi, phi))
    want = np.array(scenarios.counterexample_report(coarse_cx)
                    ["obstruction_pairings"])
    assert len(got) == len(want) > 1
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-14 * np.max(np.abs(want)))


def _counterexample_profiles_per_frame(cfg):
    """Reference for scenarios._counterexample_profiles: f and f_dot sampled
    through sample_trajectory, one fn(t, x) call per frame."""
    grid = make_grid(1, cfg.extent, cfg.points, 1)
    dt = cfg.dt
    i_lo = -round(cfg.W / dt)
    n_frames = round((cfg.T + 2 * cfg.W) / dt) + 1
    d4, L = cfg.delta / 4.0, cfg.extent

    def b_x(x):
        return bump((x - L / 2.0) / (L / 4.0))

    def f_fn(t, x):
        return (bump((np.asarray(t) - d4) / d4)
                * b_x(x[:, 0]))[:, None].astype(complex)

    def fdot_fn(t, x):
        return (bump_dot((np.asarray(t) - d4) / d4) / d4
                * b_x(x[:, 0]))[:, None].astype(complex)

    f_tr = sample_trajectory(grid, f_fn, dt, i_lo, n_frames)
    fdot_tr = sample_trajectory(grid, fdot_fn, dt, i_lo, n_frames)
    sys = make_system(grid, np.ones((1, 1)), [np.zeros((1, 1))])
    c_n = 1.0 / norm_strip(f_tr, inner_weight(sys))
    return f_tr.scaled(c_n), fdot_tr.scaled(c_n), c_n


@pytest.mark.parametrize("cfg", [
    CounterexampleConfig(),
    CounterexampleConfig(points=48, delta=0.3, T=0.5, W=0.25,
                         steps_per_delta=40)])
def test_counterexample_profiles_match_per_frame_sampling(cfg):
    """One bump and one bump_dot call over all frame times give the bytes of
    the per-frame sample_trajectory path."""
    from hypnl.scenarios import _counterexample_profiles
    _, _, f_tr, fdot_tr, c_n = _counterexample_profiles(cfg)
    f_ref, fdot_ref, c_ref = _counterexample_profiles_per_frame(cfg)
    assert c_n == c_ref
    for got, ref in ((f_tr, f_ref), (fdot_tr, fdot_ref)):
        assert (got.dt, got.index0) == (ref.dt, ref.index0)
        assert got.values.dtype == ref.values.dtype
        assert got.values.tobytes() == ref.values.tobytes()


# ---------------------------------------------------------------------------
# surface-layer product

def test_surface_product_without_kernel_is_slice_norm():
    g = make_grid(1, 2.0 * math.pi, 64, 2)
    sys = dirac_system(g, 0.5)
    opts = SolveOptions(dt=0.25 * g.spacing)
    rng = np.random.default_rng(np.random.Philox(9))
    v = (rng.standard_normal((g.sites, 2)) + 1j * rng.standard_normal((g.sites, 2)))
    tr = solve_local(sys, None, StateField(g, 0.0, v), 0.0, 32 * opts.dt, opts)
    w = inner_weight(sys)
    t_n = 16 * opts.dt
    val = surface_layer_product(tr, None, t_n)
    assert val == pytest.approx(frame_norms_sq(tr, w)[16], rel=1e-12)


def test_surface_product_with_dirac_kernel_matches_double_sum():
    """The delta-slab apply_all against the double trapezoid of the formula,
    written with the frame operator over the whole trajectory: the inner
    integral runs over the tau frames the kernel admits (half weights at
    their ends) with the t_N frame halved, the outer one over the slab
    [t_N - delta, t_N]."""
    cfg = DiracConfig(points=32, delta=0.25, T=0.5)
    g = make_grid(1, cfg.extent, cfg.points, 2)
    kern, _ = dirac_kernel(cfg, g)
    dt = 0.25 * g.spacing
    d = int(math.floor(cfg.delta / dt + 1e-9))
    rng = np.random.default_rng(np.random.Philox(4))
    n = 4 * d + 3
    vals = (rng.standard_normal((n, g.sites, 2))
            + 1j * rng.standard_normal((n, g.sites, 2)))
    tr = Trajectory(g, dt, -2 * d, vals)
    iN = 2 * d + 1
    dv = g.cell_volume
    corr = 0.0
    for i in range(iN - d, iN + 1):
        w_i = dt * (0.5 if i in (iN - d, iN) else 1.0)
        js = [j for j in range(n) if kern._admissible(tr.time(i), tr.time(j))]
        for pos, j in enumerate(js):
            if j < iN:
                continue
            w_j = dt * (0.5 if pos in (0, len(js) - 1) else 1.0)
            w_j *= 0.5 if j == iN else 1.0
            bv = kern.pair_apply(tr.time(i), tr.time(j), vals[j])
            corr += w_i * w_j * np.vdot(vals[i], bv).real * dv
    nsq = np.vdot(vals[iN], vals[iN]).real * dv
    val = surface_layer_product(tr, kern, tr.time(iN))
    assert corr != 0.0
    assert val == pytest.approx(nsq - 2.0 * corr, rel=1e-12)


def _slab_surface_product(tr, k, t_N):
    """Reference for surface_layer_series: the delta-slab apply_all it
    replaced, one t_N at a time. The future half of the slab around t_N,
    with the t_N frame halved, goes through apply_all; the outer trapezoid
    runs over [t_N - delta, t_N]."""
    dv = tr.grid.cell_volume
    iN = tr.index_of(t_N)
    nsq = float(np.einsum("sf,sf->", np.conj(tr.values[iN]),
                          tr.values[iN]).real * dv)
    d = int(math.floor(k.delta / tr.dt + 1e-9))
    fut = tr.values[iN - d:iN + d + 1].copy()
    fut[:d] = 0.0
    fut[d] *= 0.5
    bf = k.apply_all(Trajectory(tr.grid, tr.dt, tr.index0 + iN - d,
                                fut))[:d + 1]
    w = np.full(d + 1, tr.dt)
    w[0] = w[-1] = 0.5 * tr.dt
    per = np.einsum("isf,isf->i", np.conj(tr.values[iN - d:iN + 1]),
                    bf).real * dv
    return nsq - 2.0 * float(np.dot(w, per))


_POST = np.array([[1.0, 0.5j], [-0.25, 2.0]])


def _surface_case(name, g, t_mid):
    """Kernels of every kind and flag combination on the Dirac grid; the
    ones with the output operator _POST folded in carry a part of B_{t,t}
    that is not anti-Hermitian, so the lag-0 pairs add to the product."""
    cfg = DiracConfig(points=g.points, delta=0.25, T=0.5)
    _, chi_dot = drude_lorentz(2.0, 1.0, 2.0)
    if name == "dirac":
        return dirac_kernel(cfg, g)[0]
    if name == "dirac_post":
        return fold_output_op(dirac_kernel(cfg, g)[0], _POST)
    if name == "retarded":
        return dataclasses.replace(
            fold_output_op(maxwell_kernel(g, chi_dot, 0.2), _POST),
            switch_on=-math.inf)
    if name == "advanced":
        return adjoint(maxwell_kernel(g, chi_dot, 0.3))
    if name == "switch_on":
        return dataclasses.replace(
            fold_output_op(dirac_kernel(cfg, g)[0], _POST), switch_on=t_mid)
    if name in ("dense", "dense_retarded_switch_on"):
        # the operator these cases once gave as a callback of all (t, tau)
        # pairs, 20 (cos 3(t - tau) + i sin(t + tau + x)) M, as three terms
        x = g.coords()[:, 0]
        mat = np.array([[0.5, 1.0], [-2.0j, 1.0]])
        terms = [ConvTerm(None, lambda z: 20.0 * np.cos(3.0 * z), None,
                          (None, mat))]
        for sign in (1.0, -1.0):
            terms.append(ConvTerm(lambda t, s=sign: np.exp(1j * s * t),
                                  lambda z, s=sign: 10.0 * s,
                                  lambda tau, s=sign: np.exp(1j * s * tau),
                                  (np.exp(1j * sign * x), mat)))
        if name == "dense":
            return make_modulated(g, terms, delta=0.2)
        return fold_output_op(
            make_modulated(g, terms, retarded=True, delta=0.25,
                           switch_on=t_mid), _POST)
    if name == "separable":
        x = g.coords()[:, 0]

        def gfn(t, coords):
            return np.stack([np.exp(-t * t) * np.sin(x), 1j * np.cos(t + x)],
                            axis=1)

        def hfn(t, coords):
            return np.stack([np.cos(2.0 * t) + 0.0 * x,
                             1.0 + 0.3 * np.cos(x - t)], axis=1)
        prof = [sample_trajectory(g, fn, 0.25 * g.spacing, -40, 200)
                for fn in (gfn, hfn)]
        k = make_separable(prof, prof[::-1])
        return dataclasses.replace(fold_output_op(k, 20.0 * _POST),
                                   delta=0.2)
    raise ValueError(name)


@pytest.mark.parametrize("name", [
    "dirac", "dirac_post", "retarded", "advanced", "switch_on", "dense",
    "dense_retarded_switch_on", "separable"])
def test_surface_series_matches_slab_oracle(name):
    """The one-band series against the slab apply_all at every admissible
    t_N, the first and the last included, to 1e-12 of the series maximum;
    the correction to the slice norm is far above that tolerance."""
    g = make_grid(1, 2.0 * math.pi, 32, 2)
    dt = 0.25 * g.spacing
    rng = np.random.default_rng(np.random.Philox(21))
    n = 40
    vals = (rng.standard_normal((n, g.sites, 2))
            + 1j * rng.standard_normal((n, g.sites, 2)))
    tr = Trajectory(g, dt, -17, vals)
    k = _surface_case(name, g, tr.time(n // 2))
    d = int(math.floor(k.delta / dt + 1e-9))
    times = [tr.time(i) for i in range(d, n - d)]
    ref = np.array([_slab_surface_product(tr, k, t) for t in times])
    got = surface_layer_series(tr, k, times)
    scale = float(np.max(np.abs(ref)))
    corr = ref - surface_layer_series(tr, None, times)
    assert float(np.max(np.abs(corr))) > 1e-5 * scale
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)


def test_surface_product_is_one_point_series():
    """surface_layer_product is the series at one t_N, and agrees with that
    t_N's entry of a longer series; a t_N whose slab leaves the trajectory
    is refused."""
    g = make_grid(1, 2.0 * math.pi, 32, 2)
    dt = 0.25 * g.spacing
    rng = np.random.default_rng(np.random.Philox(22))
    vals = (rng.standard_normal((30, g.sites, 2))
            + 1j * rng.standard_normal((30, g.sites, 2)))
    tr = Trajectory(g, dt, 3, vals)
    k = _surface_case("dirac_post", g, 0.0)
    d = int(math.floor(k.delta / dt + 1e-9))
    times = [tr.time(i) for i in range(d, 30 - d)]
    series = surface_layer_series(tr, k, times)
    for t, s in zip(times, series):
        one = surface_layer_product(tr, k, t)
        assert one == float(surface_layer_series(tr, k, [t])[0])
        assert one == pytest.approx(
            s, rel=0, abs=1e-12 * np.max(np.abs(series)))
    for i in (d - 1, 30 - d):
        with pytest.raises(ScenarioError):
            surface_layer_product(tr, k, tr.time(i))


def _dirac_sup_C_halves(cfg, pots, grid):
    """(max |M_00|, max |M_11|) over the samples of scenarios._dirac_sup_C,
    where M(x) = sum_a d_a(x) gam_a sums every potential by its fiber matrix:
    one envelope and one window call per (midpoint, lag) sample and
    potential. Every gam_a is diagonal, so the two halves are the per-site
    norm."""
    x = grid.coords()[:, 0]
    profiles = [sp(x) for _, _, sp, _, _ in pots]
    plus = minus = 0.0
    for mid in np.linspace(-cfg.T, 2.0 * cfg.T, 121):
        for z in np.linspace(-cfg.delta, cfg.delta, 81):
            M = np.zeros((x.size, 2, 2), complex)
            for (amp, om, _, window, gam), prof in zip(pots, profiles):
                d = amp * math.cos(om * float(mid)) * prof * window(float(z))
                M += d[:, None, None] * gam
            assert not np.any(M[:, 0, 1]) and not np.any(M[:, 1, 0])
            plus = max(plus, float(np.max(np.abs(M[:, 0, 0]))))
            minus = max(minus, float(np.max(np.abs(M[:, 1, 1]))))
    return plus, minus


def _dirac_sup_C_loop(cfg, pots, grid):
    """Reference for scenarios._dirac_sup_C: the larger half of the norm."""
    return max(_dirac_sup_C_halves(cfg, pots, grid))


@pytest.mark.parametrize("n_pot", [1, 2, 3, 4])
def test_dirac_sup_C_matches_loop(n_pot):
    """The real products agree with the complex per-sample loop to round-off
    (a norm taken as the square root of a sum of products, and math.cos
    against np.cos, each move the last few bits)."""
    cfg = DiracConfig(points=64, n_pot=n_pot, T=0.75, delta=0.2)
    g = make_grid(1, cfg.extent, cfg.points, 2)
    pots = _dirac_potentials(cfg)
    assert _dirac_sup_C(cfg, pots, g) == pytest.approx(
        _dirac_sup_C_loop(cfg, pots, g), rel=1e-14, abs=0.0)


def test_dirac_sup_C_takes_the_difference_half():
    """With the second amplitude negated, max |d2 - d1| exceeds
    max |d2 + d1| (for the scenario's own potentials the two coincide), so
    the sup needs both halves of the norm max |d2 +- d1|."""
    cfg = DiracConfig(points=64, T=0.75, delta=0.2)
    g = make_grid(1, cfg.extent, cfg.points, 2)
    pots = _dirac_potentials(cfg)
    flipped = [pots[0], (-pots[1][0],) + tuple(pots[1][1:])]
    plus, minus = _dirac_sup_C_halves(cfg, flipped, g)
    assert minus > 1.5 * plus
    assert _dirac_sup_C(cfg, flipped, g) == pytest.approx(minus, rel=1e-14,
                                                          abs=0.0)


def test_dirac_margin_holds_per_site_with_three_potentials():
    """With a third potential (a repeat of the first), the returned C bounds
    the brute-force per-site spectral norm of the scaled kernel over a
    (midpoint, lag) subgrid of the sup's samples and is reached on it, so
    the true threshold margin is the target."""
    cfg = DiracConfig(points=64, n_pot=3, T=0.75, delta=0.2)
    g = make_grid(1, cfg.extent, cfg.points, 2)
    kern, C = dirac_kernel(cfg, g)
    # column j of B(x) is the kernel applied to basis vector j at every site
    basis = np.tile(np.eye(2, dtype=complex)[:, None, :], (1, g.sites, 1))
    brute = 0.0
    for mid in np.linspace(-cfg.T, 2.0 * cfg.T, 61):
        for z in np.linspace(-cfg.delta, cfg.delta, 41):
            B = kern.pair_apply(mid - 0.5 * z, mid + 0.5 * z,
                                basis).transpose(1, 2, 0)
            brute = max(brute, float(np.max(np.linalg.norm(B, 2,
                                                           axis=(1, 2)))))
    assert brute <= C * (1.0 + 1e-12)
    assert brute >= 0.999 * C
    assert threshold_margin(brute, cfg.delta) <= cfg.target_margin * (1 + 1e-12)


def test_dirac_sup_C_memory_is_chunked():
    """At 512 sites the (midpoint, lag, site) products, 80 MB at once, are
    formed a chunk of midpoints at a time."""
    cfg = DiracConfig(points=512, n_pot=4)
    g = make_grid(1, cfg.extent, cfg.points, 2)
    pots = _dirac_potentials(cfg)
    _dirac_sup_C(cfg, pots, g)
    tracemalloc.start()
    try:
        _dirac_sup_C(cfg, pots, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_dirac_kernel_needs_a_potential():
    g = make_grid(1, 2.0 * math.pi, 32, 2)
    with pytest.raises(ScenarioError, match="n_pot"):
        dirac_kernel(DiracConfig(points=32, n_pot=0), g)


def _random_vector_defect(k, grid, pairs=16, seed=0):
    """The spin-product symmetry defect |<a|K b>_spin - <K a|b>_spin| dv of
    random unit fields a, b at random pairs (t, tau); a lower bound of
    kernel_symmetry_defect."""
    rng = np.random.Generator(np.random.Philox(seed))
    s3 = np.diag([1.0, -1.0])
    worst = 0.0
    for _ in range(pairs):
        t = float(rng.uniform(-1.0, 1.0))
        tau = t + float(rng.uniform(-1.0, 1.0) * k.delta)
        a = rng.normal(size=(grid.sites, 2)) \
            + 1j * rng.normal(size=(grid.sites, 2))
        b = rng.normal(size=(grid.sites, 2)) \
            + 1j * rng.normal(size=(grid.sites, 2))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        kb = 1.0j * (k.pair_apply(t, tau, b) @ s3.T)
        ka = 1.0j * (k.pair_apply(tau, t, a) @ s3.T)
        lhs = np.einsum("sf,fg,sg->", np.conj(a), s3, kb)
        rhs = np.einsum("sf,fg,sg->", np.conj(ka), s3, b)
        worst = max(worst, abs(complex(lhs) - complex(rhs)))
    return worst * grid.cell_volume


def test_kernel_symmetry_defect_exact_per_site(monkeypatch):
    """Round-off on the Dirac kernel; on a kernel with one window that is
    not conjugate-symmetric, far above the 1e-10 gate and at least every
    random-vector sample."""
    from hypnl import scenarios
    cfg = DiracConfig(points=64, delta=0.25, T=0.5)
    g = make_grid(1, cfg.extent, cfg.points, 2)
    kern, _ = dirac_kernel(cfg, g)
    assert kernel_symmetry_defect(kern, g) <= 1e-14
    assert kernel_symmetry_defect(kern, g) == kernel_symmetry_defect(kern, g)

    pots = _dirac_potentials(cfg)
    amp, om, sp, window, gam = pots[1]
    skewed = (amp, om, sp, lambda z: window(z) * np.exp(0.3 * np.asarray(z)),
              gam)
    monkeypatch.setattr(scenarios, "_dirac_potentials",
                        lambda c: [pots[0], skewed])
    broken, _ = dirac_kernel(cfg, g)
    exact = kernel_symmetry_defect(broken, g)
    assert exact > 1e-4
    for seed in range(4):
        assert exact >= _random_vector_defect(broken, g, seed=seed)

# ---------------------------------------------------------------------------
# Maxwell constraints

def test_gauss_memory_matches_the_per_frame_loop(monkeypatch):
    """The nonlocal Gauss residual against the per-frame trapezoid loop it
    replaced, on data whose divergence is not zero, so that the memory
    term is O(1) and not round-off: to 1e-13 of the field scale."""
    from hypnl import scenarios
    from hypnl.scenarios import MaxwellConfig, maxwell_constraints_3d

    def rough(grid, seed, n_modes=3):
        rng = np.random.default_rng(np.random.Philox(seed))
        return rng.standard_normal((grid.sites, 6)) + 0j

    monkeypatch.setattr(scenarios, "random_divfree_data", rough)
    cfg = MaxwellConfig(mode="constraints_3d", points=8, n_max=6, seed=5)
    rep = maxwell_constraints_3d(cfg)
    tr = rep["result"].partial_sum
    chi, _ = drude_lorentz(cfg.chi0, cfg.c1, cfg.c2)
    dive = div4(tr.grid, tr.values[..., :3])
    F = tr.n_frames
    chis = np.array([chi(i * tr.dt) for i in range(F)])
    gauss = np.zeros(F)
    for i in range(F):
        mem = np.zeros(tr.grid.sites, dtype=complex)
        if i >= 1:
            wts = np.ones(i + 1)
            wts[0] = wts[-1] = 0.5
            mem = np.einsum("t,ts->s", wts * chis[i::-1], dive[:i + 1]) * tr.dt
        gauss[i] = float(np.max(np.abs(dive[i] + mem)))
    assert F >= 32 and np.max(gauss) > 0.1 * np.max(np.abs(dive))
    assert rep["gauss_residual"] == pytest.approx(
        float(np.max(gauss)), rel=0, abs=1e-13 * rep["field_scale"])


# ---------------------------------------------------------------------------
# extended system

def test_extended_check_improves_under_refinement():
    coarse = extended_system_check(n_fields=3, frames=101)
    fine = extended_system_check(n_fields=3, frames=201)
    assert fine["max_residual"] < coarse["max_residual"]


def test_extended_check_deterministic():
    a = extended_system_check(n_fields=2, frames=101, seed=4)
    b = extended_system_check(n_fields=2, frames=101, seed=4)
    assert np.array_equal(a["residuals"], b["residuals"])
