"""Energy balance, decay bounds, and support/cone checks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import gaussian_pulse, per_site
from hypnl import diagnostics
from hypnl.grids import (StateField, Trajectory, frame_norms_sq, make_grid,
                         sample_trajectory)
from hypnl.systems import (inner_weight, make_system, ode_system,
                           symbol_divergence, transport_system)
from hypnl.solver import SolveOptions, solve_local
from hypnl.diagnostics import (cone_violation, energy_identity,
                               exponential_bound, measure_D, order_estimate,
                               support_mask)


def test_order_estimate():
    assert order_estimate(4.0, 1.0) == pytest.approx(2.0)
    assert order_estimate(16.0, 1.0, ratio=4.0) == pytest.approx(2.0)
    assert order_estimate(0.0, 0.0) == math.inf


def test_energy_identity_free_transport(transport_run):
    """Skew-adjoint spatial part, no source: the balance-law residual is a
    pure discretization error well under 1e-6 of the (unit-scale) norm."""
    sys, tr, _ = transport_run
    rep = energy_identity(sys, tr, None, tolerance=1e-6)
    assert rep.passed
    assert rep.summary_max <= 1e-6


def test_energy_identity_order(transport_setup):
    grid, sys, _ = transport_setup
    data = StateField(grid, 0.0, gaussian_pulse(grid))

    def drift(dt_frac):
        opts = SolveOptions(dt=dt_frac * grid.spacing)
        tr = solve_local(sys, None, data, 0.0, 128 * 0.25 * grid.spacing, opts)
        return energy_identity(sys, tr, None).summary_max

    d1, d2 = drift(0.25), drift(0.125)
    assert order_estimate(d1, d2) >= 2.0


def test_energy_identity_with_source():
    """A nonzero source enters through 2 Re <phi|psi>; feeding the source the
    solver actually consumed must keep the residual at the no-source level."""
    grid = make_grid(1, 2.0 * math.pi, 256, 1)
    sys = transport_system(grid)
    opts = SolveOptions(dt=0.25 * grid.spacing)
    prof = gaussian_pulse(grid)
    n = 129

    def fn(t, coords):
        return math.sin(2.0 * t) * prof

    phi = sample_trajectory(grid, fn, opts.dt, 0, n)
    tr = solve_local(sys, phi, StateField(grid, 0.0, prof), 0.0,
                     (n - 1) * opts.dt, opts)
    with_src = energy_identity(sys, tr, phi).summary_max
    without = energy_identity(sys, tr, None).summary_max
    # the centered d/dt of the now time-varying norm floors this at O(dt^2)
    assert with_src <= 1e-4
    assert without > 10.0 * with_src


def test_growth_term_enters_identity():
    """S0 = diag(1,0) injects 2 Re <psi, S0 psi>; the identity closes up to
    the O(dt^2) centered-difference truncation of the growing norm."""
    grid = make_grid(1, 1.0, 16, 2)

    def defect(dt):
        sys = ode_system(grid, np.diag([1.0, 0.0]))
        v = np.ones((grid.sites, 2), complex)
        tr = solve_local(sys, None, StateField(grid, 0.0, v), 0.0, 1.0,
                         SolveOptions(dt=dt))
        return energy_identity(sys, tr, None).summary_max

    d1, d2 = defect(0.01), defect(0.005)
    assert d1 <= 1e-3
    assert order_estimate(d1, d2) >= 1.9


def test_exponential_bound_two_sided():
    """S0 = diag(1,0) has D = 2: both time directions stay under
    M e^{|t|} with 5% slack (the bound is saturated by the growing fiber)."""
    grid = make_grid(1, 1.0, 16, 2)
    sys = ode_system(grid, np.diag([1.0, 0.0]))
    opts = SolveOptions(dt=0.01)
    v = np.ones((grid.sites, 2), complex)
    data = StateField(grid, 0.0, v)
    w = inner_weight(sys)
    M = math.sqrt(frame_norms_sq(
        solve_local(sys, None, data, 0.0, opts.dt, opts), w)[0])

    D = measure_D(sys)
    assert D == pytest.approx(2.0, abs=1e-12)

    fwd = solve_local(sys, None, data, 0.0, 2.0, opts)
    back = solve_local(sys, None, data, 0.0, -2.0, opts)
    for tr in (fwd, back):
        rep = exponential_bound(sys, tr, D, M, slack=1.05)
        assert rep.passed


def test_measure_D_weighted():
    """A0 = diag(2,1) conjugates the zero-order matrix by W^{1/2}; for
    commuting diagonal data the bound is max |(S0+S0^+)_ii| / A0_ii."""
    grid = make_grid(1, 1.0, 8, 2)
    sys = make_system(grid, np.diag([2.0, 1.0]), [np.zeros((2, 2))],
                      S0=np.diag([3.0, 0.5]))
    assert measure_D(sys) == pytest.approx(3.0, abs=1e-12)


def _old_measure_D(sys, window=(0.0, 0.0), probes=16):
    """Reference for measure_D: the weight roots built for every weight,
    the identity included, and applied as per-site stacks."""
    times = [0.0] if sys.constant_in_time else np.linspace(*window, probes)
    g = sys.grid
    evals, vecs = np.linalg.eigh(per_site(g, inner_weight(sys).weight))
    root = np.einsum("sfg,sg,shg->sfh", vecs, np.sqrt(evals), np.conj(vecs))
    iroot = np.einsum("sfg,sg,shg->sfh", vecs, 1.0 / np.sqrt(evals),
                      np.conj(vecs))
    return max(float(np.max(np.linalg.svd(
        root @ _old_zero_order_matrices(sys, float(t)) @ iroot,
        compute_uv=False))) for t in times)


def _old_zero_order_matrices(sys, t):
    """Reference for zero_order_matrices: every term a per-site stack."""
    g = sys.grid
    acc = np.zeros((g.sites, g.fiber, g.fiber), dtype=complex)
    s0 = sys.S0_at(t)
    if s0 is not None:
        s0 = per_site(g, s0)
        acc -= s0 + np.conj(np.swapaxes(s0, 1, 2))
    acc -= per_site(g, symbol_divergence(sys, t))
    return np.linalg.inv(per_site(g, sys.A0)) @ acc


def _D_systems():
    from hypnl.scenarios import dirac_system, maxwell_system_3d
    g1 = make_grid(1, 2.0 * math.pi, 32, 2)
    x = g1.coords()[:, 0]
    per_site = np.zeros((g1.sites, 2, 2), complex)
    per_site[:, 0, 0] = 2.0 + np.sin(x)
    per_site[:, 1, 1] = 1.0
    per_site[:, 0, 1] = 0.3j
    per_site[:, 1, 0] = -0.3j
    s0 = np.array([[0.5, 1.0 - 0.2j], [0.1j, -0.7]])
    return {
        "dirac": dirac_system(g1, 0.5),
        "maxwell_3d": maxwell_system_3d(make_grid(3, 2.0 * math.pi, 8, 6)),
        "identity": make_system(g1, np.eye(2), [np.zeros((2, 2))], S0=s0),
        "diag": make_system(g1, np.diag([2.0, 1.0]), [np.zeros((2, 2))],
                            S0=s0),
        "per_site_lapse": make_system(g1, per_site, [0.5 * per_site],
                                      S0=s0, beta=1.0 + 0.25 * np.cos(x)),
        "time_dependent": make_system(
            g1, per_site, [np.zeros((2, 2))],
            S0_t=lambda t: math.cos(t) * s0),
    }


@pytest.mark.parametrize("name", sorted(_D_systems()))
def test_measure_D_matches_old_root_form(name):
    """D is bitwise that of the root form built for every weight and the
    per-site stacks; the identity weight skips its roots, a site-constant
    weight and zero-order matrix are one (f, f) matrix each."""
    sys = _D_systems()[name]
    assert measure_D(sys, window=(0.0, 1.0)) == \
        _old_measure_D(sys, window=(0.0, 1.0))
    z = diagnostics.zero_order_matrices(sys, 0.5)
    np.testing.assert_array_equal(per_site(sys.grid, z),
                                  _old_zero_order_matrices(sys, 0.5))


def _old_energy_identity(sys, tr, source_used):
    """Reference for energy_identity: the per-frame loop it replaced for
    constant-in-time systems, kept verbatim."""
    F = tr.n_frames
    nsq = frame_norms_sq(tr, inner_weight(sys))
    dv = sys.grid.cell_volume
    beta = sys.beta
    phi_vals = None
    if source_used is not None:
        phi_vals = np.zeros_like(tr.values)
        off = source_used.index0 - tr.index0
        lo, hi = max(0, off), min(F, off + source_used.n_frames)
        if hi > lo:
            phi_vals[lo:hi] = source_used.values[lo - off:hi - off]
    vals = np.empty(F - 2)
    for i in range(1, F - 1):
        t = tr.time(i)
        psi = tr.values[i]
        dnsq = (nsq[i + 1] - nsq[i - 1]) / (2.0 * tr.dt)
        rhs = 0.0
        if phi_vals is not None:
            rhs += 2.0 * (np.einsum("s,sf,sf->", beta, np.conj(phi_vals[i]),
                                    psi).real * dv)
        zmat = diagnostics._sym_part_matrices(sys, t)
        if zmat is not None:
            rhs += (np.einsum("s,sf,sfg,sg->", beta, np.conj(psi),
                              per_site(sys.grid, zmat), psi).real * dv)
        vals[i - 1] = abs(dnsq - rhs)
    return vals


@pytest.mark.parametrize("source", [False, True])
@pytest.mark.parametrize("name", sorted(_D_systems()))
def test_energy_identity_matches_per_frame_loop(name, source):
    """The stacked balance terms (one zero-order matrix for the whole run
    when the system is constant in time, chunks of frames per einsum) agree
    with the per-frame loop to 1e-15 of the series' scale, max ||psi||^2 / dt
    plus the largest residual (measured: at most 2e-17; bitwise where the
    balance terms vanish)."""
    sys = _D_systems()[name]
    grid = sys.grid
    rng = np.random.default_rng(9)
    shape = (40, grid.sites, grid.fiber)
    tr = Trajectory(grid, 0.01, -3, rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape))
    phi = None
    if source:
        vals = rng.standard_normal((25,) + shape[1:]) + 0j
        phi = Trajectory(grid, 0.01, 5, vals)
    got = energy_identity(sys, tr, phi).values
    want = _old_energy_identity(sys, tr, phi)
    scale = np.max(frame_norms_sq(tr, inner_weight(sys))) / tr.dt \
        + np.max(want)
    assert np.max(np.abs(got - want)) <= 1e-15 * scale


def test_cone_violation_flags_teleported_amplitude():
    grid = make_grid(1, 2.0 * math.pi, 128, 1)
    prof = gaussian_pulse(grid, width_frac=64.0)
    mask = support_mask(prof, rel=1e-6)
    n = 33
    dt = 0.05
    vals = np.zeros((n, grid.sites, 1), complex)
    vals[:] = prof
    clean = cone_violation(Trajectory(grid, dt, 0, vals.copy()), mask,
                           v_max=1.0)
    assert clean.passed

    # plant amplitude at the torus antipode of the pulse, far outside the cone
    bad_vals = vals.copy()
    bad_vals[-1, 0, 0] += 0.5
    bad = cone_violation(Trajectory(grid, dt, 0, bad_vals), mask, v_max=1.0)
    assert not bad.passed


def _cone_violation_loop(tr, mask, v_max):
    """Reference for cone_violation's values: the per-frame loop, one
    outside mask and one max per frame, 0 where no site is outside."""
    grid = tr.grid
    dist = diagnostics._torus_distance(grid, mask)
    amp = np.max(np.abs(tr.values), axis=2)
    peak = float(np.max(amp))
    times = np.abs(tr.times())
    vals = np.zeros(tr.n_frames)
    if peak > 0:
        for i in range(tr.n_frames):
            outside = dist > v_max * times[i] + 2.0 * grid.spacing
            if np.any(outside):
                vals[i] = float(np.max(amp[i][outside])) / peak
    return vals


@pytest.mark.parametrize("case", ["spreading", "frozen", "no_outside",
                                  "zero"])
def test_cone_violation_matches_frame_loop_bitwise(case):
    """Spreading: the cone covers the torus after some frames, which then
    have no site outside; frozen: v_max = 0; no_outside: the support holds
    every site; zero: an all-zero trajectory."""
    grid = make_grid(1, 2.0 * math.pi, 64, 2)
    rng = np.random.default_rng(np.random.Philox(11))
    vals = (rng.standard_normal((41, grid.sites, 2))
            + 1j * rng.standard_normal((41, grid.sites, 2)))
    mask = np.arange(grid.sites) < 8
    v_max = {"spreading": 2.0, "frozen": 0.0, "no_outside": 1.0,
             "zero": 1.0}[case]
    if case == "no_outside":
        mask[:] = True
    if case == "zero":
        vals[:] = 0.0
    tr = Trajectory(grid, 0.1, -10, vals)
    got = cone_violation(tr, mask, v_max).values
    want = _cone_violation_loop(tr, mask, v_max)
    assert np.array_equal(got, want)
    if case == "spreading":
        assert np.any(want == 0.0) and np.all(want[:12] > 0.0)


def _torus_distance_all_pairs(grid, mask):
    """Reference: the full (sites x support) distance table on every row."""
    if not np.any(mask):
        return np.full(grid.sites, math.inf)
    x = grid.coords()
    supp = x[mask]
    L = grid.extent
    dist_sq = np.zeros((grid.sites, supp.shape[0]))
    for ax in range(grid.dim):
        d = np.abs(x[:, ax][:, None] - supp[None, :, ax])
        d = np.minimum(d, L - d)
        dist_sq += d * d
    return np.sqrt(np.min(dist_sq, axis=1))


def _plane(points, extent):
    """A 2D torus with the attributes `_torus_distance` reads (Grid itself
    is 1D or 3D only)."""
    x = extent / points * np.arange(points)
    xs = np.meshgrid(x, x, indexing="ij")
    coords = np.stack([a.ravel() for a in xs], axis=-1)
    return SimpleNamespace(dim=2, extent=extent, sites=points ** 2,
                           coords=lambda: coords)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["empty", "full", "single", "random"])
def test_torus_distance_matches_all_pairs_bitwise(monkeypatch, dim, kind,
                                                   chunk):
    grid = {1: make_grid(1, 2.0 * math.pi, 64, 1), 2: _plane(16, 3.0),
            3: make_grid(3, 1.0, 8, 1)}[dim]
    rng = np.random.default_rng(np.random.Philox(dim))
    mask = {"empty": np.zeros(grid.sites, bool),
            "full": np.ones(grid.sites, bool),
            "single": np.arange(grid.sites) == grid.sites // 3,
            "random": rng.random(grid.sites) < 0.2}[kind]
    if chunk is not None:       # many small row chunks, one cut mid-row set
        monkeypatch.setattr(diagnostics, "_PAIR_CHUNK", chunk * mask.sum())
    got = diagnostics._torus_distance(grid, mask)
    ref = _torus_distance_all_pairs(grid, mask)
    assert got.shape == (grid.sites,)
    assert np.array_equal(got, ref)


def test_support_mask():
    v = np.zeros((16, 2))
    v[3, 0] = 1.0
    v[7, 1] = 1e-15
    m = support_mask(v)
    assert m[3] and not m[7] and m.sum() == 1
    assert not support_mask(np.zeros((4, 1))).any()


def test_diag_report_csv_json(tmp_path, transport_run):
    sys, tr, _ = transport_run
    rep = energy_identity(sys, tr, None, tolerance=1e-6)
    assert rep.name == "energy_identity"
    assert rep.passed == (rep.summary_max <= 1e-6)
    p = tmp_path / "diag.csv"
    rep.to_csv(str(p))
    lines = p.read_text().strip().splitlines()
    assert len(lines) == 1 + len(rep.values)
