"""Concrete runnable scenarios:

  * the rank-one divergence scenario (a kernel at unit strength whose
    iteration reproduces itself forever, with convergent scaled-down variants
    matching the geometric closed form),
  * dispersive Maxwell on the torus (Drude-Lorentz memory, constraint
    monitors, vacuum wave oracles, constant-field Volterra reduction),
  * a nonlocal 1+1 Dirac system with the conserved surface-layer inner
    product, whose whole series over t_N is read from one
    `TimeKernel.pair_band` (`surface_layer_series`),
  * the first-derivative extended-system consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import (_CHUNK_VALUES, Grid, InnerWeight, StateField, Trajectory,
                    _weighted_pairs, diff4, frame_norms_sq, make_grid,
                    norm_strip, stencil_wavenumber)
from .systems import SystemSpec, apply_S, inner_weight, make_system
from .kernels import (ConvTerm, TimeKernel, _frame_span, estimate_bound,
                      make_convolution, make_modulated, make_separable,
                      threshold_margin)
from .solver import SolveOptions, solve_local
from .dyson import dyson_retarded, dyson_short_range, equation_defect
from .diagnostics import cone_violation, energy_identity, support_mask


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# smooth compactly supported profiles

def bump(u):
    """C-infinity bump: exp(1 - 1/(1-u^2)) on |u|<1, zero outside; peak 1.
    Evaluated everywhere and then selected (q = 1 - u^2 > 0 exactly when
    |u| < 1), so a 0-d input takes no boolean-mask path."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        q = 1.0 - u * u
        out = np.exp(1.0 - 1.0 / q)
    return np.where(q > 0.0, out, 0.0)


def bump_dot(u):
    """d/du of bump, evaluated as bump is."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = 1.0 - u * u
        out = np.exp(1.0 - 1.0 / q) * (-2.0 * u / (q * q))
    return np.where(q > 0.0, out, 0.0)


# ===========================================================================
# rank-one divergence scenario
# ===========================================================================

@dataclass
class CounterexampleConfig:
    """Pure time-derivative system S = d_t with the rank-one kernel
    B_{t,tau} = -eps f(t) <f_dot(tau), .>, f = c_n b_t(t) b_x(x) supported in
    t in (0, delta/2); eps = 1 is the divergent case."""

    delta: float = 0.5
    epsilon: float = 1.0
    points: int = 64
    extent: float = 1.0
    steps_per_delta: int = 512
    T: float = 1.0
    W: float = 1.0
    n_max: int = 30
    tol: float = 1e-8
    tol_residual: float = 1e-3
    seed: int = 0

    @property
    def dt(self) -> float:
        return self.delta / self.steps_per_delta


def _counterexample_profiles(cfg: CounterexampleConfig):
    """(grid, sys, f-trajectory, f_dot-trajectory, normalization c_n) on the
    full solve lattice; ||f||_strip = 1 after normalization. They do not
    depend on epsilon."""
    if cfg.delta <= 0:
        raise ScenarioError("need delta > 0")
    grid = make_grid(1, cfg.extent, cfg.points, 1)
    sys = make_system(grid, np.ones((1, 1)), [np.zeros((1, 1))],
                      name="time-derivative")
    dt = cfg.dt
    i_lo = -round(cfg.W / dt)
    n_frames = round((cfg.T + 2 * cfg.W) / dt) + 1
    d4, L = cfg.delta / 4.0, cfg.extent

    x = grid.coords()[:, 0]
    b_x = bump((x - L / 2.0) / (L / 4.0))
    u = ((i_lo + np.arange(n_frames)) * dt - d4) / d4
    f_tr = Trajectory(grid, dt, i_lo,
                      (bump(u)[:, None] * b_x)[..., None].astype(complex))
    fdot_tr = Trajectory(grid, dt, i_lo,
                         ((bump_dot(u) / d4)[:, None] * b_x)[..., None]
                         .astype(complex))
    w = inner_weight(sys)
    c_n = 1.0 / norm_strip(f_tr, w)
    return grid, sys, f_tr.scaled(c_n), fdot_tr.scaled(c_n), c_n


def _counterexample_kernel(cfg: CounterexampleConfig, profiles) -> TimeKernel:
    """The rank-one kernel at cfg.epsilon, built from `profiles`."""
    if cfg.epsilon < 0:
        raise ScenarioError("need epsilon >= 0")
    _, _, f_tr, fdot_tr, _ = profiles
    return make_separable([f_tr.scaled(-cfg.epsilon)], [fdot_tr],
                          delta=cfg.delta)


def build_counterexample(cfg: CounterexampleConfig):
    """(system, kernel, normalized source trajectory, options)."""
    profiles = _counterexample_profiles(cfg)
    _, sys, f_tr, _, _ = profiles
    return (sys, _counterexample_kernel(cfg, profiles), f_tr,
            SolveOptions(dt=cfg.dt))


def counterexample_oracle(cfg: CounterexampleConfig) -> Trajectory:
    """Closed-form psi^(0): F(t, x) = c_n b_x(x) int_0^t b_t, by fine
    cumulative quadrature (16x oversampled trapezoid)."""
    return _counterexample_oracle(cfg, _counterexample_profiles(cfg))


def _counterexample_oracle(cfg: CounterexampleConfig, profiles) -> Trajectory:
    grid, _, f_tr, _, c_n = profiles
    dt = cfg.dt
    sub = 16
    d4 = cfg.delta / 4.0
    tt = np.arange(f_tr.index0 * sub, (f_tr.index0 + f_tr.n_frames - 1) * sub + 1) \
        * (dt / sub)
    bt = bump((tt - d4) / d4)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (bt[1:] + bt[:-1]))]) * (dt / sub)
    # shift so that the antiderivative vanishes at t = 0
    i0 = -f_tr.index0 * sub
    cum = cum - cum[i0]
    cum[: i0] = 0.0          # b_t = 0 for t < 0: F identically zero there
    B_t = cum[::sub]
    x = grid.coords()[:, 0]
    bx = bump((x - cfg.extent / 2.0) / (cfg.extent / 4.0))
    vals = c_n * B_t[:, None, None] * bx[None, :, None].astype(complex)
    return Trajectory(grid, dt, f_tr.index0, vals)


def counterexample_report(cfg: CounterexampleConfig,
                          eps_family=(0.1, 0.25, 0.5)) -> dict:
    """Full diagnostic bundle: exact bound constant and threshold margin,
    the divergent unit-strength run with its obstruction pairing, and the
    convergent geometric family."""
    profiles = _counterexample_profiles(cfg)     # shared by every run below
    grid, sys, f_tr, fdot_tr, _ = profiles
    k = _counterexample_kernel(cfg, profiles)
    opts = SolveOptions(dt=cfg.dt)
    w = inner_weight(sys)
    dlt = cfg.delta

    est = estimate_bound(k, sys, t_window=(0.0, dlt), seed=cfg.seed)
    margin = threshold_margin(est.C_est, dlt)

    # witness: some t0 in (0, delta/2) has ||f_t0|| * ||f_dot_t0|| >= 2/delta^2
    nf = np.sqrt(np.maximum(frame_norms_sq(f_tr, w), 0.0))
    nfd = np.sqrt(np.maximum(frame_norms_sq(fdot_tr, w), 0.0))
    witness = float(np.max(nf * nfd))

    data0 = StateField(grid, 0.0, grid.zeros())

    # divergent run at the configured epsilon (default 1), with the
    # obstruction pairing <(S - B) Psi_n - f, f> of each partial sum. It
    # reads only the frames where f is nonzero, so the defect is taken on
    # f's span and one zero frame either side (the trapezoid's half-weight
    # ends, which gives every frame of the span its full weight)
    obstruction = []
    f_lo, f_hi = _frame_span(f_tr)
    strip = ((f_lo - 1) * f_tr.dt, (f_hi + 1) * f_tr.dt)

    def pairing(n, psi, total, b_total):
        d = equation_defect(sys, b_total, total, f_tr, strip)
        obstruction.append(_strip_pair(d, f_tr, w))

    res_div = dyson_short_range(sys, k, f_tr, data0, cfg.T, opts,
                                tol=cfg.tol, tol_residual=cfg.tol_residual,
                                n_max=cfg.n_max, W=cfg.W,
                                n_min=cfg.n_max + 1,
                                constants={"C_est": est.C_est},
                                monitor=pairing)

    # convergent geometric family against the closed form F / (1 - eps)
    oracle = _counterexample_oracle(cfg, profiles)
    family = {}
    for eps in eps_family:
        cfg_eps = CounterexampleConfig(**{**cfg.__dict__, "epsilon": eps})
        k_e = _counterexample_kernel(cfg_eps, profiles)
        r = dyson_short_range(sys, k_e, f_tr, data0, cfg.T, opts,
                              tol=cfg.tol, tol_residual=cfg.tol_residual,
                              n_max=cfg.n_max, W=cfg.W,
                              constants={"C_est": eps * est.C_est / max(cfg.epsilon, 1e-300)
                                         if cfg.epsilon > 0 else 0.0})
        target = oracle.scaled(1.0 / (1.0 - eps))
        diff = r.partial_sum.plus(target.scaled(-1.0))
        rel = norm_strip(diff, w) / norm_strip(target, w)
        family[eps] = {"verdict": r.verdict, "rel_error": rel,
                       "ratios": r.ratios, "n_used": r.n_used,
                       "result": r}

    cone = cone_violation(res_div.partial_sum,
                          support_mask(f_tr.values[f_tr.index_of(cfg.delta / 4.0)]),
                          sys.v_max, floor=1e-7)
    return {
        "C_est": est.C_est,
        "margin": margin,
        "witness": witness,
        "witness_floor": 2.0 / dlt ** 2,
        "divergent": res_div,
        "obstruction_pairings": obstruction,
        "family": family,
        "diag_cone": cone,
    }


def _strip_pair(a: Trajectory, b: Trajectory, w: InnerWeight) -> complex:
    """Trapezoid strip pairing <a, b> over the frames both trajectories share."""
    lo = max(a.index0, b.index0)
    hi = min(a.index0 + a.n_frames, b.index0 + b.n_frames)
    if hi <= lo + 1:
        raise ScenarioError("no shared frames")
    av = a.values[lo - a.index0:hi - a.index0]
    bv = b.values[lo - b.index0:hi - b.index0]
    s = _weighted_pairs(av, bv, w, "t") * a.grid.cell_volume
    ww = np.ones(hi - lo)
    ww[0] = ww[-1] = 0.5
    return complex(np.sum(ww * s) * a.dt)


# ===========================================================================
# dispersive Maxwell
# ===========================================================================

def drude_lorentz(chi0: float, c1: float, c2: float):
    """(chi, chi_dot) of the memory response chi(t) = chi0 e^{-c1 t} sin(c2 t)
    for t >= 0; chi(0) = 0."""
    def chi(u):
        if u < 0:
            return 0.0
        return chi0 * math.exp(-c1 * u) * math.sin(c2 * u)

    def chi_dot(u):
        if u < 0:
            return 0.0
        return chi0 * math.exp(-c1 * u) * (c2 * math.cos(c2 * u)
                                           - c1 * math.sin(c2 * u))
    return chi, chi_dot


_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


def maxwell_system_3d(grid: Grid) -> SystemSpec:
    """Fiber-6 field (E, B): d_t E = curl B + sources, d_t B = -curl E."""
    if grid.dim != 3 or grid.fiber != 6:
        raise ScenarioError("3D Maxwell needs a dim-3, fiber-6 grid")
    Aj = []
    for j in range(3):
        M = _EPS3[:, j, :]           # (M_j)_{ik} = eps_{ijk}
        a = np.zeros((6, 6))
        a[:3, 3:] = -M
        a[3:, :3] = M
        Aj.append(a)
    return make_system(grid, np.eye(6), Aj, name="maxwell3d")


def maxwell_system_1d(grid: Grid) -> SystemSpec:
    """Transverse reduction (E_y, B_z): d_t E_y = -d_x B_z, d_t B_z = -d_x E_y."""
    if grid.dim != 1 or grid.fiber != 2:
        raise ScenarioError("1D Maxwell needs a dim-1, fiber-2 grid")
    a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return make_system(grid, np.eye(2), [a1], name="maxwell1d")


def maxwell_kernel(grid: Grid, chi_dot: Callable[[float], float],
                   delta_eff: float = math.inf) -> TimeKernel:
    """The memory term moved to the kernel side of S psi = B psi + phi:
    B psi = (-int_0^t chi_dot(t-tau) E(tau) dtau, 0)."""
    ne = grid.fiber // 2
    proj = np.zeros((grid.fiber, grid.fiber))
    proj[:ne, :ne] = -np.eye(ne)
    return make_convolution(chi_dot, proj, grid, t0=0.0, delta_eff=delta_eff)


def curl4(grid3: Grid, vec: np.ndarray) -> np.ndarray:
    """4th-order stencil curl of a (sites, 3) field on a 3D grid."""
    g3 = Grid(3, grid3.extent, grid3.points, 3)
    out = np.zeros_like(vec)
    d = [diff4(g3, vec, ax) for ax in range(3)]
    out[:, 0] = d[1][:, 2] - d[2][:, 1]
    out[:, 1] = d[2][:, 0] - d[0][:, 2]
    out[:, 2] = d[0][:, 1] - d[1][:, 0]
    return out


def div4(grid3: Grid, vec: np.ndarray) -> np.ndarray:
    """4th-order stencil divergence of a (sites, 3) field or of a
    (frames, sites, 3) stack: each axis differentiates only its own
    column."""
    return sum(diff4(grid3, vec[..., ax:ax + 1], ax)[..., 0]
               for ax in range(3))


@dataclass
class MaxwellConfig:
    mode: str = "vacuum_1d"   # a key of MAXWELL_MODES
    points: int = 512
    extent: float = 2.0 * math.pi
    chi0: float = 0.2
    c1: float = 1.0
    c2: float = 2.0
    T: Optional[float] = None
    dt: Optional[float] = None
    cfl: float = 0.25
    mode_index: int = 1
    tol: float = 1e-8
    tol_residual: float = 1e-3
    n_max: int = 40
    seed: int = 0


def maxwell_problem(cfg: MaxwellConfig, mode: str) -> tuple:
    """(system, kernel or None, SolveOptions, T on the dt lattice) of the
    Maxwell mode `mode`: the 3D modes on a fiber-6 torus, the others on a
    fiber-2 line; the Drude-Lorentz memory for constraints_3d and volterra,
    none for the vacuum modes. T defaults to one crossing (the extent) at
    dt = cfl dx, and for volterra to 5 at dt = T / 8192."""
    if mode not in MAXWELL_MODES:
        raise ScenarioError(f"unknown Maxwell mode {mode!r}")
    if mode in ("vacuum_3d", "constraints_3d"):
        grid = make_grid(3, cfg.extent, cfg.points, 6)
        sys = maxwell_system_3d(grid)
    else:
        grid = make_grid(1, cfg.extent, cfg.points, 2)
        sys = maxwell_system_1d(grid)
    kern = None
    if mode in ("constraints_3d", "volterra"):
        _, chi_dot = drude_lorentz(cfg.chi0, cfg.c1, cfg.c2)
        kern = maxwell_kernel(grid, chi_dot)
    if mode == "volterra":
        T = cfg.T if cfg.T is not None else 5.0
        dt = cfg.dt if cfg.dt is not None else T / 8192
    else:
        T = cfg.T if cfg.T is not None else cfg.extent
        dt = cfg.dt if cfg.dt is not None else cfg.cfl * grid.spacing
    return sys, kern, SolveOptions(dt=dt, cfl=cfg.cfl), round(T / dt) * dt


def maxwell_vacuum_1d(cfg: MaxwellConfig) -> dict:
    """chi = 0 plane wave over one crossing, against the exact travelling
    wave E_y = B_z = cos(k (x - t))."""
    sys, _, opts, T = maxwell_problem(cfg, "vacuum_1d")
    grid = sys.grid
    k_wave = 2.0 * math.pi * cfg.mode_index / cfg.extent
    x = grid.coords()[:, 0]

    def exact(t):
        c = np.cos(k_wave * (x - t))
        return np.stack([c, c], axis=1).astype(complex)

    data = StateField(grid, 0.0, exact(0.0))
    tr = solve_local(sys, None, data, 0.0, T, opts)
    err = max(float(np.max(np.abs(tr.values[i] - exact(tr.time(i)))))
              for i in range(0, tr.n_frames, max(1, tr.n_frames // 64)))
    energy = energy_identity(sys, tr, None)
    nsq = frame_norms_sq(tr, inner_weight(sys))
    drift = float(np.max(np.abs(nsq - nsq[0]))) / nsq[0]
    return {"system": sys, "trajectory": tr, "wave_error": err,
            "energy": energy, "norm_drift": drift, "opts": opts}


def maxwell_vacuum_3d(cfg: MaxwellConfig) -> dict:
    """chi = 0 plane wave along x on the 3D torus, checked against the
    dispersion-corrected semi-discrete wave; the continuum gap is reported."""
    sys, _, opts, T = maxwell_problem(cfg, "vacuum_3d")
    grid = sys.grid
    kx = 2.0 * math.pi * cfg.mode_index / cfg.extent
    kt = stencil_wavenumber(kx, grid.spacing)
    x = grid.coords()[:, 0]

    def wave(t, omega):
        v = np.zeros((grid.sites, 6))
        c = np.cos(kx * x - omega * t)
        v[:, 1] = c      # E_y
        v[:, 5] = c      # B_z
        return v.astype(complex)

    data = StateField(grid, 0.0, wave(0.0, kt))
    tr = solve_local(sys, None, data, 0.0, T, opts)
    i_end = tr.n_frames - 1
    err_semi = float(np.max(np.abs(tr.values[i_end] - wave(T, kt))))
    err_cont = float(np.max(np.abs(tr.values[i_end] - wave(T, kx))))
    return {"system": sys, "trajectory": tr, "semi_discrete_error": err_semi,
            "continuum_gap": err_cont, "opts": opts}


def random_divfree_data(grid: Grid, seed: int, n_modes: int = 3) -> np.ndarray:
    """(sites, 6) field with E = curl4 W, B = curl4 A for random smooth
    few-mode potentials: both stencil divergences vanish exactly."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = grid.coords()
    kb = 2.0 * math.pi / grid.extent

    def potential():
        v = np.zeros((grid.sites, 3))
        for _ in range(n_modes):
            kvec = rng.integers(-2, 3, size=3)
            amp = rng.normal(size=3)
            ph = rng.uniform(0, 2 * math.pi)
            v += amp[None, :] * np.cos(kb * (x @ kvec) + ph)[:, None]
        return v

    out = np.zeros((grid.sites, 6), dtype=complex)
    out[:, :3] = curl4(grid, potential())
    out[:, 3:] = curl4(grid, potential())
    return out


def maxwell_constraints_3d(cfg: MaxwellConfig) -> dict:
    """Dispersive run with rho = j = 0 and stencil-divergence-free data.
    Monitors the nonlocal Gauss constraint divE + int chi(t-tau) divE dtau
    and the divB drift over one crossing."""
    sys, kern, opts, T = maxwell_problem(cfg, "constraints_3d")
    grid = sys.grid
    chi, _ = drude_lorentz(cfg.chi0, cfg.c1, cfg.c2)

    vals = random_divfree_data(grid, cfg.seed)
    vals /= np.max(np.abs(vals))
    data = StateField(grid, 0.0, vals)
    # convergence gated on the increments only: the equation residual sits on
    # its O(dt^2) centered-difference floor at the coarse 3D resolution, and
    # the constraint monitors below are the actual acceptance quantities
    res = dyson_retarded(sys, kern, None, data, T, opts, tol=cfg.tol,
                         tol_residual=math.inf, n_max=cfg.n_max,
                         seed=cfg.seed)
    tr = res.partial_sum
    scale = float(np.max(np.abs(tr.values)))
    dive = div4(grid, tr.values[..., :3])
    divb = div4(grid, tr.values[..., 3:])
    # nonlocal Gauss residual per frame: the trapezoid memory of chi is the
    # retarded convolution kernel of chi on a fiber-1 grid
    g1 = Grid(3, grid.extent, grid.points, 1)
    mem = make_convolution(chi, None, g1, t0=0.0).apply_all(
        Trajectory(g1, tr.dt, tr.index0, dive[..., None]))[..., 0]
    gauss = np.max(np.abs(dive + mem), axis=1)
    divb_drift = float(np.max(np.abs(divb - divb[0])))
    return {"system": sys, "result": res, "gauss_residual": float(np.max(gauss)),
            "divb_drift": divb_drift, "field_scale": scale, "opts": opts}


def volterra_oracle(chi_dot: Callable[[float], float], T: float, dt: float,
                    e0: complex = 1.0) -> np.ndarray:
    """Independent scalar solver for E' = -int_0^t chi_dot(t-tau) E(tau) dtau
    (Heun stepping, dense trapezoid memory)."""
    F = round(T / dt) + 1
    chis = np.array([chi_dot(i * dt) for i in range(F)])
    E = np.zeros(F, dtype=complex)
    E[0] = e0

    def memory(i, values):
        if i == 0:
            return 0.0 + 0.0j
        w = np.ones(i + 1)
        w[0] = w[-1] = 0.5
        return complex(np.dot(w * chis[i::-1], values[:i + 1])) * dt

    for i in range(F - 1):
        f_i = -memory(i, E)
        E[i + 1] = E[i] + dt * f_i                     # predictor
        f_p = -memory(i + 1, E)
        E[i + 1] = E[i] + 0.5 * dt * (f_i + f_p)       # corrector
    return E


def maxwell_volterra(cfg: MaxwellConfig) -> dict:
    """Constant fields on the torus: B stays constant, E obeys the scalar
    Volterra equation; matched against the independent dense-quadrature
    solver on a twice-finer lattice."""
    sys, kern, opts, T = maxwell_problem(cfg, "volterra")
    grid, dt = sys.grid, opts.dt
    _, chi_dot = drude_lorentz(cfg.chi0, cfg.c1, cfg.c2)
    vals = np.zeros((grid.sites, 2), dtype=complex)
    vals[:, 0] = 1.0
    data = StateField(grid, 0.0, vals)
    res = dyson_retarded(sys, kern, None, data, T, opts, tol=cfg.tol,
                         tol_residual=cfg.tol_residual, n_max=cfg.n_max,
                         seed=cfg.seed)
    series = res.partial_sum.values[:, 0, 0]
    oracle = volterra_oracle(chi_dot, T, dt / 2.0, 1.0)[::2]
    err = float(np.max(np.abs(series - oracle)))
    bdrift = float(np.max(np.abs(res.partial_sum.values[:, :, 1])))
    return {"system": sys, "result": res, "volterra_error": err,
            "b_drift": bdrift, "series": series, "oracle": oracle,
            "times": res.partial_sum.times(), "opts": opts}


# the Maxwell modes by name; the CLI's --mode choices and config check read it
MAXWELL_MODES = {"vacuum_1d": maxwell_vacuum_1d, "vacuum_3d": maxwell_vacuum_3d,
                 "constraints_3d": maxwell_constraints_3d,
                 "volterra": maxwell_volterra}


def maxwell_run(cfg: MaxwellConfig) -> dict:
    if cfg.mode not in MAXWELL_MODES:
        raise ScenarioError(f"unknown Maxwell mode {cfg.mode!r}")
    out = MAXWELL_MODES[cfg.mode](cfg)
    out["mode"] = cfg.mode
    return out


# ===========================================================================
# nonlocal Dirac in 1+1
# ===========================================================================

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

GAMMA0 = SIGMA3                    # time Clifford element
GAMMA1 = -1.0j * SIGMA2            # space Clifford element (gamma0 gamma1 = -sigma1)
SPIN_METRIC = SIGMA3               # indefinite fiber pairing <a|b> = a^+ s b
MINKOWSKI_G = np.diag([-1.0, 1.0])


def clifford_defect() -> float:
    """max |gamma_mu gamma_nu + gamma_nu gamma_mu + 2 g_munu| over mu, nu."""
    gam = [GAMMA0, GAMMA1]
    worst = 0.0
    for mu in range(2):
        for nu in range(2):
            acomm = gam[mu] @ gam[nu] + gam[nu] @ gam[mu]
            worst = max(worst, float(np.max(np.abs(
                acomm + 2.0 * MINKOWSKI_G[mu, nu] * np.eye(2)))))
    return worst


def spin_symmetry_defect() -> float:
    """max Hermiticity defect of (spin metric) . gamma_mu."""
    worst = 0.0
    for gam in (GAMMA0, GAMMA1):
        m = SPIN_METRIC @ gam
        worst = max(worst, float(np.max(np.abs(m - np.conj(m.T)))))
    return worst


def dirac_system(grid: Grid, mass: float) -> SystemSpec:
    """Normalized 1+1 Dirac evolution d_t psi = sigma1 d_x psi - i m sigma3 psi
    (A0 = I, A1 = -sigma1, S0 = -i m sigma3; skew-adjoint, norm preserving)."""
    if grid.fiber != 2:
        raise ScenarioError("Dirac fiber is 2")
    return make_system(grid, np.eye(2), [-SIGMA1], S0=-1.0j * mass * SIGMA3,
                       name="dirac")


@dataclass
class DiracConfig:
    points: int = 512
    extent: float = 2.0 * math.pi
    mass: float = 0.5
    delta: float = 0.25
    target_margin: float = 0.4
    n_pot: int = 2
    T: float = 2.0
    n_max: int = 10
    tol: float = 1e-8
    tol_residual: float = 1e-3
    cfl: float = 0.25
    refine: bool = True
    seed: int = 0


def _dirac_potentials(cfg: DiracConfig):
    """Per-potential (amp, om, sp, window, fiber matrix): the potential is

        amp cos(om (t + tau) / 2) sp(x) window(tau - t) gam,

    with a real site profile sp(x) and a window with conj l(z) = l(-z).
    The fiber matrices are the first-order images -i gamma0 G of
    spin-Hermitian couplings G in {I, s3}, so the kernel obeys
    B(tau, t) = -B(t, tau)^+ in the plain slice product — the anti-symmetry
    that makes the surface-layer product conserved."""
    L = cfg.extent
    dlt = cfg.delta
    pots = []
    params = [(1.0, 0.7, 1, 2.0, -1.0j * np.eye(2, dtype=complex)),  # chiral G = s3
              (0.8, 1.3, 2, -1.0, -1.0j * SIGMA3)]                   # scalar G = I
    for a in range(cfg.n_pot):
        amp, om, m_x, om_l, gam = params[a % len(params)]

        def sp(x, m_x=m_x):
            return 1.0 + 0.5 * np.cos(2.0 * math.pi * m_x * x / L)

        def window(z, om_l=om_l, dlt=dlt):
            return bump(np.asarray(z) / dlt) * np.exp(1.0j * om_l * np.asarray(z))

        pots.append((amp, om, sp, window, gam))
    return pots


def _dirac_sup_C(cfg: DiracConfig, pots, grid: Grid) -> float:
    """Exact sup over the (midpoint, lag) samples and the sites of the
    per-site fiber-operator norm. Potential a is e_a(m, x) w_a(z), a real
    envelope amp cos(om m) sp(x) times its complex lag window, and the fiber
    operator is -i (A I + B s3), A the sum of the even potentials and B of
    the odd ones, with norm max |A +- B|. Squared, with s_a = 1 for even a
    and +-1 for odd a, and k_ab = 1 for a = b and 2 for a < b,

        |A +- B|^2 = sum_{a <= b} k_ab s_a s_b Re(w_a conj w_b) e_a e_b.

    With e_a = c_a(m) p_a(x), each midpoint is one real product
    (2 lags, pairs) x (pairs, sites) of the lag coefficients times c_a c_b
    with the profile products p_a p_b, formed for chunks of midpoints of at
    most _CHUNK_VALUES values each."""
    x = grid.coords()[:, 0]
    mids = np.linspace(-cfg.T, 2.0 * cfg.T, 121)
    zs = np.linspace(-cfg.delta, cfg.delta, 81)
    cosines = np.stack([amp * np.cos(om * mids) for amp, om, *_ in pots])
    profiles = np.stack([sp(x) for _, _, sp, _, _ in pots])
    windows = np.stack([window(zs) for *_, window, _ in pots])
    a, b = np.triu_indices(len(pots))
    k = np.where(a == b, 1.0, 2.0)[:, None]
    re = k * (windows[a] * np.conj(windows[b])).real          # (pairs, lags)
    sign = np.where(a % 2 == b % 2, 1.0, -1.0)[:, None]
    coef = np.concatenate([re, sign * re], axis=1).T      # (2 lags, pairs)
    cc = (cosines[a] * cosines[b]).T                      # (midpoints, pairs)
    pp = profiles[a] * profiles[b]                        # (pairs, sites)
    step = max(1, _CHUNK_VALUES // (coef.shape[0] * x.size))
    worst = 0.0
    for lo in range(0, mids.size, step):
        rows = (cc[lo:lo + step, None, :] * coef).reshape(-1, a.size)
        worst = max(worst, float((rows @ pp).max()))
    return math.sqrt(worst)


def dirac_kernel(cfg: DiracConfig, grid: Grid) -> tuple:
    """(kernel, exact C) with amplitudes scaled so the short-range threshold
    margin 8 e delta^2 C equals cfg.target_margin.

    Each potential, scale * amp cos(om (t + tau) / 2) sp(x) window(tau - t)
    gam, becomes two convolution terms m(t) c(tau - t) with n = 1 and
    M = (scale amp sp / 2, gam), one for each sign s = +1, -1:

        m(t) = exp(i s om t),   c(z) = window(z) exp(i s om z / 2).

    With z = tau - t, om (t + tau) / 2 = om t + om z / 2, so the two terms
    sum to the potential by cos a = (exp(i a) + exp(-i a)) / 2. Both
    identities are exact; only the rounding of the products differs from
    evaluating the cosine at the midpoint, by a few ulp of the envelope.
    Splitting the time dependence between t and the lag leaves n = 1 in
    every term, and the two terms of a potential share its M. On a window
    of at most `kernels.DIRECT_MAX_LAGS` lags (41 at the benchmark's 256
    points and delta 0.125) `apply_all` takes the direct trapezoid sum: one
    weight block per potential times the trajectory's frames, then M once.
    Longer windows (163 lags at the default 512 points and delta 0.25) go
    by FFT, where every term shares one forward transform of the
    trajectory."""
    if cfg.n_pot < 1:
        raise ScenarioError("the Dirac kernel needs n_pot >= 1 potentials")
    pots = _dirac_potentials(cfg)
    c_unit = _dirac_sup_C(cfg, pots, grid)
    scale = cfg.target_margin / threshold_margin(c_unit, cfg.delta)
    x = grid.coords()[:, 0]
    terms = []
    for amp, om, sp, window, gam in pots:
        M = (0.5 * scale * amp * sp(x), gam)
        for s in (1.0, -1.0):
            terms.append(ConvTerm(
                lambda t, w=s * om: np.exp(1.0j * w * np.asarray(t)),
                lambda z, w=0.5 * s * om, window=window:
                    window(z) * np.exp(1.0j * w * np.asarray(z)),
                None, M))
    kern = make_modulated(grid, terms, delta=cfg.delta)
    return kern, scale * c_unit


def kernel_symmetry_defect(k: TimeKernel, grid: Grid) -> float:
    """max over a fixed grid of (t, tau) pairs and over the sites of

        || B_{t,tau}(x) + B_{tau,t}(x)^+ ||_F dv

    for a kernel B that acts site by site. This is the pointwise form of the
    spin-product symmetry <a | K_{t,tau} b>_spin = <K_{tau,t} a | b>_spin,
    K = i s3 B and <a|b>_spin = a^+ s3 b: for unit fields a, b that defect is
    |a^+ (B_{t,tau} + B_{tau,t}^+) b| dv, at most the spectral norm of the
    sum and so at most this value. No quadrature enters, so it is round-off
    level. Each pair applies B once per direction to the fiber basis at
    every site. The 16 pairs take t on the cell midpoints of four cells of
    [-1, 1] and the lag tau - t on those of [-delta, delta] ([-1, 1]
    without a finite delta)."""
    u = np.array([-0.75, -0.25, 0.25, 0.75])
    reach = k.delta if math.isfinite(k.delta) else 1.0
    f = grid.fiber
    basis = np.tile(np.eye(f, dtype=complex)[:, None, :], (1, grid.sites, 1))
    worst = 0.0
    for t in u:
        for z in u * reach:
            # entry [j, x, g] of B applied to the basis is B(x)[g, j], so
            # B_{tau,t}(x)^+ [g, j] is the conjugate of bwd[g, x, j]
            fwd = k.pair_apply(float(t), float(t + z), basis)
            bwd = k.pair_apply(float(t + z), float(t), basis)
            defect = fwd + np.conj(bwd.transpose(2, 1, 0))
            worst = max(worst, float(np.max(
                np.linalg.norm(defect, axis=(0, 2)))))
    return worst * k.grid.cell_volume


def surface_layer_series(tr: Trajectory, k: Optional[TimeKernel],
                         times) -> np.ndarray:
    """The surface-layer inner product at every lattice time t_N in `times`:
    the slice norm squared corrected by the two-sided cross-surface double
    integral,

        <psi|psi>_N = (psi|psi)_{t_N}
                      - 2 Re  int_{t<t_N} int_{t'>t_N} psi_t^+ B_{t,t'} psi_t' ,

    truncated to the kernel's delta-slab (d = floor(delta / dt) frames on
    each side of t_N). The outer integral is the trapezoid over [N - d, N],
    halved at both ends; the inner one takes the tau frames of [N, N + d]
    that the kernel admits, with half weights at the ends of the window that
    `_slice_arrays` gives and at j = N. Reduces to the slice norm exactly
    when k is None.

    Every pair (i, i + l) the slab integrals touch has lag 0 <= l <= d, so
    all t_N share one `TimeKernel.pair_band` over the frames they span, and
    each t_N reads it through per-lag prefix sums over i in [N - l, N]."""
    idx = np.array([tr.index_of(t) for t in times], dtype=int)
    dv = tr.grid.cell_volume
    nsq = np.array([float(np.einsum("sf,sf->", np.conj(tr.values[i]),
                                    tr.values[i]).real * dv) for i in idx])
    if k is None:
        return nsq
    if math.isfinite(k.delta):
        d = int(math.floor(k.delta / tr.dt + 1e-9))
    else:
        d = tr.n_frames - 1
    lo, hi = int(np.min(idx)) - d, int(np.max(idx)) + d
    if lo < 0 or hi > tr.n_frames - 1:
        raise ScenarioError("trajectory does not cover the delta-slab of t_N")
    slab = Trajectory(tr.grid, tr.dt, tr.index0 + lo, tr.values[lo:hi + 1])
    j0, j1 = k._slice_arrays(slab)
    lags = np.arange(d + 1)[:, None]
    j = np.arange(slab.n_frames) + lags
    # the pair weights that do not depend on t_N: tau trapezoid halves at the
    # window ends, 0 on frames whose window has measure zero
    c = (k.pair_band(slab, d).real * tr.dt * tr.dt
         * np.where(j == j0, 0.5, 1.0) * np.where(j == j1, 0.5, 1.0)
         * (j1 > j0))
    prefix = np.concatenate([np.zeros((d + 1, 1)), np.cumsum(c, axis=1)],
                            axis=1)
    n = idx - lo
    # the weights that do: a pair at i = N takes the outer half (and at
    # l = 0 the tau half at j = N too), a pair at i = N - l, l >= 1, the tau
    # half at j = N (and at l = d the outer half at N - d too). d = 0 leaves
    # no window of positive measure, so c is 0 there.
    w_top = 0.5 * np.where(lags == 0, 0.5, 1.0)
    w_bottom = 0.5 * np.where(lags == d, 0.5, 1.0)
    corr = (prefix[lags, n + 1] - prefix[lags, n - lags]
            - (1.0 - w_top) * c[lags, n]
            - np.where(lags > 0, (1.0 - w_bottom) * c[lags, n - lags], 0.0))
    return nsq - 2.0 * np.sum(corr, axis=0)


def surface_layer_product(tr: Trajectory, k: Optional[TimeKernel],
                          t_N: float) -> float:
    """The surface-layer inner product at one lattice time t_N: the
    one-point case of `surface_layer_series`."""
    return float(surface_layer_series(tr, k, [t_N])[0])


def _dirac_data(grid: Grid) -> StateField:
    x = grid.coords()[:, 0]
    L = grid.extent
    env = bump((x - L / 2.0) / (L / 5.0))
    vals = np.stack([env * np.exp(2.0j * x), 0.5 * env * np.exp(-1.0j * x)],
                    axis=1)
    return StateField(grid, 0.0, vals.astype(complex))


def dirac_problem(cfg: DiracConfig) -> tuple:
    """(system, kernel, its exact C, SolveOptions, T on the dt lattice) of
    the Dirac scenario: dt = cfl dx on a fiber-2 line."""
    grid = make_grid(1, cfg.extent, cfg.points, 2)
    sys = dirac_system(grid, cfg.mass)
    opts = SolveOptions(dt=cfg.cfl * grid.spacing, cfl=cfg.cfl)
    kern, C_exact = dirac_kernel(cfg, grid)
    return sys, kern, C_exact, opts, round(cfg.T / opts.dt) * opts.dt


def _dirac_single(cfg: DiracConfig, problem: tuple) -> dict:
    """The nonlocal run and surface-layer series of a dirac_problem."""
    sys, kern, C_exact, opts, T = problem
    margin = threshold_margin(C_exact, cfg.delta)
    data = _dirac_data(sys.grid)
    res = dyson_short_range(sys, kern, None, data, T, opts, tol=cfg.tol,
                            tol_residual=cfg.tol_residual, n_max=cfg.n_max,
                            W=cfg.n_max * cfg.delta,
                            constants={"C_est": C_exact}, seed=cfg.seed)
    tr = res.partial_sum
    w = inner_weight(sys)

    # surface-layer inner product series over the admissible frame window
    dlt_frames = int(math.floor(cfg.delta / opts.dt + 1e-9))
    i_first = max(tr.index_of(0.0), dlt_frames)
    i_last = tr.n_frames - 1 - dlt_frames
    step = max(1, (i_last - i_first) // 24)
    idx = list(range(i_first, i_last + 1, step))
    times = [tr.time(i) for i in idx]
    series = surface_layer_series(tr, kern, times)
    # the plain slice norms; the Dirac weight is the identity
    nsq_all = frame_norms_sq(tr, w)
    plain = nsq_all[idx]
    drift = float(np.max(np.abs(series - series[0])) / abs(series[0]))

    # (diffes): |<.>_N - (.|.)_t| <= 2 C delta sup_{|tau-t|<=delta} ||psi||^2
    diffes_ok = True
    diffes_margin = 0.0
    for j, i in enumerate(idx):
        sup_local = float(np.max(nsq_all[i - dlt_frames:i + dlt_frames + 1]))
        bound = 2.0 * C_exact * cfg.delta * sup_local
        lhs = abs(series[j] - plain[j])
        diffes_margin = max(diffes_margin, lhs / bound if bound > 0 else 0.0)
        if lhs > 1.1 * bound:
            diffes_ok = False
    ratios = series / plain
    return {"system": sys, "kernel": kern, "result": res, "opts": opts,
            "C_est": C_exact, "margin": margin, "times": times,
            "surface_series": series, "plain_series": plain,
            "surface_drift": drift, "sprod_ratios": ratios,
            "diffes_ok": diffes_ok, "diffes_margin": diffes_margin,
            "data": data, "T": T}


def dirac_run(cfg: DiracConfig) -> dict:
    """Free-run conservation, the converged nonlocal run, and the conserved
    surface-layer product (with an optional coarse run for the drift order)."""
    problem = dirac_problem(cfg)
    sys, kern, _, opts, _ = problem
    w = inner_weight(sys)

    # free run over one crossing
    data = _dirac_data(sys.grid)
    T_cross = round(cfg.extent / opts.dt) * opts.dt
    free = solve_local(sys, None, data, 0.0, T_cross, opts)
    nsq = frame_norms_sq(free, w)
    free_drift = float(np.max(np.abs(nsq - nsq[0])) / nsq[0])
    free_energy = energy_identity(sys, free, None, tolerance=math.inf)
    del free    # released before the nonlocal run

    out = _dirac_single(cfg, problem)
    out.update({
        "clifford_defect": clifford_defect(),
        "spin_symmetry_defect": spin_symmetry_defect(),
        "kernel_symmetry_defect": kernel_symmetry_defect(kern, sys.grid),
        "free_norm_drift": free_drift,
        "free_energy": free_energy,
    })
    if cfg.refine:
        coarse_cfg = DiracConfig(**{**cfg.__dict__, "points": cfg.points // 2,
                                    "refine": False})
        coarse = _dirac_single(coarse_cfg, dirac_problem(coarse_cfg))
        out["drift_order"] = (math.log(coarse["surface_drift"]
                                       / out["surface_drift"]) / math.log(2.0)
                              if out["surface_drift"] > 0 else math.inf)
        out["coarse_drift"] = coarse["surface_drift"]
    return out


# ===========================================================================
# extended first-derivative system
# ===========================================================================

def extended_system_check(n_fields: int = 20, seed: int = 0, points: int = 64,
                          fiber: int = 2, frames: int = 301,
                          rank: int = 2) -> dict:
    """Constant-coefficient 1D system S with a separable kernel B: the
    extended fiber-3f system S1 on Psi = (psi, d_t psi, D_x psi), with B1
    carrying the profile-derivative commutator blocks, must satisfy

        (S - B) psi = phi   <=>   (S1 - B1) Psi = (phi, d_t phi, D_x phi)

    on random smooth fields; returns the per-field relative cross-residuals."""
    rng = np.random.Generator(np.random.Philox(seed))
    L = 2.0 * math.pi
    grid = make_grid(1, L, points, fiber)
    T = 1.0
    dt = T / (frames - 1)

    # constant Hermitian coefficients
    def herm(scale):
        m = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
        return scale * 0.5 * (m + np.conj(m.T))

    A1 = herm(0.5)
    S0 = rng.normal(size=(fiber, fiber)) + 1j * rng.normal(size=(fiber, fiber))
    sys = make_system(grid, np.eye(fiber), [A1], S0=S0, name="extended-base")
    x = grid.coords()[:, 0]

    # separable profiles with closed-form time derivatives
    def make_profile(width_center):
        c, wdt, kx, om = width_center
        def g(t):
            return bump((t - c) / wdt) * np.exp(1j * kx * x + 1j * om * t)
        def g_dot(t):
            b = bump((t - c) / wdt)
            bd = bump_dot((t - c) / wdt) / wdt
            return (bd + 1j * om * b) * np.exp(1j * kx * x + 1j * om * t)
        return g, g_dot

    gs, gds, hs, hds = [], [], [], []
    for a in range(rank):
        gp = (0.35 + 0.1 * a, 0.25, float(rng.integers(1, 3)),
              float(rng.normal()))
        hp = (0.6 - 0.1 * a, 0.2, float(rng.integers(1, 3)),
              float(rng.normal()))
        g_fn, gd_fn = make_profile(gp)
        h_fn, hd_fn = make_profile(hp)
        gs.append(g_fn)
        gds.append(gd_fn)
        hs.append(h_fn)
        hds.append(hd_fn)

    # scalar profiles acting as multiples of a fixed random fiber direction
    dirs = [rng.normal(size=fiber) + 1j * rng.normal(size=fiber)
            for _ in range(rank)]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    hdirs = [rng.normal(size=fiber) + 1j * rng.normal(size=fiber)
             for _ in range(rank)]
    hdirs = [d / np.linalg.norm(d) for d in hdirs]

    def vec_traj(fn, direction):
        vals = np.stack([fn(i * dt)[:, None] * direction[None, :]
                         for i in range(frames)])
        return Trajectory(grid, dt, 0, vals)

    g_tr = [vec_traj(gs[a], dirs[a]) for a in range(rank)]
    gd_tr = [vec_traj(gds[a], dirs[a]) for a in range(rank)]
    gx_tr = [Trajectory(grid, dt, 0, diff4(grid, g_tr[a].values, 0))
             for a in range(rank)]
    h_tr = [vec_traj(hs[a], hdirs[a]) for a in range(rank)]
    hd_tr = [vec_traj(hds[a], hdirs[a]) for a in range(rank)]
    hx_tr = [Trajectory(grid, dt, 0, diff4(grid, h_tr[a].values, 0))
             for a in range(rank)]

    kern = make_separable(g_tr, h_tr)
    kern_gdot = make_separable(gd_tr, h_tr)

    # extended system: block-diagonal constant coefficients
    f3 = 3 * fiber
    grid3 = make_grid(1, L, points, f3)
    eye3 = np.eye(3)
    sys1 = make_system(grid3, np.kron(eye3, np.eye(fiber)),
                       [np.kron(eye3, A1)], S0=np.kron(eye3, S0),
                       name="extended")

    def embed(tr_list, slot):
        """Lift fiber-f profile trajectories into fiber-3f slot `slot`."""
        out = []
        for tr in tr_list:
            vals = np.zeros((frames, grid.sites, f3), dtype=complex)
            vals[:, :, slot * fiber:(slot + 1) * fiber] = tr.values
            out.append(Trajectory(grid3, dt, 0, vals))
        return out

    # B1 as a rank-5r separable kernel on the extended fiber
    G1 = []
    H1 = []
    for a in range(rank):
        # (g, g_dot, D_x g) against h in the psi slot
        vals = np.zeros((frames, grid.sites, f3), dtype=complex)
        vals[:, :, 0 * fiber:1 * fiber] = g_tr[a].values
        vals[:, :, 1 * fiber:2 * fiber] = gd_tr[a].values
        vals[:, :, 2 * fiber:3 * fiber] = gx_tr[a].values
        G1.append(Trajectory(grid3, dt, 0, vals))
        H1.append(embed([h_tr[a]], 0)[0])
        # diagonal blocks g<h, .> on the t and x slots
        G1 += embed([g_tr[a]], 1) + embed([g_tr[a]], 2)
        H1 += embed([h_tr[a]], 1) + embed([h_tr[a]], 2)
        # commutator blocks g<h_dot, .> and g<D_x h, .> fed from the psi slot
        G1 += embed([g_tr[a]], 1) + embed([g_tr[a]], 2)
        H1 += embed([hd_tr[a]], 0) + embed([hx_tr[a]], 0)
    kern1 = make_separable(G1, H1)

    w3 = InnerWeight.identity(grid3)
    residuals = []
    for trial in range(n_fields):
        # random smooth field with analytic time derivatives
        modes = []
        for _ in range(3):
            modes.append((rng.normal(size=fiber) + 1j * rng.normal(size=fiber),
                          float(rng.integers(-3, 4)), float(rng.normal())))

        def psi_f(t):
            acc = np.zeros((grid.sites, fiber), dtype=complex)
            for c, kx, om in modes:
                acc += np.exp(1j * (kx * x + om * t))[:, None] * c[None, :]
            return acc

        def psi_dt(t, order=1):
            acc = np.zeros((grid.sites, fiber), dtype=complex)
            for c, kx, om in modes:
                acc += (1j * om) ** order \
                    * np.exp(1j * (kx * x + om * t))[:, None] * c[None, :]
            return acc

        psi_tr = Trajectory(grid, dt, 0,
                            np.stack([psi_f(i * dt) for i in range(frames)]))
        dpsi = np.stack([psi_dt(i * dt) for i in range(frames)])
        ddpsi = np.stack([psi_dt(i * dt, 2) for i in range(frames)])
        dxpsi = diff4(grid, psi_tr.values, 0)
        dxdpsi = diff4(grid, dpsi, 0)

        b_psi = kern.apply_all(psi_tr)
        bdot_psi = kern_gdot.apply_all(psi_tr)
        phi = apply_S(sys, psi_tr.values, dpsi) - b_psi
        dphi = apply_S(sys, dpsi, ddpsi) - bdot_psi
        dxphi = diff4(grid, phi, 0)

        Psi = np.concatenate([psi_tr.values, dpsi, dxpsi], axis=2)
        dPsi = np.concatenate([dpsi, ddpsi, dxdpsi], axis=2)
        Psi_tr = Trajectory(grid3, dt, 0, Psi)
        b1 = kern1.apply_all(Psi_tr)
        lhs = apply_S(sys1, Psi, dPsi) - b1
        Phi = np.concatenate([phi, dphi, dxphi], axis=2)
        diff_tr = Trajectory(grid3, dt, 0, lhs - Phi)
        phi_tr = Trajectory(grid3, dt, 0, Phi)
        residuals.append(norm_strip(diff_tr, w3) / norm_strip(phi_tr, w3))
    return {"system": sys, "extended_system": sys1, "kernel": kern,
            "extended_kernel": kern1, "residuals": residuals,
            "max_residual": float(np.max(residuals))}
