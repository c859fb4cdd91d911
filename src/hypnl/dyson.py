"""Iterative series solution of (S - B) psi = phi: psi = sum_n psi^(n) with
psi^(0) the sourced local solve and S psi^(n+1) = B psi^(n) with zero data.

Two regimes:
  * retarded: kernel consumes only the past, iteration on [0, T];
  * short time range: kernel radius delta, two-sided solves on [-W, T+W].

Per-iterate norms are recorded against the closed-form theoretical bounds, a
ratio diagnostic drives the Converged / Stalled / Diverged verdict, and the
equation residual of the partial sum is tracked by centered time differencing.
The kernel is applied once per iterate: B psi^(n) is the next source, and by
linearity the running sum of these sources is B applied to the partial sum,
which the residual uses (residual histories agree with re-applying B to the
partial sum to 1e-12 of each series' maximum).

Loop basis: a run keeps its iterates, sources, B psi, the running sums and
the partial sum on the Fourier modes when the plan's recurrence runs on the
modes, the kernel commutes with translations
(`TimeKernel.translation_invariant`) and the inner weight is the same at
every site; otherwise on the sites. The transform is the unitary
`grids.to_modes`: the local solves, B and S (with D_j the stencil symbol,
`grids.mode_diff4`) commute with it, and by Parseval every norm the loop
takes is unchanged, so the two bases give the same series to round-off.
The data and source are transformed once per run; only the partial sum
goes back to the sites, and whatever a monitor or the short-range window
check reads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import (_CHUNK_VALUES, StateField, Trajectory, diff4,
                    frame_norms_sq, mode_diff4, norm_t, to_modes,
                    trapezoid_sum)
from .kernels import TimeKernel, estimate_bound
from .solver import LocalSolver, SolveAborted, SolveOptions
from .systems import SystemSpec, _fiber_apply, apply_S, inner_weight
from .diagnostics import measure_D


class DysonError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# closed-form bounds

def bound_retarded(n: int, K_T: float, t: float, M_T: float) -> float:
    """M_T * K_T^n * t^(2n) / (2n)! — the retarded iterate majorant whose sum
    is M_T cosh(sqrt(K_T) t)."""
    if n < 0 or K_T < 0 or t < 0 or M_T < 0:
        raise DysonError("bound arguments must be nonnegative")
    return M_T * K_T ** n * t ** (2 * n) / math.factorial(2 * n)


def bound_short_log(n: int, C: float, delta: float, D: float, t: float,
                    M: float) -> float:
    """log of bound_short (for large-n ratio arithmetic); -inf at M=0 or C=0
    with n > 0."""
    if n == 0:
        return math.log(M) + D * abs(t) / 2.0 if M > 0 else -math.inf
    if M <= 0 or C <= 0:
        return -math.inf
    return (math.log(M) - math.lgamma(n + 1) + n * math.log(4.0 * C * delta)
            + D * abs(t) / 2.0 + n * math.log(abs(t) + 2.0 * n * delta))


def bound_short(n: int, C: float, delta: float, D: float, t: float,
                M: float) -> float:
    """(M/n!) (4 C delta)^n e^{D|t|/2} (|t| + 2 n delta)^n; its successive
    ratio tends to 8 e delta^2 C."""
    if n < 0 or C < 0 or delta <= 0 or D < 0 or M < 0:
        raise DysonError("bound arguments out of range")
    lg = bound_short_log(n, C, delta, D, t, M)
    if lg == -math.inf:
        return 0.0
    try:
        return math.exp(lg)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# residual of a candidate solution

def _defect_chunks(sys: SystemSpec, b_psi: Optional[np.ndarray],
                   psi: Trajectory, phi: Optional[Trajectory],
                   strip: Optional[tuple], deriv: Callable) -> tuple:
    """(lo, hi, chunks) of equation_defect: the first and last interior
    frame of psi in the strip, and an iterator over the defect on
    consecutive stacks of those frames, at most _CHUNK_VALUES values each."""
    F = psi.n_frames
    if F < 3:
        raise DysonError("need at least 3 frames for the centered residual")
    if b_psi is not None and b_psi.shape != psi.values.shape:
        raise DysonError("B psi does not match the frames of psi")
    dt = psi.dt
    lo, hi = 1, F - 2
    if strip is not None:
        lo = max(lo, int(math.ceil(strip[0] / dt - 1e-9)) - psi.index0)
        hi = min(hi, int(math.floor(strip[1] / dt + 1e-9)) - psi.index0)
    if hi < lo:
        raise DysonError("empty residual strip (insufficient padding)")
    if phi is not None and abs(phi.dt - dt) > 1e-12 * dt:
        raise DysonError("source lattice mismatch")
    v, times = psi.values, psi.times()
    step = max(1, _CHUNK_VALUES // (sys.grid.sites * sys.grid.fiber))

    def chunks():
        for a in range(lo, hi + 1, step):
            e = min(a + step, hi + 1)
            dpsi = (v[a + 1:e + 1] - v[a - 1:e - 1]) / (2.0 * dt)
            d = apply_S(sys, v[a:e], dpsi, times[a:e], deriv)
            if b_psi is not None:
                d -= b_psi[a:e]
            if phi is not None:
                # phi's frames on psi's frames a..e-1; off them phi is 0
                off = phi.index0 - psi.index0
                p, q = max(a, off), min(e, off + phi.n_frames)
                if p < q:
                    d[p - a:q - a] -= phi.values[p - off:q - off]
            yield d
    return lo, hi, chunks()


def equation_defect(sys: SystemSpec, b_psi: Optional[np.ndarray],
                    psi: Trajectory, phi: Optional[Trajectory],
                    strip: Optional[tuple] = None,
                    deriv: Callable = diff4) -> Trajectory:
    """(S - B) psi - phi on the interior frames of psi (those inside `strip`
    when given), with d_t psi by centered frame differences (O(dt^2)).
    `b_psi` is B psi on every frame of psi (None without a kernel): a caller
    holding a kernel k passes k.apply_all(psi), the Dyson loop passes the
    running sum of its sources, which equals it by linearity. S is applied
    to stacks of frames, at most _CHUNK_VALUES values at a time; `deriv` is
    its D_j (see systems.apply_S), `grids.mode_diff4` for Fourier-mode
    values."""
    lo, hi, chunks = _defect_chunks(sys, b_psi, psi, phi, strip, deriv)
    out = np.empty((hi - lo + 1, sys.grid.sites, sys.grid.fiber),
                   dtype=complex)
    a = 0
    for d in chunks:
        out[a:a + len(d)] = d
        a += len(d)
    return Trajectory(sys.grid, psi.dt, psi.index0 + lo, out)


def residual(sys: SystemSpec, b_psi: Optional[np.ndarray], psi: Trajectory,
             phi: Optional[Trajectory], strip: Optional[tuple] = None,
             deriv: Callable = diff4) -> float:
    """Strip norm of the equation defect (S - B) psi - phi over the inner
    strip; endpoint frames are excluded. `b_psi` is B psi as in
    equation_defect: for a Dyson partial sum, the sum of the iterates'
    sources by linearity (equal to k.apply_all(psi) to round-off). The
    defect's frame norms are taken one chunk at a time, so the defect is
    never held whole; the result equals norm_strip of equation_defect
    bitwise."""
    w = inner_weight(sys)
    _, _, chunks = _defect_chunks(sys, b_psi, psi, phi, strip, deriv)
    sq = np.concatenate([frame_norms_sq(Trajectory(sys.grid, psi.dt, 0, d), w)
                         for d in chunks])
    return math.sqrt(max(trapezoid_sum(sq, psi.dt), 0.0))


# ---------------------------------------------------------------------------
# result type

@dataclass
class DysonResult:
    partial_sum: Trajectory
    iterate_sup_norms: list
    iterate_strip_norms: list
    bound_values: list
    residual_history: list
    ratios: list
    verdict: str            # Converged | Stalled | Diverged
    n_used: int
    config: dict = field(default_factory=dict)

    def check_invariants(self, tol: float, tol_residual: float) -> None:
        if len(self.iterate_sup_norms) != self.n_used + 1:
            raise DysonError("iterate norm bookkeeping broken")
        if self.verdict == "Converged":
            if self.residual_history[-1] > tol_residual:
                raise DysonError("Converged verdict with residual above tol")
            if self.n_used >= 1 and self.iterate_strip_norms[-1] > tol:
                raise DysonError("Converged verdict with increment above tol")


def result_to_json(res: DysonResult) -> dict:
    return {
        "verdict": res.verdict,
        "n_used": res.n_used,
        "iterate_sup_norms": [float(v) for v in res.iterate_sup_norms],
        "iterate_strip_norms": [float(v) for v in res.iterate_strip_norms],
        "bound_values": [float(v) for v in res.bound_values],
        "residual_history": [float(v) for v in res.residual_history],
        "ratios": [float(v) for v in res.ratios],
        "config": res.config,
    }


def result_to_csv(res: DysonResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "sup_norm", "strip_norm", "bound", "residual", "ratio"])
        for n in range(res.n_used + 1):
            ratio = res.ratios[n - 1] if n >= 1 else float("nan")
            wr.writerow([n,
                         f"{res.iterate_sup_norms[n]:.17g}",
                         f"{res.iterate_strip_norms[n]:.17g}",
                         f"{res.bound_values[n]:.17g}",
                         f"{res.residual_history[n]:.17g}",
                         f"{ratio:.17g}"])


# ---------------------------------------------------------------------------
# iteration driver

def _two_sided_solve(solver: LocalSolver, src: Optional[Trajectory],
                     data: StateField, t_lo: float, t_hi: float,
                     in_basis: bool) -> Trajectory:
    """Solve from data at t=0 in both directions (forward only for t_lo = 0)
    and merge on one lattice."""
    fwd = solver.solve(src, data, 0.0, t_hi, in_basis)
    if t_lo >= -1e-15:
        return fwd
    bwd = solver.solve(src, data, 0.0, t_lo, in_basis)
    vals = np.concatenate([bwd.values[:-1], fwd.values])
    return Trajectory(fwd.grid, fwd.dt, bwd.index0, vals)


def _norms(tr: Trajectory, w) -> tuple:
    sq = frame_norms_sq(tr, w)
    return (math.sqrt(max(float(np.max(sq)), 0.0)),
            math.sqrt(max(trapezoid_sum(sq, tr.dt), 0.0)))


def _window_can_clip(n: int, delta: float, W: float, n_max: int) -> bool:
    """Whether boundary clipping at iterate n can reach the inner strip
    within the remaining iteration budget. Clipping only happens where the
    applied source is live within delta of the window boundary; the
    resulting error then travels inward by at most delta per iterate, so
    with W >= n_max * delta it can never contaminate the strip."""
    return math.isfinite(delta) and (n_max - n) * delta > W - delta + 1e-9


def _window_contamination(src: Trajectory, delta: float, W: float,
                          T: float) -> bool:
    """True when the source (site values) is live, above 1e-10 of its peak,
    within delta of the window boundary of [-W, T + W]."""
    amp = np.max(np.abs(src.values), axis=(1, 2))
    peak = float(np.max(amp))
    if peak == 0.0:
        return False
    times = src.times()
    mask = (times < -W + delta + 1e-9) | (times > T + W - delta - 1e-9)
    if not np.any(mask):
        return False
    return bool(np.max(amp[mask]) > 1e-10 * peak)


def _runs_on_modes(sys: SystemSpec, k: Optional[TimeKernel],
                   solver: LocalSolver) -> bool:
    """Whether a Dyson run keeps its iterates on the Fourier modes: the plan
    is a recurrence on the modes, k commutes with translations and the inner
    weight is the same at every site. Then the local solves, B, S and every
    norm commute with the unitary `grids.to_modes` (the norms by Parseval)."""
    if solver.basis != "modes" or k is None or not k.translation_invariant:
        return False
    w = inner_weight(sys).weight
    return bool(np.all(w == w[0]))


def _on_modes(tr: Optional[Trajectory], modes: bool,
              inverse: bool = False) -> Optional[Trajectory]:
    """tr with its values taken to the Fourier modes (or back); tr itself
    on a sites run."""
    if tr is None or not modes:
        return tr
    return Trajectory(tr.grid, tr.dt, tr.index0,
                      to_modes(tr.grid, tr.values, inverse))


def _run_iteration(sys, k, phi, data, T, opts, tol, tol_residual, n_max,
                   short_range, W, n_min, monitor, constants):
    grid = sys.grid
    t_lo, t_hi = (-W, T + W) if short_range else (0.0, T)
    solver = LocalSolver(sys, opts)
    # the loop's basis: everything below runs on it, and only the partial
    # sum, and what a monitor or the window check reads, go back to sites
    modes = _runs_on_modes(sys, k, solver)
    deriv = mode_diff4(grid) if modes else diff4
    phi = _on_modes(phi, modes)
    if modes:
        data = StateField(grid, data.time, to_modes(grid, data.values))

    def solve(src, d):
        return _two_sided_solve(solver, src, d, t_lo, t_hi, modes)

    w = inner_weight(sys)
    psi = solve(phi, data)
    total = psi
    sup0, strip0 = _norms(psi, w)
    sup_norms, strip_norms = [sup0], [strip0]

    C = constants["C_est"]
    D = constants["D"]
    M = constants["M"]
    delta = k.delta if k is not None else math.inf
    if short_range:
        bound_fn = lambda n: bound_short(n, C, delta, D, T, M)
    else:
        K_T = C * math.exp(D * T / 2.0)
        constants["K_T"] = K_T
        bound_fn = lambda n: bound_retarded(n, K_T, T, M * math.exp(D * T / 2.0))
    bounds = [bound_fn(0)]
    ratios = []
    verdict = None
    n_used = 0

    if monitor is not None:
        monitor(0, _on_modes(psi, modes, inverse=True), None)
    # b = B psi^(n) is the source of iterate n + 1, and by linearity the
    # running sum b_sum of these is B applied to the partial sum
    b = k.apply_all(psi) if k is not None else None
    b_sum = b
    residuals = [residual(sys, b_sum, total, phi, (0.0, T), deriv)]

    plateau = 0
    blowup = 0
    for n in range(1, n_max + 1):
        if k is None:
            verdict = ("Converged"
                       if residuals[-1] <= tol_residual else "Stalled")
            break
        src = Trajectory(grid, psi.dt, psi.index0, b)
        if (short_range and _window_can_clip(n, delta, W, n_max)
                and _window_contamination(_on_modes(src, modes, inverse=True),
                                          delta, W, T)):
            raise DysonError(f"window exhausted at iterate {n}: support "
                             f"reaches the clipped boundary of [-{W}, {T + W}]")
        src_sup, src_strip = _norms(src, w)
        if src_sup == 0.0 and src_strip == 0.0:
            verdict = ("Converged"
                       if residuals[-1] <= tol_residual else "Stalled")
            break
        psi = None              # release psi^(n-1) before solving for psi^(n)
        try:
            psi = solve(src, StateField(grid, 0.0, grid.zeros()))
        except SolveAborted:
            verdict = "Diverged"
            break
        # total is psi^(0) until it gets its own array here; later iterates
        # are added in place
        if n == 1:
            total = total.plus(psi)
        else:
            np.add(total.values, psi.values, out=total.values)
        sup_n, strip_n = _norms(psi, w)
        sup_norms.append(sup_n)
        strip_norms.append(strip_n)
        bounds.append(bound_fn(n))
        n_used = n
        if monitor is not None:
            monitor(n, _on_modes(psi, modes, inverse=True),
                    _on_modes(src, modes, inverse=True))
        src = b = None          # release the old source before B psi^(n)
        b = k.apply_all(psi)
        # b_sum is B psi^(0), the source just used, until it gets its own
        # array here; later terms are added in place
        b_sum = b_sum + b if n == 1 else np.add(b_sum, b, out=b_sum)
        residuals.append(residual(sys, b_sum, total, phi, (0.0, T), deriv))

        prev = strip_norms[-2]
        r = strip_n / prev if prev > 0 else math.inf
        ratios.append(r)
        if not math.isfinite(sup_n) or sup_n > 1e120:
            verdict = "Diverged"
            break
        plateau = plateau + 1 if 0.98 <= r <= 1.02 else 0
        blowup = blowup + 1 if r > 1.05 else 0
        if strip_n <= tol and residuals[-1] <= tol_residual:
            verdict = "Converged"
            break
        if n >= n_min:
            if blowup >= 5:
                verdict = "Diverged"
                break
            if plateau >= 5:
                verdict = "Stalled"
                break
    if verdict is None:
        verdict = "Stalled"
    if modes:
        # back to the sites in place, a chunk of frames at a time
        v = total.values
        step = max(1, _CHUNK_VALUES // (grid.sites * grid.fiber))
        for a in range(0, len(v), step):
            v[a:a + step] = to_modes(grid, v[a:a + step], inverse=True)

    cfg = dict(constants)
    cfg.update({"T": T, "delta": delta, "tol": tol,
                "tol_residual": tol_residual, "n_max": n_max,
                "short_range": short_range, "W": W if short_range else 0.0})
    res = DysonResult(partial_sum=total, iterate_sup_norms=sup_norms,
                      iterate_strip_norms=strip_norms, bound_values=bounds,
                      residual_history=residuals, ratios=ratios,
                      verdict=verdict, n_used=n_used, config=cfg)
    res.check_invariants(tol, tol_residual)
    return res


def _measure_constants(sys, k, phi, data, T, constants, window, seed):
    out = dict(constants or {})
    w = inner_weight(sys)
    if "D" not in out:
        out["D"] = measure_D(sys, window=(window[0], window[1]), probes=16)
    if "C_est" not in out:
        out["C_est"] = estimate_bound(k, sys, probes=32, t_window=window,
                                      D=0.0, seed=seed).C_est
    if "M" not in out:
        m = norm_t(data, w)
        if phi is not None:
            # + int ||A0^{-1} phi||_t dt over the source window
            nv = Trajectory(phi.grid, phi.dt, phi.index0,
                            _fiber_apply(sys.plan.A0_inv, phi.values))
            m += trapezoid_sum(np.sqrt(np.maximum(frame_norms_sq(nv, w), 0.0)),
                               phi.dt)
        out["M"] = m
    return out


def dyson_retarded(sys: SystemSpec, k: Optional[TimeKernel],
                   phi: Optional[Trajectory], data: StateField, T: float,
                   opts: SolveOptions, tol: float = 1e-8,
                   tol_residual: float = 1e-3, n_max: int = 40,
                   n_min: int = 0, constants: Optional[dict] = None,
                   allow_early_switch_on: bool = False, seed: int = 0,
                   monitor: Optional[Callable] = None) -> DysonResult:
    """Series solution on [0, T] for a retarded kernel switched on at t >= 0."""
    if opts.store_every != 1:
        raise DysonError("kernel consumption requires store_every = 1")
    if k is not None:
        if not k.retarded:
            raise DysonError("dyson_retarded needs a retarded kernel")
        if k.switch_on < -1e-12:
            cst = _measure_constants(sys, k, phi, data, T, constants,
                                     (k.switch_on, T), seed)
            t0 = abs(k.switch_on)
            margin = t0 * t0 * math.exp(cst["D"] * t0 / 2.0) * cst["C_est"]
            if not allow_early_switch_on or margin >= 1.0:
                raise DysonError(
                    f"switch-on before the data surface needs margin "
                    f"t0^2 e^(D t0/2) C = {margin:.3g} < 1 and the explicit flag")
    base = dict(constants or {})
    if k is None:
        base.setdefault("C_est", 0.0)
    cst = _measure_constants(sys, k, phi, data, T, base, (0.0, T), seed)
    return _run_iteration(sys, k, phi, data, T, opts, tol, tol_residual,
                          n_max, False, 0.0, n_min, monitor, cst)


def dyson_short_range(sys: SystemSpec, k: TimeKernel,
                      phi: Optional[Trajectory], data: StateField, T: float,
                      opts: SolveOptions, tol: float = 1e-8,
                      tol_residual: float = 1e-3, n_max: int = 40,
                      W: Optional[float] = None, n_min: int = 0,
                      constants: Optional[dict] = None, seed: int = 0,
                      monitor: Optional[Callable] = None) -> DysonResult:
    """Series solution with a finite-time-range kernel; iterates solve on the
    two-sided window [-W, T+W] with zero data at t=0 for n >= 1."""
    if opts.store_every != 1:
        raise DysonError("kernel consumption requires store_every = 1")
    if not math.isfinite(k.delta):
        raise DysonError("short-range iteration needs a finite kernel range")
    if W is None:
        W = n_max * k.delta
    # snap the window up to the frame lattice (never below the requested reach)
    W = math.ceil(W / opts.dt - 1e-9) * opts.dt
    if W < k.delta:
        raise DysonError("window W must cover at least one kernel range")
    cst = _measure_constants(sys, k, phi, data, T, constants, (-W, T + W), seed)
    return _run_iteration(sys, k, phi, data, T, opts, tol, tol_residual,
                          n_max, True, W, n_min, monitor, cst)


