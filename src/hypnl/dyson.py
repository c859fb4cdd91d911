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

Loop basis: a run keeps its iterates, sources, the running sums and the
partial sum in the eigen coordinates of the generator L on the Fourier
modes when the system's solves are the eigenbasis recurrence on the modes
(`LocalSolver.basis` "modes", whose recurrence is "eigen"), the kernel
commutes with translations (`TimeKernel.translation_invariant`) and the
inner weight is the same at every site; otherwise on the sites. With y
the modes of a field (the unitary `grids.to_modes`) and
L = V diag(-i lam) V^-1 per mode, an iterate or the partial sum is held as
u = V^-1 y and a source as w = V^-1 A0^-1 s (`LocalSolver.to_eigen`):
  * the local solves only step (`LocalSolver.solve(..., in_basis=True)`);
  * B is one `apply_all` of the loop kernel (_eigen_kernel): k with each
    M folded to the per-mode stack V^-1 A0^-1 M V, which takes u to the
    source w (B commutes with to_modes, and each term's time integration
    is scalar, so it commutes with the per-mode maps);
  * the defect (S - B) psi - phi is A0 V x with
    x = d_t U + i lam U - W_sum - w_phi elementwise, U the partial sum and
    W_sum the running sum of sources; with A0 = I its norm is that of x;
  * V is unitary in the A0 inner product, so the slice norm of an iterate
    is the plain one of u, times the lapse (the same at every site).
By Parseval and these identities the two bases give the same series to
round-off. The data and source go to the eigen coordinates once per run;
only the partial sum goes back to the sites (by V, then the inverse
transform), and whatever a monitor or the short-range window check reads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import (_CHUNK_VALUES, InnerWeight, StateField, Trajectory,
                    frame_norms_sq, norm_t, to_modes, trapezoid_sum)
from .kernels import TimeKernel, _fold_M, estimate_bound
from .solver import LocalSolver, SolveAborted, SolveOptions
from .systems import SystemSpec, _fiber_apply, apply_S, inner_weight
from .diagnostics import measure_D


class DysonError(RuntimeError):
    pass


# trajectories a Dyson run holds at once: the partial sum, the running sum
# of sources, an iterate and its source (see _run_iteration)
LIVE_TRAJECTORIES = 4


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
                   strip: Optional[tuple],
                   solver: Optional[LocalSolver] = None) -> tuple:
    """(lo, hi, chunks) of equation_defect: the first and last interior
    frame of psi in the strip, and an iterator over the defect on
    consecutive stacks of those frames, at most _CHUNK_VALUES values each.
    With `solver`, psi, b_psi and phi hold eigen coordinates of its
    recurrence on the modes (see residual), and each stack is the defect on
    the modes (with A0 = I, x of the module docstring, which has its norms:
    V is unitary), in one buffer that the next stack overwrites."""
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
    v = psi.values
    step = max(1, _CHUNK_VALUES // (sys.grid.sites * sys.grid.fiber))
    if solver is not None:
        i_lam = 1j * solver.eigenbasis()[0]
        # one pair of buffers for every chunk: fresh arrays of a frame
        # each cost page faults
        buf = np.empty((2, step) + v.shape[1:], dtype=complex)

    def chunks():
        for a in range(lo, hi + 1, step):
            e = min(a + step, hi + 1)
            if solver is None:
                dpsi = (v[a + 1:e + 1] - v[a - 1:e - 1]) / (2.0 * dt)
                d = apply_S(sys, v[a:e], dpsi)
            else:
                d, term = buf[:, :e - a]
                np.subtract(v[a + 1:e + 1], v[a - 1:e - 1], out=d)
                # numpy divides complex values by a real number as a
                # product with its reciprocal (the same bits), but 10x
                # slower
                d *= 1.0 / (2.0 * dt)
                d += np.multiply(i_lam, v[a:e], out=term)
            if b_psi is not None:
                d -= b_psi[a:e]
            if phi is not None:
                # phi's frames on psi's frames a..e-1; off them phi is 0
                off = phi.index0 - psi.index0
                p, q = max(a, off), min(e, off + phi.n_frames)
                if p < q:
                    d[p - a:q - a] -= phi.values[p - off:q - off]
            if solver is not None and sys.A0 is not None:
                d = solver.from_eigen(d, source=True, out=d)
            yield d
    return lo, hi, chunks()


def equation_defect(sys: SystemSpec, b_psi: Optional[np.ndarray],
                    psi: Trajectory, phi: Optional[Trajectory],
                    strip: Optional[tuple] = None) -> Trajectory:
    """(S - B) psi - phi on the interior frames of psi (those inside `strip`
    when given), with d_t psi by centered frame differences (O(dt^2)).
    `b_psi` is B psi on every frame of psi (None without a kernel): a caller
    holding a kernel k passes k.apply_all(psi), the Dyson loop passes the
    running sum of its sources, which equals it by linearity. S is applied
    to stacks of frames, at most _CHUNK_VALUES values at a time."""
    lo, hi, chunks = _defect_chunks(sys, b_psi, psi, phi, strip)
    out = np.empty((hi - lo + 1, sys.grid.sites, sys.grid.fiber),
                   dtype=complex)
    a = 0
    for d in chunks:
        out[a:a + len(d)] = d
        a += len(d)
    return Trajectory(sys.grid, psi.dt, psi.index0 + lo, out)


def residual(sys: SystemSpec, b_psi: Optional[np.ndarray], psi: Trajectory,
             phi: Optional[Trajectory], strip: Optional[tuple] = None,
             solver: Optional[LocalSolver] = None) -> float:
    """Strip norm of the equation defect (S - B) psi - phi over the inner
    strip; endpoint frames are excluded. `b_psi` is B psi as in
    equation_defect: for a Dyson partial sum, the sum of the iterates'
    sources by linearity (equal to k.apply_all(psi) to round-off). The
    defect's frame norms are taken one chunk at a time, so the defect is
    never held whole; without `solver` the result equals norm_strip of
    equation_defect bitwise. With `solver` (an "eigen" recurrence on the
    modes), psi holds u, and b_psi and phi hold w, its eigen coordinates
    (see LocalSolver.to_eigen): the defect is then elementwise, as in the
    module docstring, and its norm equals the site one to round-off."""
    w = inner_weight(sys)
    _, _, chunks = _defect_chunks(sys, b_psi, psi, phi, strip, solver)
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
    within delta of the window boundary of [-W, T + W]. The whole source is
    read only when the edge bands (views of its end frames) are live."""
    times = src.times()
    bands = (src.values[:np.count_nonzero(times < -W + delta + 1e-9)],
             src.values[np.count_nonzero(times <= T + W - delta - 1e-9):])
    if not any(b.any() for b in bands):
        return False
    floor = 1e-10 * np.max(np.abs(src.values))
    return any(bool(np.max(np.abs(b), initial=0.0) > floor) for b in bands)


def _runs_on_modes(sys: SystemSpec, k: Optional[TimeKernel],
                   solver: LocalSolver) -> bool:
    """Whether a Dyson run keeps its iterates in the eigen coordinates of
    the generator on the Fourier modes (see the module docstring): the
    system's solves are the eigenbasis recurrence on the modes (the only
    recurrence there), k commutes with translations and the inner weight is
    the same at every site."""
    if solver.basis != "modes" or k is None or not k.translation_invariant:
        return False
    w = inner_weight(sys).weight
    return w is None or w.ndim == 2


def _eigen_kernel(k: TimeKernel, solver: LocalSolver) -> TimeKernel:
    """k in the eigen coordinates of the solver's recurrence on the modes
    (see the module docstring): each M folded to the per-mode stack
    V^-1 A0^-1 M V (`kernels._fold_M`), so that its apply_all takes an
    iterate u to the source w of B psi."""
    _, vecs, _, to_w, _ = solver.eigenbasis()
    return _fold_M(k, to_w, vecs)


def _to_eigen(solver: LocalSolver, values: np.ndarray,
              source: bool = False) -> np.ndarray:
    """Site values of a stack of frames in the eigen coordinates of the
    solver's recurrence on the modes (see LocalSolver.to_eigen)."""
    v = to_modes(solver.sys.grid, values)
    return solver.to_eigen(v, source, out=v)


def _to_sites(solver: LocalSolver, values: np.ndarray, source: bool = False,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """The inverse of _to_eigen, into `out` (which may be `values`; a new
    array when None): by V (A0 V for a source), then the inverse transform
    in place, a chunk of frames at a time."""
    grid = solver.sys.grid
    v = solver.from_eigen(values, source, out)
    step = max(1, _CHUNK_VALUES // (grid.sites * grid.fiber))
    for a in range(0, len(v), step):
        v[a:a + step] = to_modes(grid, v[a:a + step], inverse=True)
    return v


def _run_iteration(sys, k, phi, data, T, opts, tol, tol_residual, n_max,
                   short_range, W, n_min, monitor, constants):
    grid = sys.grid
    t_lo, t_hi = (-W, T + W) if short_range else (0.0, T)
    solver = LocalSolver(sys, opts)
    w = inner_weight(sys)
    # the loop's basis: everything below runs in it, and only the partial
    # sum, and what a monitor or the window check reads, go back to sites
    eigen = _runs_on_modes(sys, k, solver)
    basis_solver = solver if eigen else None
    if eigen:
        if phi is not None:
            phi = Trajectory(grid, phi.dt, phi.index0,
                             _to_eigen(solver, phi.values, source=True))
        data = StateField(grid, data.time, _to_eigen(solver,
                                                     data.values[None])[0])
        if sys.A0 is not None:
            # V is unitary in the A0 inner product: the slice weight of
            # eigen coordinates is the lapse alone
            beta = sys.beta[0]
            w = InnerWeight(grid, None if beta == 1.0
                            else beta * np.eye(grid.fiber))

    def solve(src, d):
        return _two_sided_solve(solver, src, d, t_lo, t_hi, eigen)

    # B in the loop's basis, built once per run
    k_loop = _eigen_kernel(k, solver) if eigen else k

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

    def report(n):
        # the monitor sees psi^(n), the partial sum and B applied to it, in
        # site values
        if monitor is None:
            return
        if not eigen:
            monitor(n, psi, total, b_sum)
            return
        monitor(n, Trajectory(grid, psi.dt, psi.index0,
                              _to_sites(solver, psi.values)),
                Trajectory(grid, total.dt, total.index0,
                           _to_sites(solver, total.values)),
                _to_sites(solver, b_sum, source=True))

    # b = B psi^(n) is the source of iterate n + 1, and by linearity the
    # running sum b_sum of these is B applied to the partial sum
    b = k_loop.apply_all(psi) if k is not None else None
    b_sum = b
    report(0)
    residuals = [residual(sys, b_sum, total, phi, (0.0, T), basis_solver)]

    plateau = 0
    blowup = 0
    for n in range(1, n_max + 1):
        if k is None:
            verdict = ("Converged"
                       if residuals[-1] <= tol_residual else "Stalled")
            break
        src = Trajectory(grid, psi.dt, psi.index0, b)
        if (short_range and _window_can_clip(n, delta, W, n_max)
                and _window_contamination(
                    Trajectory(grid, src.dt, src.index0,
                               _to_sites(solver, b, source=True))
                    if eigen else src, delta, W, T)):
            raise DysonError(f"window exhausted at iterate {n}: support "
                             f"reaches the clipped boundary of [-{W}, {T + W}]")
        # an all-zero source ends the series with psi^(n) = 0 exactly, which
        # is recorded without a solve; one with a nonzero value is solved,
        # even when every square underflows (values below about 1e-162) and
        # its frame norms read zero
        if not np.any(b):
            sup_norms.append(0.0)
            strip_norms.append(0.0)
            bounds.append(bound_fn(n))
            residuals.append(residuals[-1])
            ratios.append(0.0)
            n_used = n
            if monitor is not None:
                psi = Trajectory(grid, psi.dt, psi.index0,
                                 np.zeros_like(psi.values))
                report(n)
            verdict = ("Converged"
                       if residuals[-1] <= tol_residual else "Stalled")
            break
        psi = None              # release psi^(n-1) before solving for psi^(n)
        try:
            psi = solve(src, StateField(grid, 0.0, grid.zeros()))
        except SolveAborted:
            verdict = "Diverged"
            break
        # release the source B psi^(n-1) (at n = 1 b_sum still holds it):
        # from here on the loop holds at most four trajectories, total,
        # b_sum, psi^(n) and B psi^(n)
        src = b = None
        # total is psi^(0), handed to the monitor, until it gets its own
        # array here; later iterates are added in place
        if n == 1:
            total = total.plus(psi)
        else:
            np.add(total.values, psi.values, out=total.values)
        sup_n, strip_n = _norms(psi, w)
        sup_norms.append(sup_n)
        strip_norms.append(strip_n)
        bounds.append(bound_fn(n))
        n_used = n
        b = k_loop.apply_all(psi)
        np.add(b_sum, b, out=b_sum)
        report(n)
        residuals.append(residual(sys, b_sum, total, phi, (0.0, T),
                                  basis_solver))

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
    if eigen:
        _to_sites(solver, total.values, out=total.values)

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
        out["D"] = measure_D(sys)
    if "C_est" not in out:
        out["C_est"] = estimate_bound(k, sys, t_window=window, D=0.0,
                                      seed=seed).C_est
    if "M" not in out:
        m = norm_t(data, w)
        if phi is not None:
            # + int ||A0^{-1} phi||_t dt over the source window
            nv = Trajectory(phi.grid, phi.dt, phi.index0,
                            _fiber_apply(sys.A0_inv, phi.values))
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
    """Series solution on [0, T] for a retarded kernel switched on at t >= 0
    (or at a finite t0 < 0, with `allow_early_switch_on` and a margin
    t0^2 e^(D |t0|/2) C < 1). `monitor(n, psi, total, b_total)` is called
    once per iterate n = 0 .. n_used, after B psi^(n) is added: psi^(n) and
    the partial sum (Trajectories) and B applied to that sum (an array, None
    without a kernel), in site values. They may be the loop's own arrays,
    written in place after the call (b_total from iterate 1 on, the partial
    sum from iterate 2 on): a monitor that keeps one copies it, and writes
    none."""
    if k is not None:
        if not k.retarded:
            raise DysonError("dyson_retarded needs a retarded kernel")
        if not math.isfinite(k.switch_on):
            raise DysonError(f"a retarded kernel needs a finite switch-on, "
                             f"not switch_on = {k.switch_on}")
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
    two-sided window [-W, T+W] with zero data at t=0 for n >= 1. `monitor`
    is called as in `dyson_retarded`, on the frames of [-W, T+W]."""
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


