"""Local Cauchy solver for S psi = phi, psi(t0) = f, by RK4 method of lines
on the periodic grid, plus the evolution operator U(t, tau) and the retarded
Green operator.

Sources live on the solve's own frame lattice, and every path reads them at
lattice frames: step n reads source frame n at its start, frame n + 1 at
its end and their mean at the midpoint stage (shared by the k2 and k3
stages), each only where its frames lie in the source's window, so an edge
step, with one end in the window, reads zero at its midpoint. That sets an
O(dt^2) floor for sourced runs, and phi = 0 keeps full 4th order. Measured
over [0, 2], halving dt from 0.05 to 0.025 cuts the error of
d_t psi = -psi + cos(3t) from zero data by 2^2.0, and that of
d_t psi = -psi from psi = 1 by 2^4.0
(tests/test_solver.py::test_green_retarded_order_floor).
Backward solves (t1 < t0) are supported; frames are always returned in
increasing-time order on the integer lattice i * dt.

A solve takes one of two paths; the system alone chooses it, and there is
no setting:

* Linear recurrence (no S0_t, and either no spatial term or every
  coefficient the same at every site): one RK4 step of the linear
  autonomous system is exactly y+ = K [y; s_n; s_n+1] with K = [R | P0 | P1],
  block-diagonal on the sites or on the Fourier modes of the torus. K is
  built once per LocalSolver and direction, the data are transformed once
  per solve, a block of steps that reads a source frame is one batched
  product of K (see _block_product), one without steps R y alone, and the
  frames are transformed back once. A state-free system (no live A^j, no
  S0) is its L = 0 case on the sites: R = I, P0 = P1 = (h/2) I, and a step
  with one end in the source window adds (h/6) s, so the frames are the
  data plus one cumulative sum of these increments, without a per-step
  loop. The frames agree with the per-step loop to round-off: below 1e-14
  of the largest frame value, tested at 1e-13.
* Stepping (a time-dependent S0, or a spatial term with a coefficient that
  varies by site): the RK4 loop, each stage applying the coefficients,
  writing each frame into one preallocated array; bitwise equal to the
  per-step loop.

Every path stops at the first non-finite frame with SolveAborted, carrying
the loop's message, partial frames and last_stable
(tests/test_solver.py::test_solve_local_matches_reference_loop and
test_non_finite_source_aborts_like_reference_loop). Both paths read the same
source frames at every step, so a non-finite source frame aborts them at the
same step. On the Fourier modes, a solve within a factor of `sites` of
overflow may abort one step earlier than the loop, and real data picks up
imaginary round-off.

The recurrence is split from its transforms: `LocalSolver.solve(...,
in_basis=True)` takes the data and source already in the basis and returns
the frames in it. The transform to the modes is the unitary
`grids.to_modes`, so by Parseval a slice norm whose weight is the same at
every site reads the same on the modes as on the sites. A Dyson run whose
kernel also commutes with translations keeps its iterates on the modes
this way (the loop-basis rule in `dyson`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .grids import (_CHUNK_VALUES, Grid, StateField, Trajectory,
                    stencil_symbols, to_modes)
from .systems import SystemSpec, _fiber_apply, evolution_rhs


class SolverError(RuntimeError):
    pass


class SolveAborted(SolverError):
    """NaN/Inf detected mid-run; carries the partial trajectory."""

    def __init__(self, msg: str, partial: Trajectory, last_stable: int):
        super().__init__(msg)
        self.partial = partial
        self.last_stable = last_stable


@dataclass(frozen=True)
class SolveOptions:
    dt: float
    cfl: float = 0.25

    def __post_init__(self):
        if self.dt <= 0:
            raise SolverError("dt must be positive")
        if not (0 < self.cfl <= 0.5):
            raise SolverError("cfl must lie in (0, 0.5]")


def check_cfl(sys: SystemSpec, opts: SolveOptions) -> None:
    if sys.v_max == 0.0:
        return
    limit = opts.cfl * sys.grid.spacing / sys.v_max
    if opts.dt > limit * (1 + 1e-12):
        raise SolverError(
            f"dt={opts.dt:.3e} violates CFL limit {limit:.3e} "
            f"(cfl={opts.cfl}, dx={sys.grid.spacing:.3e}, v_max={sys.v_max:.3g})")


def _lattice_index(t: float, dt: float) -> int:
    i = round(t / dt)
    if abs(i * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise SolverError(f"time {t} not on the dt={dt} lattice")
    return i


def _rk4_step(sys: SystemSpec, y: np.ndarray, t: float, h: float,
              src: tuple, out: np.ndarray) -> np.ndarray:
    """One RK4 step from y at t, written into `out`; `src` holds the source
    at t, t + h/2 (shared by the k2 and k3 stages) and t + h, None where it
    is zero."""
    s_t, s_mid, s_end = src
    k1 = evolution_rhs(sys, y, t, s_t)
    k2 = evolution_rhs(sys, y + 0.5 * h * k1, t + 0.5 * h, s_mid)
    k3 = evolution_rhs(sys, y + 0.5 * h * k2, t + 0.5 * h, s_mid)
    k4 = evolution_rhs(sys, y + h * k3, t + h, s_end)
    # y + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in place
    k2 *= 2.0
    k3 *= 2.0
    k1 += k2
    k1 += k3
    k1 += k4
    k1 *= h / 6.0
    return np.add(y, k1, out=out)


def _basis(sys: SystemSpec) -> Optional[str]:
    """The basis in which the system is a linear autonomous recurrence that
    does not couple its blocks: "sites" when it has no spatial term (with no
    S0 either, L = 0: see _source_integral), "modes" (Fourier modes of the
    torus) when every coefficient is the same at every site, None when it has
    to step (a time-dependent S0, or a spatial term with a coefficient that
    varies by site)."""
    if sys.S0_t is not None:
        return None
    if not sys.live:
        return "sites"
    coeffs = (sys.A0_inv, sys.S0) + tuple(sys.Aj[j] for j, _ in sys.live)
    if all(c is None or c.ndim == 2 for c in coeffs):
        return "modes"
    return None


def _transform(grid: Grid, basis: str, values: np.ndarray,
               inverse: bool = False) -> np.ndarray:
    """(..., sites, f) values in the basis (or back from it): the identity on
    the sites, the unitary `grids.to_modes` on the modes."""
    return values if basis == "sites" else to_modes(grid, values, inverse)


def _generator(sys: SystemSpec, basis: str,
               modes: slice = slice(None)) -> np.ndarray:
    """L of the semi-discrete system d_t y = L y + A0^{-1} source in the
    basis, in `_fiber_apply` form. On the Fourier modes (those in `modes`,
    in np.fft.fftn order),

        L(k) = A0^{-1} (S0 - i sum_j sigma(theta_j) A^j),

    with i sigma the stencil symbol (`grids.stencil_symbols`) and
    theta_j = 2 pi m_j / points."""
    g = sys.grid
    f = g.fiber
    a0_inv = np.eye(f) if sys.A0_inv is None else sys.A0_inv
    gen = a0_inv @ sys.S0 if sys.S0 is not None else np.zeros((f, f))
    if basis == "sites":
        return gen
    symbols = stencil_symbols(g)[:, modes]
    out = np.empty((symbols.shape[1], f, f), dtype=complex)
    out[:] = gen
    for j, _ in sys.live:
        a = sys.Aj[j]
        m = a0_inv if a is None else a0_inv @ a
        out -= symbols[j][:, None, None] * m
    return out


def _rk4_polys(z: np.ndarray, h: float) -> np.ndarray:
    """K = [R | P0 | P1], of shape (..., f, 3f), of one RK4 step of
    d_t y = L y + s(t) from Z = h L (scaled in place). The step is exactly

        y+ = R y + Q0 s(t) + Q_half s(t + h/2) + Q1 s(t + h),

    with R = I + Z + Z^2/2 + Z^3/6 + Z^4/24, Q0 = (h/6)(I + Z + Z^2/2 + Z^3/4),
    Q_half = (h/6)(4I + 2Z + Z^2/2) and Q1 = (h/6) I. A step with its source
    frames s0, s1 at both ends, so that s(t + h/2) = (s0 + s1)/2, adds
    P0 s0 + P1 s1 with P0 = Q0 + Q_half/2 = (h/6)(3I + 2Z + 3Z^2/4 + Z^3/4)
    and P1 = Q1 + Q_half/2 = (h/6)(3I + Z + Z^2/4), so the whole step is
    K [y; s0; s1]."""
    z *= h
    eye = np.eye(z.shape[-1])
    z2 = z @ z
    z3 = z @ z2
    c = h / 6.0
    return np.concatenate([eye + z + z2 / 2.0 + z3 / 6.0 + (z2 @ z2) / 24.0,
                           c * (3.0 * eye + 2.0 * z + 0.75 * z2 + 0.25 * z3),
                           c * (3.0 * eye + z + 0.25 * z2)], axis=-1)


def _step_matrices(sys: SystemSpec, basis: str, h: float) -> np.ndarray:
    """K of the system in the basis (see _rk4_polys), (f, 3f) or per site or
    mode (sites, f, 3f); on the modes it is formed for chunks of modes, so
    that only the result is the size of a per-mode stack."""
    if basis == "sites":
        return _rk4_polys(_generator(sys, basis), h)
    g = sys.grid
    out = np.empty((g.sites, g.fiber, 3 * g.fiber), dtype=complex)
    step = max(1, _CHUNK_VALUES // g.fiber ** 2)
    for a in range(0, g.sites, step):
        modes = slice(a, a + step)
        out[modes] = _rk4_polys(_generator(sys, basis, modes), h)
    return out


def _source_window(phi: Optional[Trajectory], i0: int, sgn: int,
                   n_steps: int) -> Optional[tuple]:
    """(first, last) solve position (step count from t0) that carries a
    source frame, None when none does."""
    if phi is None:
        return None
    ends = sorted((sgn * (phi.index0 - i0),
                   sgn * (phi.index0 + phi.n_frames - 1 - i0)))
    lo, hi = max(ends[0], 0), min(ends[1], n_steps)
    return (lo, hi) if lo <= hi else None


def _step_sources(phi: Optional[Trajectory], i0: int, sgn: int,
                  n_steps: int) -> Iterator:
    """(s_n, s_mid, s_n+1) of every step of the RK4 loop: the source frames
    at its two ends and their mean at the midpoint stage, None where a frame
    (for the mean, either frame) lies outside the source's window."""
    window = _source_window(phi, i0, sgn, n_steps)
    if window is None:
        yield from itertools.repeat((None, None, None))
        return

    def frame(pos):
        if window[0] <= pos <= window[1]:
            return phi.values[i0 + sgn * pos - phi.index0]
        return None

    end = frame(0)
    for pos in range(1, n_steps + 1):
        start, end = end, frame(pos)
        mid = None if start is None or end is None else 0.5 * (start + end)
        yield start, mid, end


def _block_product(sys: SystemSpec, phi: Trajectory, xf: str, k: np.ndarray,
                   y: np.ndarray, window: tuple, h: float, i0: int, sgn: int,
                   a: int, b: int) -> Optional[np.ndarray]:
    """K V for the block of steps a .. b - 1, one row per step (None when it
    reads no source frame): V's first column is [y_a; s_a; s_a+1] and each
    later one [0; s_n; s_n+1], s = A0^{-1} source in the basis (transformed
    from `xf`), zero outside the window. A step with only one end in the
    window has no midpoint stage: it adds Q0 s_n or Q1 s_n+1, the same sum
    less (P1 - (h/6) I) applied to its one source frame."""
    lo, hi = max(a, window[0]), min(b, window[1])
    if lo > hi:
        return None
    g, f = sys.grid, sys.grid.fiber
    ends = sorted((i0 + sgn * lo - phi.index0, i0 + sgn * hi - phi.index0))
    s = _transform(g, xf, _fiber_apply(
        sys.A0_inv, phi.values[ends[0]:ends[1] + 1][::sgn]))
    cols = s.transpose(1, 2, 0)           # frames lo .. hi as columns
    v = np.zeros((g.sites, 3 * f, b - a), dtype=complex)
    v[:, :f, 0] = y
    # the frame at position p is s_n of step p and s_n+1 of step p - 1
    last = min(hi, b - 1)
    v[:, f:2 * f, lo - a:last - a + 1] = cols[..., :last - lo + 1]
    first = max(lo, a + 1)
    v[:, 2 * f:, first - a - 1:hi - a] = cols[..., first - lo:]
    out = np.matmul(k, v).transpose(2, 0, 1)
    for step, pos in ((window[0] - 1, window[0]), (window[1], window[1])):
        if a <= step < b:
            edge = s[pos - lo]
            out[step - a] -= _fiber_apply(k[..., 2 * f:], edge) \
                - (h / 6.0) * edge
    return out


def _recurrence(sys: SystemSpec, phi: Optional[Trajectory], data: StateField,
                xf: str, k: np.ndarray, h: float, i0: int, sgn: int,
                n_steps: int, stored: np.ndarray) -> int:
    """The recurrence y+ = K [y; s_n; s_n+1] in blocks of steps, its frames
    written into `stored` (stepping order, from index 1): a sourced block is
    one product K V (see _block_product), whose first row is its first frame
    and whose later rows its later steps add to R y.
    `xf` is the basis the data, source and frames are transformed from and
    back to: the recurrence's own basis for site values, "sites" (no
    transform) for values already in it. Returns the number of steps taken
    before the first non-finite frame."""
    grid = sys.grid
    r = k[..., :grid.fiber]
    y = _transform(grid, xf, data.values)
    block = max(1, _CHUNK_VALUES // y.size)
    window = _source_window(phi, i0, sgn, n_steps)
    n_ok = n_steps
    for s in range(n_steps):
        j = s % block
        if j == 0:
            kv = None if window is None else _block_product(
                sys, phi, xf, k, y, window, h, i0, sgn, s,
                min(s + block, n_steps))
        y = kv[0] if j == 0 and kv is not None else _fiber_apply(r, y)
        if j and kv is not None:
            y += kv[j]
        if not np.isfinite(y).all():
            n_ok = s
            break
        stored[s + 1] = y
    if xf == "modes":
        n_kept = n_ok + 1
        for a in range(1, n_kept, block):
            b = min(a + block, n_kept)
            stored[a:b] = _transform(grid, xf, stored[a:b], inverse=True)
        # the transform back can overflow a frame that was finite on the modes
        bad = _first_non_finite(stored[1:n_kept])
        if bad is not None:
            n_ok = bad
    return n_ok


def _source_integral(sys: SystemSpec, phi: Optional[Trajectory],
                     y0: np.ndarray, h: float, i0: int, sgn: int,
                     n_steps: int, frames: np.ndarray) -> int:
    """The recurrence of a system with L = 0 (R = I, P0 = P1 = (h/2) I), with
    _recurrence's output and return value: the frames are y0 plus the
    cumulative sum of the steps' source terms, (h/2)(s_n + s_n+1) inside the
    source window and (h/6) s at a step with one end in it, where
    s = A0^{-1} source."""
    frames[0] = y0
    frames[1:] = 0.0
    window = _source_window(phi, i0, sgn, n_steps)
    if window is not None:
        lo, hi = window
        ends = sorted((i0 + sgn * lo - phi.index0, i0 + sgn * hi - phi.index0))
        s = _fiber_apply(sys.A0_inv, phi.values[ends[0]:ends[1] + 1][::sgn])
        inc = frames[1:]             # inc[n] is the source term of step n
        np.add(s[:-1], s[1:], out=inc[lo:hi])
        inc[lo:hi] *= 0.5 * h
        if lo > 0:
            inc[lo - 1] += (h / 6.0) * s[0]
        if hi < n_steps:
            inc[hi] += (h / 6.0) * s[-1]
    np.cumsum(frames, axis=0, out=frames)
    # a column of the cumulative sum stays inf or NaN once it meets one, so
    # the frames are all finite exactly when the last one is
    if np.isfinite(frames[-1].view(float)).all():
        return n_steps
    bad = _first_non_finite(frames[1:])
    return n_steps if bad is None else bad


def _first_non_finite(frames: np.ndarray) -> Optional[int]:
    """Index of the first frame of a (frames, sites, f) stack with a
    non-finite value, None when all are finite."""
    bad = np.flatnonzero(~np.isfinite(frames.view(float)).all(axis=(1, 2)))
    return int(bad[0]) if bad.size else None


def _stored(sys: SystemSpec, opts: SolveOptions, i0: int, sgn: int,
            vals: np.ndarray) -> tuple:
    """(trajectory, lattice index of the last stored frame) of the frames
    `vals` stored from i0, given in increasing time."""
    last = i0 + sgn * (len(vals) - 1)
    return Trajectory(sys.grid, opts.dt, min(i0, last), vals), last


def _aborted(sys: SystemSpec, opts: SolveOptions, i0: int, sgn: int, s: int,
             vals: np.ndarray) -> SolveAborted:
    """The SolveAborted for a non-finite frame after step s + 1; `vals` holds
    the frames stored before it, in increasing time."""
    partial, last = _stored(sys, opts, i0, sgn, vals)
    t = (i0 + sgn * s) * opts.dt
    return SolveAborted(
        f"non-finite field after step {s + 1} (t={t + sgn * opts.dt:.6g})",
        partial, last_stable=last)


class LocalSolver:
    """Local solves of one system with one SolveOptions (see solve_local).
    The recurrence's stacked step matrix K = [R | P0 | P1] is built at the
    first solve in each direction and kept, so that a caller making many solves, such as a Dyson run, builds
    it once. `basis` is the recurrence's basis ("sites"
    or "modes", see _basis; "sites" for a state-free system, whose recurrence
    is the L = 0 case), None when the solves step RK4."""

    def __init__(self, sys: SystemSpec, opts: SolveOptions):
        self.sys, self.opts = sys, opts
        self.basis = _basis(sys)
        self._mats: dict = {}         # direction -> K

    def solve(self, phi: Optional[Trajectory], data: StateField, t0: float,
              t1: float, in_basis: bool = False) -> Trajectory:
        """Integrate S psi = phi from data at t0 to t1, as solve_local. With
        `in_basis`, `phi`, `data` and the returned frames hold values in
        `basis` (on the modes: `grids.to_modes` of the site values), and the
        recurrence runs without transforms."""
        sys, opts = self.sys, self.opts
        if in_basis and self.basis is None:
            raise SolverError("only a recurrence solves in its basis")
        if data.grid != sys.grid:
            raise SolverError("data grid mismatch")
        if abs(data.time - t0) > 1e-9 * max(1.0, abs(t0)):
            raise SolverError(f"data time {data.time} != t0 = {t0}")
        check_cfl(sys, opts)
        dt = opts.dt
        i0, i1 = _lattice_index(t0, dt), _lattice_index(t1, dt)
        if phi is not None and abs(phi.dt - dt) > 1e-12 * dt:
            raise SolverError(f"source lattice dt={phi.dt} != solver dt={dt}")
        n_steps = abs(i1 - i0)
        sgn = 1 if i1 >= i0 else -1
        h = sgn * dt

        # frames in increasing time; `stored` views them in stepping order
        vals = np.empty((n_steps + 1,) + data.values.shape, dtype=complex)
        stored = vals[::sgn]
        stored[0] = data.values
        if self.basis is not None:
            if self.basis == "sites" and sys.S0 is None:     # L = 0
                n_ok = _source_integral(sys, phi, data.values, h, i0, sgn,
                                        n_steps, stored)
            else:
                if sgn not in self._mats:
                    self._mats[sgn] = _step_matrices(sys, self.basis, h)
                n_ok = _recurrence(sys, phi, data,
                                   "sites" if in_basis else self.basis,
                                   self._mats[sgn], h, i0, sgn, n_steps,
                                   stored)
            if n_ok < n_steps:
                raise _aborted(sys, opts, i0, sgn, n_ok,
                               stored[:n_ok + 1][::sgn])
            return _stored(sys, opts, i0, sgn, vals)[0]

        y = stored[0]
        t = ((i0 + sgn * np.arange(n_steps)) * dt).tolist()
        sources = _step_sources(phi, i0, sgn, n_steps)
        for s, (ts, src) in enumerate(zip(t, sources)):
            y = _rk4_step(sys, y, ts, h, src, stored[s + 1])
            if not np.all(np.isfinite(y.view(float))):
                raise _aborted(sys, opts, i0, sgn, s, stored[:s + 1][::sgn])
        return _stored(sys, opts, i0, sgn, vals)[0]


def solve_local(sys: SystemSpec, phi: Optional[Trajectory], data: StateField,
                t0: float, t1: float, opts: SolveOptions) -> Trajectory:
    """Integrate S psi = phi from data at t0 to t1 (either direction).
    Returned frames sit on the integer dt lattice in increasing time; the
    frame at t0 equals `data` bitwise. Every lattice frame of the solve is
    kept."""
    return LocalSolver(sys, opts).solve(phi, data, t0, t1)


def evolution_op(sys: SystemSpec, tau: float, t: float, data: StateField,
                 opts: SolveOptions) -> StateField:
    """U(t, tau) data: the last frame of the source-free solve from tau to t.
    The solve holds every lattice frame between tau and t (as solve_local),
    so its memory grows with the number of steps."""
    if abs(t - tau) < 1e-15:
        return StateField(sys.grid, t, data.values.copy())
    tr = solve_local(sys, None, StateField(sys.grid, tau, data.values), tau, t,
                     opts)
    i = tr.index_of(t)
    return StateField(sys.grid, tr.time(i), tr.values[i].copy())


def green_retarded(sys: SystemSpec, phi: Trajectory,
                   opts: SolveOptions) -> Trajectory:
    """Retarded Green operator: the solution of S psi = phi with zero data at
    the earliest source frame (Duhamel realized incrementally by the solve)."""
    if phi.grid != sys.grid:
        raise SolverError("source grid mismatch")
    data = StateField(sys.grid, phi.t_start, sys.grid.zeros())
    return solve_local(sys, phi, data, phi.t_start, phi.t_end, opts)
