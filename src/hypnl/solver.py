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

A solve takes one of two paths; the plan and the dissipation alone choose
it, and there is no setting:

* Linear recurrence (no S0_t, and either no spatial term and no dissipation,
  or every coefficient the same at every site): one RK4 step of the linear
  autonomous system is exactly y+ = R y + P0 s_n + P1 s_n+1, block-diagonal
  on the sites or on the Fourier modes of the torus. R, P0 and P1 are built
  once per LocalSolver and direction, the data and source frames are
  transformed once per solve, each step is one batched matvec and one add,
  and the frames are transformed back once. A state-free plan (no live A^j,
  no S0, no dissipation) is its L = 0 case on the sites: R = I,
  P0 = P1 = (h/2) I, and a step with one end in the source window adds
  (h/6) s, so the frames are the data plus one cumulative sum of these
  increments, without a per-step loop. The frames agree with the per-step
  loop to round-off: below 1e-14 of the largest frame value, tested at
  1e-13.
* Stepping (a time-dependent S0, or a spatial term or dissipation with a
  coefficient that varies by site): the RK4 loop, each stage applying the
  plan, writing each frame into one preallocated array; bitwise equal to
  the per-step loop.

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
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .grids import (_CHUNK_VALUES, Grid, StateField, Trajectory,
                    ko_dissipation, mode_axes, stencil_symbols, to_modes)
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
    dissipation: float = 0.0     # Kreiss-Oliger eps in [0, 0.5]
    store_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise SolverError("dt must be positive")
        if not (0 < self.cfl <= 0.5):
            raise SolverError("cfl must lie in (0, 0.5]")
        if not (0.0 <= self.dissipation <= 0.5):
            raise SolverError("dissipation must lie in [0, 0.5]")
        if self.store_every < 1:
            raise SolverError("store_every must be >= 1")


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


def _rhs(sys: SystemSpec, y: np.ndarray, t: float,
         source: Optional[np.ndarray], eps: float) -> np.ndarray:
    out = evolution_rhs(sys, y, t, source)
    if eps > 0.0:
        out = out + ko_dissipation(sys.grid, y, eps)
    return out


def _rk4_step(sys: SystemSpec, y: np.ndarray, t: float, h: float,
              src: tuple, eps: float,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """One RK4 step from y at t; `src` holds the source at t, t + h/2 (shared
    by the k2 and k3 stages) and t + h, None where it is zero."""
    s_t, s_mid, s_end = src
    k1 = _rhs(sys, y, t, s_t, eps)
    k2 = _rhs(sys, y + 0.5 * h * k1, t + 0.5 * h, s_mid, eps)
    k3 = _rhs(sys, y + 0.5 * h * k2, t + 0.5 * h, s_mid, eps)
    k4 = _rhs(sys, y + h * k3, t + h, s_end, eps)
    # y + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in place
    k2 *= 2.0
    k3 *= 2.0
    k1 += k2
    k1 += k3
    k1 += k4
    k1 *= h / 6.0
    return np.add(y, k1, out=out)


def _basis(sys: SystemSpec, eps: float) -> Optional[str]:
    """The basis in which the plan is a linear autonomous recurrence that
    does not couple its blocks: "sites" when it has no spatial term and no
    dissipation (with no S0 either, L = 0: see _source_integral), "modes"
    (Fourier modes of the torus) when every coefficient is the same at every
    site, None when it has to step (a time-dependent S0, or a spatial term
    or dissipation with a coefficient that varies by site)."""
    plan = sys.plan
    if sys.S0_t is not None:
        return None
    if not plan.Aj and eps == 0.0:
        return "sites"
    coeffs = (plan.A0_inv, plan.S0) + tuple(a for _, a in plan.Aj)
    if all(c is None or c.ndim == 2 for c in coeffs):
        return "modes"
    return None


def _transform(grid: Grid, basis: str, values: np.ndarray,
               inverse: bool = False) -> np.ndarray:
    """(..., sites, f) values in the basis (or back from it): the identity on
    the sites, the unitary `grids.to_modes` on the modes."""
    return values if basis == "sites" else to_modes(grid, values, inverse)


def _generator(sys: SystemSpec, eps: float, basis: str,
               modes: slice = slice(None)) -> np.ndarray:
    """L of the semi-discrete system d_t y = L y + A0^{-1} source in the
    basis, in `_fiber_apply` form. On the Fourier modes (those in `modes`,
    in np.fft.fftn order),

        L(k) = A0^{-1} (S0 - i sum_j sigma(theta_j) A^j)
               - (eps / dx) sum_j sin^4(theta_j / 2) I,

    with i sigma the stencil symbol (`grids.stencil_symbols`) and
    theta_j = 2 pi m_j / points; the last term is the Kreiss-Oliger
    dissipation."""
    plan, g = sys.plan, sys.grid
    f = g.fiber
    a0_inv = np.eye(f) if plan.A0_inv is None else plan.A0_inv
    gen = a0_inv @ plan.S0 if plan.S0 is not None else np.zeros((f, f))
    if basis == "sites":
        return gen
    symbols = stencil_symbols(g)[:, modes]
    out = np.empty((symbols.shape[1], f, f), dtype=complex)
    out[:] = gen
    for j, a in plan.Aj:
        m = a0_inv if a is None else a0_inv @ a
        out -= symbols[j][:, None, None] * m
    if eps > 0.0:
        theta = mode_axes(g)[:, modes]
        ko = (eps / g.spacing) * np.sum(np.sin(0.5 * theta) ** 4, axis=0)
        out[:, np.arange(f), np.arange(f)] -= ko[:, None]
    return out


def _rk4_polys(z: np.ndarray, h: float) -> np.ndarray:
    """(R, P0, P1), stacked, of one RK4 step of d_t y = L y + s(t) from
    Z = h L (scaled in place). The step is exactly

        y+ = R y + Q0 s(t) + Q_half s(t + h/2) + Q1 s(t + h),

    with R = I + Z + Z^2/2 + Z^3/6 + Z^4/24, Q0 = (h/6)(I + Z + Z^2/2 + Z^3/4),
    Q_half = (h/6)(4I + 2Z + Z^2/2) and Q1 = (h/6) I. A step with its source
    frames s0, s1 at both ends, so that s(t + h/2) = (s0 + s1)/2, adds
    P0 s0 + P1 s1 with P0 = Q0 + Q_half/2 = (h/6)(3I + 2Z + 3Z^2/4 + Z^3/4)
    and P1 = Q1 + Q_half/2 = (h/6)(3I + Z + Z^2/4)."""
    z *= h
    eye = np.eye(z.shape[-1])
    z2 = z @ z
    z3 = z @ z2
    c = h / 6.0
    return np.stack([eye + z + z2 / 2.0 + z3 / 6.0 + (z2 @ z2) / 24.0,
                     c * (3.0 * eye + 2.0 * z + 0.75 * z2 + 0.25 * z3),
                     c * (3.0 * eye + z + 0.25 * z2)])


def _step_matrices(sys: SystemSpec, eps: float, basis: str,
                   h: float) -> np.ndarray:
    """(R, P0, P1) of the plan in the basis (see _rk4_polys); on the modes
    they are formed for chunks of modes, so that only the result is the size
    of a per-mode stack."""
    if basis == "sites":
        return _rk4_polys(_generator(sys, eps, basis), h)
    g = sys.grid
    out = np.empty((3, g.sites, g.fiber, g.fiber), dtype=complex)
    step = max(1, _CHUNK_VALUES // g.fiber ** 2)
    for a in range(0, g.sites, step):
        modes = slice(a, a + step)
        out[:, modes] = _rk4_polys(_generator(sys, eps, basis, modes), h)
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


def _forcings(sys: SystemSpec, phi: Optional[Trajectory], xf: str,
              mats: np.ndarray, h: float, i0: int, sgn: int, n_steps: int,
              block: int) -> Iterator:
    """The source term of every step of the recurrence, in blocks of at most
    `block` steps: an array with one row per step, or None where the source
    is zero. A step inside the source window adds P0 s_n + P1 s_n+1 with
    s = A0^{-1} source in the basis; a step with only one end in the window
    has no midpoint stage, so it adds Q0 s_n or Q1 s_n+1, which is the same
    sum less (P1 - (h/6) I) applied to its one source frame. Each source
    frame is transformed from `xf` once (see _recurrence)."""
    window = _source_window(phi, i0, sgn, n_steps)
    if window is None:
        yield from itertools.repeat(None)
        return
    _, p0, p1 = mats
    carry = None                   # the block's first frame, from the last
    for a in range(0, n_steps, block):
        b = min(a + block, n_steps)
        lo, hi = max(a, window[0]), min(b, window[1])
        if lo > hi:
            carry = None
            yield None
            continue
        frames = np.zeros((b - a + 1, sys.grid.sites, sys.grid.fiber),
                          dtype=complex)
        if carry is not None:
            frames[0] = carry
        first = lo if a == 0 else max(lo, a + 1)
        if first <= hi:
            rows = i0 + sgn * np.arange(first, hi + 1) - phi.index0
            frames[first - a:hi - a + 1] = _transform(
                sys.grid, xf, _fiber_apply(sys.plan.A0_inv,
                                           phi.values[rows]))
        carry = frames[-1]
        # batched matmuls with the frames as matrix columns: on per-mode
        # stacks far faster than _fiber_apply's broadcasting einsum
        cols = frames.transpose(1, 2, 0)
        out = np.matmul(p0, cols[..., :-1])
        out += np.matmul(p1, cols[..., 1:])
        out = out.transpose(2, 0, 1)
        for step, pos in ((window[0] - 1, window[0]), (window[1], window[1])):
            if a <= step < b:
                edge = frames[pos - a]
                out[step - a] -= _fiber_apply(p1, edge) - (h / 6.0) * edge
        yield out


def _recurrence(sys: SystemSpec, phi: Optional[Trajectory], data: StateField,
                xf: str, mats: np.ndarray, h: float, i0: int, sgn: int,
                n_steps: int, se: int, stored: np.ndarray) -> int:
    """Solve as the recurrence y+ = R y + (source term), one block-diagonal
    matvec and one add per step, with `mats` = (R, P0, P1) of the basis, and
    write every se-th frame into `stored` (stepping order, from index 1).
    `xf` is the basis the data, source and frames are transformed from and
    back to: the recurrence's own basis for site values, "sites" (no
    transform) for values already in it. Returns the number of steps taken
    before the first non-finite frame."""
    grid = sys.grid
    r = mats[0]
    y = _transform(grid, xf, data.values)
    block = max(1, _CHUNK_VALUES // y.size)
    forcings = _forcings(sys, phi, xf, mats, h, i0, sgn, n_steps, block)
    n_ok = n_steps
    for s in range(n_steps):
        if s % block == 0:
            force = next(forcings)
        y = _fiber_apply(r, y)
        if force is not None:
            y += force[s % block]
        if not np.isfinite(y).all():
            n_ok = s
            break
        if (s + 1) % se == 0:
            stored[(s + 1) // se] = y
    del forcings
    if xf == "modes":
        n_kept = n_ok // se + 1
        for a in range(1, n_kept, block):
            b = min(a + block, n_kept)
            stored[a:b] = _transform(grid, xf, stored[a:b], inverse=True)
        # the transform back can overflow a frame that was finite on the modes
        bad = _first_non_finite(stored[1:n_kept])
        if bad is not None:
            n_ok = (bad + 1) * se - 1
    return n_ok


def _source_integral(sys: SystemSpec, phi: Optional[Trajectory],
                     y0: np.ndarray, h: float, i0: int, sgn: int,
                     n_steps: int, se: int, stored: np.ndarray) -> int:
    """The recurrence of a plan with L = 0 (R = I, P0 = P1 = (h/2) I), with
    _recurrence's output and return value: the frames are y0 plus the
    cumulative sum of the steps' source terms, (h/2)(s_n + s_n+1) inside the
    source window and (h/6) s at a step with one end in it, where
    s = A0^{-1} source. With se > 1 the sum runs over every frame and every
    se-th frame is kept."""
    frames = stored if se == 1 else np.empty((n_steps + 1,) + y0.shape,
                                             dtype=complex)
    frames[0] = y0
    frames[1:] = 0.0
    window = _source_window(phi, i0, sgn, n_steps)
    if window is not None:
        lo, hi = window
        ends = sorted((i0 + sgn * lo - phi.index0, i0 + sgn * hi - phi.index0))
        s = _fiber_apply(sys.plan.A0_inv,
                         phi.values[ends[0]:ends[1] + 1][::sgn])
        inc = frames[1:]             # inc[n] is the source term of step n
        np.add(s[:-1], s[1:], out=inc[lo:hi])
        inc[lo:hi] *= 0.5 * h
        if lo > 0:
            inc[lo - 1] += (h / 6.0) * s[0]
        if hi < n_steps:
            inc[hi] += (h / 6.0) * s[-1]
    np.cumsum(frames, axis=0, out=frames)
    if se > 1:
        stored[1:] = frames[se::se]
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
    se = opts.store_every
    last = i0 + sgn * (len(vals) - 1) * se
    return Trajectory(sys.grid, opts.dt * se, min(i0, last) // se, vals), last


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
    The recurrence's step matrices (R, P0, P1) are built at the first solve
    in each direction and kept, so that a caller making many solves, such as
    a Dyson run, builds them once. `basis` is the recurrence's basis ("sites"
    or "modes", see _basis; "sites" for a state-free plan, whose recurrence
    is the L = 0 case), None when the solves step RK4."""

    def __init__(self, sys: SystemSpec, opts: SolveOptions):
        self.sys, self.opts = sys, opts
        self.basis = _basis(sys, opts.dissipation)
        self._mats: dict = {}         # direction -> (R, P0, P1)

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
        se = opts.store_every
        if se > 1 and i0 % se != 0:
            raise SolverError("t0 must sit on the decimated frame lattice")
        eps = opts.dissipation
        n_steps = abs(i1 - i0)
        sgn = 1 if i1 >= i0 else -1
        h = sgn * dt

        # frames in increasing time; `stored` views them in stepping order
        vals = np.empty((n_steps // se + 1,) + data.values.shape, dtype=complex)
        stored = vals[::sgn]
        stored[0] = data.values
        if self.basis is not None:
            if self.basis == "sites" and sys.plan.S0 is None:     # L = 0
                n_ok = _source_integral(sys, phi, data.values, h, i0, sgn,
                                        n_steps, se, stored)
            else:
                if sgn not in self._mats:
                    self._mats[sgn] = _step_matrices(sys, eps, self.basis, h)
                n_ok = _recurrence(sys, phi, data,
                                   "sites" if in_basis else self.basis,
                                   self._mats[sgn], h, i0, sgn, n_steps, se,
                                   stored)
            if n_ok < n_steps:
                raise _aborted(sys, opts, i0, sgn, n_ok,
                               stored[:n_ok // se + 1][::sgn])
            return _stored(sys, opts, i0, sgn, vals)[0]

        y = stored[0]
        t = ((i0 + sgn * np.arange(n_steps)) * dt).tolist()
        sources = _step_sources(phi, i0, sgn, n_steps)
        for s, (ts, src) in enumerate(zip(t, sources)):
            keep = (s + 1) % se == 0
            y = _rk4_step(sys, y, ts, h, src, eps,
                          out=stored[(s + 1) // se] if keep else None)
            if not np.all(np.isfinite(y.view(float))):
                raise _aborted(sys, opts, i0, sgn, s,
                               stored[:s // se + 1][::sgn])
        return _stored(sys, opts, i0, sgn, vals)[0]


def solve_local(sys: SystemSpec, phi: Optional[Trajectory], data: StateField,
                t0: float, t1: float, opts: SolveOptions) -> Trajectory:
    """Integrate S psi = phi from data at t0 to t1 (either direction).
    Returned frames sit on the integer dt lattice in increasing time; the
    frame at t0 equals `data` bitwise. With store_every > 1 only the frames
    on the decimated lattice are kept (callers feeding kernels must use
    store_every = 1)."""
    return LocalSolver(sys, opts).solve(phi, data, t0, t1)


def evolution_op(sys: SystemSpec, tau: float, t: float, data: StateField,
                 opts: SolveOptions) -> StateField:
    """U(t, tau) data: the last frame of the source-free solve from tau to t.
    The solve keeps only the frames on the coarsest lattice that holds tau
    and t (its step is gcd(i0, steps) in units of dt), so from tau = 0 it
    stores two frames, not the whole trajectory."""
    if abs(t - tau) < 1e-15:
        return StateField(sys.grid, t, data.values.copy())
    i0, i1 = _lattice_index(tau, opts.dt), _lattice_index(t, opts.dt)
    se = max(1, math.gcd(i0, i1 - i0))
    tr = solve_local(sys, None, StateField(sys.grid, tau, data.values), tau, t,
                     replace(opts, store_every=se))
    i = -1 if t > tau else 0
    return StateField(sys.grid, i1 * opts.dt, tr.values[i].copy())


def green_retarded(sys: SystemSpec, phi: Trajectory,
                   opts: SolveOptions) -> Trajectory:
    """Retarded Green operator: the solution of S psi = phi with zero data at
    the earliest source frame (Duhamel realized incrementally by the solve)."""
    if phi.grid != sys.grid:
        raise SolverError("source grid mismatch")
    data = StateField(sys.grid, phi.t_start, sys.grid.zeros())
    return solve_local(sys, phi, data, phi.t_start, phi.t_end, opts)
