"""Local Cauchy solver for S psi = phi, psi(t0) = f, by RK4 method of lines
on the periodic grid, plus the evolution operator U(t, tau) and the retarded
Green operator.

Sources live on the solve's own frame lattice; RK4 stage values use linear
interpolation between source frames, one interpolation at t + h/2 shared by
the k2 and k3 stages. That sets an O(dt^2) floor for sourced runs, and
phi = 0 keeps full 4th order. Measured over [0, 2], halving dt from 0.05
to 0.025 cuts the error of d_t psi = -psi + cos(3t) from zero data by
2^2.0, and that of d_t psi = -psi from psi = 1 by 2^4.0
(tests/test_solver.py::test_green_retarded_order_floor).
Backward solves (t1 < t0) are supported; frames are always returned in
increasing-time order on the integer lattice i * dt.

Each solve indexes its source once: the frame and weight of every stage time
of every step are computed as arrays before the first step. A plan with no
live A^j, no S0, no S0_t and no dissipation is state-free: every RK4 stage
is A0^{-1} (0 + source), whatever the state, so such a solve builds all
increments with array operations and takes the frames as their cumulative
sum. Every other plan steps, writing each frame into one preallocated
array. Both paths give the frames of the plain per-step RK4 loop bitwise,
including where a non-finite frame aborts the solve
(tests/test_solver.py::test_solve_local_matches_reference_loop).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .grids import StateField, Trajectory, ko_dissipation
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


def _source_index(phi: Trajectory, dt: float, t: np.ndarray) -> tuple:
    """Linear-in-time interpolation of a frame-sampled source at the times
    `t`, as three arrays `(inside, i, w)`: the source is zero where `inside`
    is False, the frame phi[i] where w == 0, and (1 - w) phi[i] + w phi[i + 1]
    otherwise."""
    n = phi.n_frames
    u = t / dt - phi.index0
    inside = (u >= -1e-9) & (u <= n - 1 + 1e-9)
    if n == 1:
        return inside, np.zeros(len(t), dtype=int), np.zeros(len(t))
    i = np.clip(np.floor(u), 0, n - 2)
    return inside, i.astype(int), np.clip(u - i, 0.0, 1.0)


def _step_sources(phi: Optional[Trajectory], index) -> Iterator:
    """The source at each indexed time, None where it is zero; a blend is
    computed only when its step asks for it."""
    if phi is None:
        yield from itertools.repeat(None)
        return
    for inside, i, w in zip(*(a.tolist() for a in index)):
        if not inside:
            yield None
        elif w == 0.0:
            yield phi.values[i]
        else:
            yield (1.0 - w) * phi.values[i] + w * phi.values[i + 1]


def _stage_rows(sys: SystemSpec, phi: Optional[Trajectory], index,
                shape: tuple) -> np.ndarray:
    """A0^{-1} (0 + source) at every indexed time, one row each in a
    (times, sites, fiber) `shape`: the RK4 stage of a state-free plan,
    whatever the state."""
    acc = np.zeros(shape, dtype=complex)
    if phi is not None:
        inside, i, w = index
        view = np.flatnonzero(inside & (w == 0.0))
        acc[view] = phi.values[i[view]]
        blend = np.flatnonzero(inside & (w != 0.0))
        wb, ib = w[blend][:, None, None], i[blend]
        acc[blend] = (1.0 - wb) * phi.values[ib] + wb * phi.values[ib + 1]
        acc += 0.0      # the 0 + source of the stage: -0.0 becomes +0.0
    return _fiber_apply(sys.plan.A0_inv, acc)


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


def _state_free(sys: SystemSpec, eps: float) -> bool:
    """True when every RK4 stage is A0^{-1} (0 + source), whatever the state."""
    plan = sys.plan
    return (not plan.Aj and plan.S0 is None and sys.S0_t is None
            and eps == 0.0)


def _running_sum(sys: SystemSpec, phi: Optional[Trajectory], index,
                 y0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Every frame of a state-free solve, in stepping order: the cumulative
    sum of y0 and the RK4 increments, which `add.accumulate` takes one step
    at a time, so it equals the stepping loop bitwise."""
    shape = (n_steps,) + y0.shape
    k1, k_mid, k4 = (_stage_rows(sys, phi, ix, shape) for ix in index)
    two_mid = 2.0 * k_mid
    k1 += two_mid
    k1 += two_mid
    k1 += k4
    frames = np.empty((n_steps + 1,) + y0.shape, dtype=complex)
    frames[0] = y0
    np.multiply(h / 6.0, k1, out=frames[1:])
    return np.cumsum(frames, axis=0, out=frames)


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


def solve_local(sys: SystemSpec, phi: Optional[Trajectory], data: StateField,
                t0: float, t1: float, opts: SolveOptions) -> Trajectory:
    """Integrate S psi = phi from data at t0 to t1 (either direction).
    Returned frames sit on the integer dt lattice in increasing time; the
    frame at t0 equals `data` bitwise. With store_every > 1 only the frames
    on the decimated lattice are kept (callers feeding kernels must use
    store_every = 1)."""
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
    t = (i0 + sgn * np.arange(n_steps)) * dt
    index = [None if phi is None else _source_index(phi, dt, ts)
             for ts in (t, t + 0.5 * h, t + h)]

    if _state_free(sys, eps):
        frames = _running_sum(sys, phi, index, data.values, h, n_steps)
        finite = np.isfinite(frames[1:].view(float)).all(axis=(1, 2))
        bad = np.flatnonzero(~finite)
        if bad.size:
            s = int(bad[0])
            raise _aborted(sys, opts, i0, sgn, s,
                           np.ascontiguousarray(frames[:s + 1:se][::sgn]))
        vals = np.ascontiguousarray(frames[::se][::sgn])
    else:
        # frames in increasing time; `stored` views them in stepping order
        vals = np.empty((n_steps // se + 1,) + data.values.shape,
                        dtype=complex)
        stored = vals[::sgn]
        stored[0] = data.values
        y = stored[0]
        sources = zip(*(_step_sources(phi, ix) for ix in index))
        for s, (ts, src) in enumerate(zip(t.tolist(), sources)):
            keep = (s + 1) % se == 0
            y = _rk4_step(sys, y, ts, h, src, eps,
                          out=stored[(s + 1) // se] if keep else None)
            if not np.all(np.isfinite(y.view(float))):
                raise _aborted(sys, opts, i0, sgn, s,
                               stored[:s // se + 1][::sgn])
    return _stored(sys, opts, i0, sgn, vals)[0]


def evolution_op(sys: SystemSpec, tau: float, t: float, data: StateField,
                 opts: SolveOptions) -> StateField:
    """U(t, tau) data: homogeneous Cauchy evolution from tau to t."""
    if abs(t - tau) < 1e-15:
        return StateField(sys.grid, t, data.values.copy())
    check_cfl(sys, opts)
    dt = opts.dt
    i0, i1 = _lattice_index(tau, dt), _lattice_index(t, dt)
    sgn = 1 if i1 >= i0 else -1
    y = data.values.copy()
    for s in range(abs(i1 - i0)):
        y = _rk4_step(sys, y, (i0 + sgn * s) * dt, sgn * dt,
                      (None, None, None), opts.dissipation)
    if not np.all(np.isfinite(y.view(float))):
        raise SolverError("non-finite field in evolution_op")
    return StateField(sys.grid, i1 * dt, y)


def green_retarded(sys: SystemSpec, phi: Trajectory,
                   opts: SolveOptions) -> Trajectory:
    """Retarded Green operator: the solution of S psi = phi with zero data at
    the earliest source frame (Duhamel realized incrementally by the solve)."""
    if phi.grid != sys.grid:
        raise SolverError("source grid mismatch")
    data = StateField(sys.grid, phi.t_start, sys.grid.zeros())
    return solve_local(sys, phi, data, phi.t_start, phi.t_end, opts)
