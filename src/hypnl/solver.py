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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import StateField, Trajectory, ko_dissipation
from .systems import SystemSpec, evolution_rhs


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


class _SourceSampler:
    """Linear-in-time interpolation of a frame-sampled source, zero outside
    the covered window."""

    def __init__(self, phi: Optional[Trajectory], dt: float):
        if phi is not None and abs(phi.dt - dt) > 1e-12 * dt:
            raise SolverError(f"source lattice dt={phi.dt} != solver dt={dt}")
        self.phi = phi
        self.dt = dt

    def __call__(self, t: float) -> Optional[np.ndarray]:
        phi = self.phi
        if phi is None:
            return None
        u = t / self.dt - phi.index0
        if u < -1e-9 or u > phi.n_frames - 1 + 1e-9:
            return None
        i = int(math.floor(u))
        i = min(max(i, 0), phi.n_frames - 2) if phi.n_frames > 1 else 0
        if phi.n_frames == 1:
            return phi.values[0]
        w = u - i
        w = min(max(w, 0.0), 1.0)
        if w == 0.0:
            return phi.values[i]
        return (1.0 - w) * phi.values[i] + w * phi.values[i + 1]


def _rhs(sys: SystemSpec, y: np.ndarray, t: float,
         source: Optional[np.ndarray], eps: float) -> np.ndarray:
    out = evolution_rhs(sys, y, t, source)
    if eps > 0.0:
        out = out + ko_dissipation(sys.grid, y, eps)
    return out


def _rk4_step(sys: SystemSpec, y: np.ndarray, t: float, h: float,
              src: _SourceSampler, eps: float) -> np.ndarray:
    mid = src(t + 0.5 * h)      # shared by the k2 and k3 stages
    k1 = _rhs(sys, y, t, src(t), eps)
    k2 = _rhs(sys, y + 0.5 * h * k1, t + 0.5 * h, mid, eps)
    k3 = _rhs(sys, y + 0.5 * h * k2, t + 0.5 * h, mid, eps)
    k4 = _rhs(sys, y + h * k3, t + h, src(t + h), eps)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def solve_local(sys: SystemSpec, phi: Optional[Trajectory], data: StateField,
                t0: float, t1: float, opts: SolveOptions) -> Trajectory:
    """Integrate S psi = phi from data at t0 to t1 (either direction).
    Returned frames sit on the integer dt lattice in increasing time; the
    frame at t0 equals `data` bitwise."""
    if data.grid != sys.grid:
        raise SolverError("data grid mismatch")
    if abs(data.time - t0) > 1e-9 * max(1.0, abs(t0)):
        raise SolverError(f"data time {data.time} != t0 = {t0}")
    check_cfl(sys, opts)
    dt = opts.dt
    i0, i1 = _lattice_index(t0, dt), _lattice_index(t1, dt)
    src = _SourceSampler(phi, dt)
    eps = opts.dissipation

    if opts.store_every > 1 and i0 % opts.store_every != 0:
        raise SolverError("t0 must sit on the decimated frame lattice")
    n_steps = abs(i1 - i0)
    sgn = 1 if i1 >= i0 else -1
    h = sgn * dt
    y = data.values.copy()
    frames = [y]
    stored_idx = [i0]
    for s in range(n_steps):
        t = (i0 + sgn * s) * dt
        y = _rk4_step(sys, y, t, h, src, eps)
        if not np.all(np.isfinite(y.view(float))):
            vals = np.stack(frames[::sgn])
            partial = Trajectory(sys.grid, dt * opts.store_every,
                                 min(stored_idx) // opts.store_every
                                 if opts.store_every > 1 else min(stored_idx),
                                 vals)
            raise SolveAborted(
                f"non-finite field after step {s + 1} (t={t + h:.6g})",
                partial, last_stable=stored_idx[-1])
        if (s + 1) % opts.store_every == 0 or s + 1 == n_steps:
            frames.append(y)
            stored_idx.append(i0 + sgn * (s + 1))

    if opts.store_every > 1:
        # keep only frames on the decimated lattice (endpoint always kept when
        # the span is a multiple of store_every; callers feeding kernels must
        # use store_every = 1)
        keep = [k for k, idx in enumerate(stored_idx)
                if (idx - i0) % opts.store_every == 0]
        frames = [frames[k] for k in keep]
        stored_idx = [stored_idx[k] for k in keep]
        out_dt = dt * opts.store_every
        out_index0 = min(stored_idx) // opts.store_every
        order = np.argsort(stored_idx)
        vals = np.stack([frames[k] for k in order])
        return Trajectory(sys.grid, out_dt, out_index0, vals)

    if sgn < 0:
        frames = frames[::-1]
        stored_idx = stored_idx[::-1]
    return Trajectory(sys.grid, dt, stored_idx[0], np.stack(frames))


def evolution_op(sys: SystemSpec, tau: float, t: float, data: StateField,
                 opts: SolveOptions) -> StateField:
    """U(t, tau) data: homogeneous Cauchy evolution from tau to t."""
    if abs(t - tau) < 1e-15:
        return StateField(sys.grid, t, data.values.copy())
    check_cfl(sys, opts)
    dt = opts.dt
    i0, i1 = _lattice_index(tau, dt), _lattice_index(t, dt)
    src = _SourceSampler(None, dt)
    sgn = 1 if i1 >= i0 else -1
    y = data.values.copy()
    for s in range(abs(i1 - i0)):
        y = _rk4_step(sys, y, (i0 + sgn * s) * dt, sgn * dt, src,
                      opts.dissipation)
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
