"""Verification instruments: discrete energy-identity residuals, exponential
growth bounds, exact measurement of the zero-order operator norm, and
propagation-cone checks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import _CHUNK_VALUES, Grid, Trajectory, frame_norms_sq
from .systems import (SystemSpec, _fiber_apply, inner_weight,
                      symbol_divergence, zero_order_matrices)


class DiagnosticsError(ValueError):
    pass


@dataclass
class DiagReport:
    name: str
    values: np.ndarray          # per-frame series
    times: np.ndarray
    tolerance: float

    @property
    def summary_max(self) -> float:
        return float(np.max(self.values)) if len(self.values) else 0.0

    @property
    def passed(self) -> bool:
        return self.summary_max <= self.tolerance

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "value"])
            for t, v in zip(self.times, self.values):
                wr.writerow([f"{t:.17g}", f"{v:.17g}"])


def order_estimate(err_coarse: float, err_fine: float, ratio: float = 2.0) -> float:
    """Observed convergence order from errors at two resolutions."""
    if err_fine <= 0 or err_coarse <= 0:
        return math.inf
    return math.log(err_coarse / err_fine) / math.log(ratio)


# ---------------------------------------------------------------------------

def energy_identity(sys: SystemSpec, tr: Trajectory,
                    source_used: Optional[Trajectory],
                    tolerance: float = math.inf) -> DiagReport:
    """Per-frame residual of the discrete balance law

        d/dt ||psi_t||^2 = 2 Re <phi | psi>_beta + <(S0 + S0^+ + div A) psi | psi>_beta,

    with d/dt by centered frame differences. For source-free skew-adjoint
    systems this is the norm-conservation drift."""
    F = tr.n_frames
    if F < 3:
        raise DiagnosticsError("need at least 3 frames")
    w = inner_weight(sys)
    nsq = frame_norms_sq(tr, w)
    dv = sys.grid.cell_volume
    beta = sys.beta

    phi_vals = None
    if source_used is not None:
        if abs(source_used.dt - tr.dt) > 1e-12 * tr.dt:
            raise DiagnosticsError("source lattice mismatch")
        phi_vals = np.zeros_like(tr.values)
        off = source_used.index0 - tr.index0
        lo, hi = max(0, off), min(F, off + source_used.n_frames)
        if hi > lo:
            phi_vals[lo:hi] = source_used.values[lo - off:hi - off]

    dnsq = (nsq[2:] - nsq[:-2]) / (2.0 * tr.dt)
    # the balance terms of a whole chunk of frames per call
    zmat = _sym_part_matrices(sys)
    step = max(1, _CHUNK_VALUES // (sys.grid.sites * sys.grid.fiber))
    psi = tr.values[1:-1]
    phi = None if phi_vals is None else phi_vals[1:-1]
    rhs = np.concatenate([
        _balance_terms(beta, dv, psi[a:a + step],
                       None if phi is None else phi[a:a + step], zmat)
        for a in range(0, F - 2, step)])
    return DiagReport(name="energy_identity", values=np.abs(dnsq - rhs),
                      times=tr.times()[1:-1], tolerance=tolerance)


def _balance_terms(beta: np.ndarray, dv: float, psi: np.ndarray,
                   phi: Optional[np.ndarray],
                   zmat: Optional[np.ndarray]) -> np.ndarray:
    """2 Re <phi | psi>_beta + <Z psi | psi>_beta per frame of a (frames,
    sites, fiber) stack, with Z = `zmat` (None for zero)."""
    rhs = np.zeros(len(psi))
    if phi is not None:
        rhs += 2.0 * (np.einsum("s,nsf,nsf->n", beta, np.conj(phi),
                                psi).real * dv)
    if zmat is not None:
        rhs += (np.einsum("s,nsf,nsf->n", beta, np.conj(psi),
                          _fiber_apply(zmat, psi)).real * dv)
    return rhs


def _sym_part_matrices(sys: SystemSpec) -> Optional[np.ndarray]:
    """S0 + S0^dagger + div A in `_fiber_apply` form, or None when zero."""
    s0 = sys.S0
    acc = symbol_divergence(sys)
    if s0 is not None:
        acc = acc + s0 + np.conj(np.swapaxes(s0, -1, -2))
    if not np.any(acc):
        return None
    return acc


def exponential_bound(sys: SystemSpec, tr: Trajectory, D: float, M: float,
                      t0: float = 0.0, slack: float = 1.05) -> DiagReport:
    """||psi_t|| e^{-D|t-t0|/2} / M per frame, passing when below `slack`."""
    if M <= 0:
        raise DiagnosticsError("need a positive data norm M")
    w = inner_weight(sys)
    nrm = np.sqrt(np.maximum(frame_norms_sq(tr, w), 0.0))
    times = tr.times()
    vals = nrm * np.exp(-D * np.abs(times - t0) / 2.0) / M
    return DiagReport(name="exponential_bound", values=vals, times=times,
                      tolerance=slack)


def measure_D(sys: SystemSpec) -> float:
    """Bound of the zero-order operator, the same at every time. The
    operator is a per-site multiplication, so its slice-norm is the max over
    sites of the weight-conjugated matrix spectral norm — computed
    exactly."""
    root, iroot = inner_weight(sys).roots()
    z = zero_order_matrices(sys)
    conj = z if root is None else root @ z @ iroot
    return float(np.max(np.linalg.svd(conj, compute_uv=False)))


# pair entries per chunk of _torus_distance rows (0.5 MB of float64)
_PAIR_CHUNK = 1 << 16


def _torus_distance(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Per-site Euclidean torus distance to the masked support set: zero on
    the support, and for the other sites the minimum over support sites,
    computed in row chunks of at most _PAIR_CHUNK (site, support) pairs."""
    if not np.any(mask):
        return np.full(grid.sites, math.inf)
    x = grid.coords()
    supp = x[mask]
    L = grid.extent
    out = np.zeros(grid.sites)
    rows = np.flatnonzero(~mask)
    step = max(1, _PAIR_CHUNK // supp.shape[0])
    for a in range(0, rows.size, step):
        xr = x[rows[a:a + step]]
        dist_sq = np.zeros((xr.shape[0], supp.shape[0]))
        for ax in range(grid.dim):
            d = np.abs(xr[:, ax][:, None] - supp[None, :, ax])
            d = np.minimum(d, L - d)
            dist_sq += d * d
        out[rows[a:a + step]] = np.sqrt(np.min(dist_sq, axis=1))
    return out


def cone_violation(tr: Trajectory, data_support_mask: np.ndarray,
                   v_max: float, floor: float = 1e-7) -> DiagReport:
    """Max relative amplitude outside the v_max-cone of the data support
    (with a 2 dx stencil halo), per frame, against `floor`."""
    grid = tr.grid
    mask = np.asarray(data_support_mask, dtype=bool)
    if mask.shape != (grid.sites,):
        raise DiagnosticsError("support mask shape mismatch")
    dist = _torus_distance(grid, mask)
    amp = np.max(np.abs(tr.values), axis=2)          # (frames, sites)
    peak = float(np.max(amp))
    vals = np.zeros(tr.n_frames)
    if peak > 0:
        # amp >= 0, so a frame with no site outside the cone keeps 0
        outside = dist > (v_max * np.abs(tr.times())[:, None]
                          + 2.0 * grid.spacing)
        vals = np.max(amp, axis=1, where=outside, initial=0.0) / peak
    return DiagReport(name="cone_violation", values=vals, times=tr.times(),
                      tolerance=floor)


def support_mask(values: np.ndarray, rel: float = 1e-12) -> np.ndarray:
    """Grid support: amplitude above rel * peak."""
    amp = np.max(np.abs(values), axis=-1)
    peak = float(np.max(amp))
    if peak == 0.0:
        return np.zeros(amp.shape, dtype=bool)
    return amp > rel * peak
