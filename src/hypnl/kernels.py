"""Two-parameter time kernels B_{t,tau} for nonlocal-in-time potentials.

Two kinds are supported:
  * separable: B_{t,tau} = sum_a g_a(t) <h_a(tau), .>  (rank-r spacetime pairs)
  * convolution: B_{t,tau} = sum_k m_k(t) c_k(tau - t) n_k(tau) M_k, a sum of
    modulated convolution terms (`ConvTerm`): scalar time factors m_k and
    n_k, a lag function c_k and a fiber operator M_k, the same at all times

Kernels carry structural flags (retarded / advanced, time range delta,
switch-on time) that the application honors by restricting each time
integral to the admitted tau frames. `TimeKernel.apply_all` is the one
integrator: the composite trapezoidal rule on the frame lattice, for every
output frame at once, with weight 1/2 at both ends of each admitted window
and 1 between. Convolution terms take one of two paths, picked by the
number of lags the window admits: up to DIRECT_MAX_LAGS (128) the trapezoid
sum itself, as one banded matrix product per group of terms sharing a
fiber operator; beyond it (long memory) one FFT correlation per term (the
fast convolution of Hairer, Lubich & Schlichte 1985; cf. Lubich's
convolution quadrature), with the trapezoid end corrections taken per term.
On 512 values per frame the two cost about the same near 128 lags.
`TimeKernel.pair_band` gives the kernel's quadratic form
psi_i^+ B_{t_i, t_{i+l}} psi_{i+l} for the lags l = 0..d at every frame i,
without time integration (the surface-layer products read it).

A separable kernel keeps, for each profile, the lattice span of its frames
that hold a nonzero value (`data["g_span"]`, `data["h_span"]`), computed
once by its constructor. `apply_all`, `pair_band` and `estimate_bound`
read only the frames on these spans: a frame where a profile is zero is
not read, so a NaN or inf there reaches no output (where 0 * NaN would
spread it), and the result is otherwise that of the full-frame formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grids import Grid, Trajectory
from .systems import (SystemSpec, _fiber_apply, _fiber_product, _per_mode,
                      inner_weight)

INF = math.inf

# upper bound on the bytes of one buffer of frames by sites by columns in
# `_conv_all` and `_conv_band`, which take sites (or frames) in chunks that fit
CHUNK_BYTES = 1 << 20

# convolution windows of at most this many admitted lags are integrated by
# the direct trapezoid sum, longer ones by FFT (see `TimeKernel._conv_all`)
DIRECT_MAX_LAGS = 128


class KernelError(ValueError):
    pass


class ConvTerm(NamedTuple):
    """One term m(t) c(tau - t) n(tau) M of a convolution kernel.

    `m`, `c` and `n` take a float or a float array and return values of its
    shape (or a scalar, which is broadcast); `m` or `n` None stands for 1.
    `M` is None (the identity) or a pair (profile, matrix): a per-site
    factor of shape (sites,) or None, times a fiber matrix of shape (f, f)
    or (sites, f, f)."""

    m: Optional[Callable]
    c: Callable
    n: Optional[Callable]
    M: Optional[tuple] = None


def _sample(fn: Optional[Callable], x: np.ndarray) -> Optional[np.ndarray]:
    """fn on the array x as a complex array of x's shape; None for fn None."""
    if fn is None:
        return None
    return np.broadcast_to(np.asarray(fn(x), dtype=complex), x.shape)


def _term_samples(terms, times: np.ndarray, lag_times: np.ndarray) -> list:
    """(m(times), c(lag_times), n(times)) of each term, with ones for an m
    or n that is None."""
    ones = np.ones(times.size, dtype=complex)
    samples = []
    for m, c, n, _ in terms:
        mv, nv = _sample(m, times), _sample(n, times)
        samples.append((ones if mv is None else mv, _sample(c, lag_times),
                        ones if nv is None else nv))
    return samples


def _apply_M(M: Optional[tuple], values: np.ndarray) -> np.ndarray:
    """M applied to values of shape (..., sites, k), where k is the number of
    columns the matrix has (all f, or the ones it reads). A per-site
    (sites, f, k) stack meets a (frames, sites, k) stack as one batched
    product per site (`systems._per_mode`), not as the per-site einsum of
    `_fiber_apply`, which is slower on it."""
    if M is None:
        return values
    prof, mat = M
    if mat is not None and mat.ndim == 3 and values.ndim == 3:
        out = np.empty(values.shape[:2] + mat.shape[1:2], dtype=complex)
        _per_mode(mat, values, out)
    else:
        out = _fiber_apply(mat, values)
    return out if prof is None else out * prof[:, None]


def _site_chunk(prof, mat, sa: int, sb: int) -> tuple:
    """M = (prof, mat) on the sites [sa, sb) (either part may be None)."""
    return (None if prof is None else prof[sa:sb],
            mat if mat is None or mat.ndim == 2 else mat[sa:sb])


def _profile_frames(prof: Trajectory, tr: Trajectory) -> np.ndarray:
    """The frames of a separable profile at the frame times of tr."""
    off = tr.index0 - prof.index0
    if off < 0 or off + tr.n_frames > prof.n_frames:
        raise KernelError("profile lattice does not cover the trajectory "
                          "window")
    return prof.values[off:off + tr.n_frames]


def _frame_span(tr: Trajectory) -> Optional[tuple]:
    """(first, last) lattice index of the frames of tr that hold a nonzero
    value (NaN counts as nonzero), None when every value is zero."""
    live = np.flatnonzero(np.any(tr.values != 0, axis=(1, 2)))
    if live.size == 0:
        return None
    return tr.index0 + int(live[0]), tr.index0 + int(live[-1])


def _span_frames(span: Optional[tuple], tr: Trajectory) -> slice:
    """The frames of tr on a profile span, as a slice (empty for None)."""
    if span is None:
        return slice(0, 0)
    a = min(max(span[0] - tr.index0, 0), tr.n_frames)
    return slice(a, max(a, min(span[1] + 1 - tr.index0, tr.n_frames)))


def _fft_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a fast FFT length."""
    best = 1
    while best < n:
        best *= 2
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class TimeKernel:
    """Operator family B_{t,tau} with structural support flags. The kernel
    data states the whole operator: a fiber operator on the output (as
    A0^{-1} in the weighted potential, see `weighted`) is folded into each
    separable g or each convolution M."""

    grid: Grid
    kind: str                       # 'separable' | 'convolution'
    data: dict
    retarded: bool = False
    advanced: bool = False
    delta: float = INF
    switch_on: float = -INF

    def __post_init__(self):
        if self.kind not in ("separable", "convolution"):
            raise KernelError(f"unknown kernel kind {self.kind!r}")

    # -- tau-lattice support -------------------------------------------------

    def _admissible(self, t: float, tau: float) -> bool:
        """Whether the flags admit the pair (t, tau) at any two times; on a
        frame lattice `_slice_arrays` decides."""
        eps = 1e-12 * (1.0 + abs(t) + abs(tau))
        return not ((self.retarded and tau > t + eps)
                    or (self.advanced and tau < t - eps)
                    or abs(t - tau) > self.delta + eps
                    or tau < self.switch_on - eps)

    def _slice_arrays(self, tr: Trajectory):
        """Inclusive tau-frame range (j0, j1) the flags admit for each output
        frame; a frame with j1 <= j0 has trapezoid measure zero."""
        F = tr.n_frames
        i = np.arange(F)
        j0 = np.zeros(F, dtype=int)
        j1 = np.full(F, F - 1, dtype=int)
        if self.retarded:
            j1 = np.minimum(j1, i)
        if self.advanced:
            j0 = np.maximum(j0, i)
        if math.isfinite(self.delta):
            d = int(math.floor(self.delta / tr.dt + 1e-9))
            j0 = np.maximum(j0, i - d)
            j1 = np.minimum(j1, i + d)
        if math.isfinite(self.switch_on):
            jt0 = int(math.ceil((self.switch_on - tr.t_start) / tr.dt - 1e-9))
            j0 = np.maximum(j0, jt0)
        return j0, j1

    @property
    def translation_invariant(self) -> bool:
        """True when B commutes with the translations of the torus, so that
        it acts on Fourier-mode values (`grids.to_modes`) as on site values:
        a convolution kernel whose every M has no site profile and at most
        one (f, f) matrix."""
        if self.kind != "convolution":
            return False
        return all(M is None or (M[0] is None and (M[1] is None
                                                   or M[1].ndim == 2))
                   for M in (term.M for term in self.data["terms"]))

    def _profile_pairs(self, tr: Trajectory):
        """(g, h, g span, h span) of each separable pair: the profiles' frames
        at the frame times of tr, and the slices of those frames that their
        spans cover."""
        d = self.data
        for g_tr, h_tr, g_span, h_span in zip(d["g"], d["h"], d["g_span"],
                                              d["h_span"]):
            yield (_profile_frames(g_tr, tr), _profile_frames(h_tr, tr),
                   _span_frames(g_span, tr), _span_frames(h_span, tr))

    # -- application ---------------------------------------------------------

    def pair_apply(self, t: float, tau: float, values: np.ndarray) -> np.ndarray:
        """The frame operator B_{t,tau} alone (no time integration)."""
        if not self._admissible(t, tau):
            return np.zeros_like(values)
        if self.kind == "separable":
            dv = self.grid.cell_volume
            out = np.zeros_like(values)
            for g_tr, h_tr in zip(self.data["g"], self.data["h"]):
                h = h_tr.values[h_tr.index_of(tau)]
                c = complex(np.einsum("sf,sf->", np.conj(h), values)) * dv
                out += c * g_tr.values[g_tr.index_of(t)]
        else:
            # the scalar factors of a run of terms sharing M, then M once
            out = np.zeros_like(values)
            t, tau = float(t), float(tau)
            terms, s = self.data["terms"], 0.0
            for k, (m, c, n, M) in enumerate(terms):
                s += (complex(c(tau - t))
                      * (1.0 if m is None else complex(m(t)))
                      * (1.0 if n is None else complex(n(tau))))
                if k + 1 == len(terms) or terms[k + 1].M is not M:
                    out += s * _apply_M(M, values)
                    s = 0.0
        return out

    def apply(self, tr: Trajectory, t: float) -> np.ndarray:
        """(B psi)(t) at a lattice time t of tr: one frame of apply_all."""
        return self.apply_all(tr)[tr.index_of(t)]

    def apply_all(self, tr: Trajectory) -> np.ndarray:
        """(B psi)(t_i) = int B_{t_i,tau} psi_tau d tau for every frame t_i of
        tr: the composite trapezoid over the tau frames [j0, j1] that
        _slice_arrays admits. Separable kernels use prefix sums, convolution
        kernels the direct sum or one FFT convolution per term (see
        _conv_all)."""
        F = tr.n_frames
        out = np.zeros((F, self.grid.sites, self.grid.fiber), dtype=complex)
        j0, j1 = self._slice_arrays(tr)
        live = j1 > j0
        if not np.any(live):
            return out
        if self.kind == "separable":
            j0c = np.clip(j0, 0, F - 1)
            j1c = np.clip(j1, 0, F - 1)
            dv = self.grid.cell_volume
            for gv, hv, gs, hs in self._profile_pairs(tr):
                # <h, psi> on h's span, 0 elsewhere (as h is there)
                c = np.zeros(F, dtype=complex)
                c[hs] = np.einsum("tsf,tsf->t", np.conj(hv[hs]),
                                  tr.values[hs]) * dv
                P = np.concatenate([[0.0 + 0.0j], np.cumsum(c)])
                # trapezoid over [j0, j1]: full prefix sum minus half
                # endpoints, on the frames where g is nonzero
                a, b = j0c[gs], j1c[gs]
                s = P[b + 1] - P[a] - 0.5 * c[a] - 0.5 * c[b]
                s = np.where(live[gs], s, 0.0) * tr.dt
                out[gs] += s[:, None, None] * gv[gs]
        else:
            self._conv_all(tr, j0, j1, live, out)
        return out

    def pair_band(self, tr: Trajectory, d: int) -> np.ndarray:
        """The future band of the kernel's quadratic form on tr, shape
        (d + 1, frames):

            G[l, i] = dv sum_sites psi_i^+ B_{t_i, t_{i+l}} psi_{i+l}

        for the lags l = 0..d, and 0 where frame i + l is not among the tau
        frames [j0, j1] that _slice_arrays admits for frame i (or lies past
        the last frame). Separable kernels take a rank-r product of per-frame
        scalars, convolution kernels one product per lag and group of terms
        sharing an M (see _conv_band)."""
        F = tr.n_frames
        i = np.arange(F)
        j0, j1 = self._slice_arrays(tr)
        band = np.zeros((d + 1, F), dtype=complex)
        if self.kind == "separable":
            dv = self.grid.cell_volume
            for gv, hv, gs, hs in self._profile_pairs(tr):
                u = np.zeros(F, dtype=complex)
                v = np.zeros(F, dtype=complex)
                u[gs] = np.einsum("tsf,tsf->t", np.conj(tr.values[gs]),
                                  gv[gs])
                v[hs] = np.einsum("tsf,tsf->t", np.conj(hv[hs]),
                                  tr.values[hs]) * dv
                for lag in range(min(d, F - 1) + 1):
                    band[lag, :F - lag] += u[:F - lag] * v[lag:]
        else:
            self._conv_band(tr, band)
        band *= self.grid.cell_volume
        j = i + np.arange(d + 1)[:, None]
        band[(j < j0) | (j > j1)] = 0.0
        return band

    def _conv_band(self, tr: Trajectory, band: np.ndarray) -> None:
        """Add the convolution terms' band into `band` (without dv): for each
        run of consecutive terms sharing M (see _conv_groups), M is applied
        once to a chunk of frames, on the columns M reads, and lag l adds

            (sum_i conj(psi_i) . M psi_{i+l})
                * sum_k m_k(t_i) c_k(l dt) n_k(t_{i+l}).

        The output frames are taken in chunks of at least d + 1 whose frames
        (with the d after them) fit CHUNK_BYTES, so only one chunk's
        M-applied copy is held at a time."""
        F, d = tr.n_frames, band.shape[0] - 1
        times, lag_times = tr.times(), np.arange(d + 1) * tr.dt
        groups = [(sel, (prof, mat), _term_samples(terms, times, lag_times))
                  for terms, cols, sel, prof, mat in self._conv_groups()]
        step = max(d + 1, CHUNK_BYTES
                   // (16 * self.grid.sites * self.grid.fiber))
        for a in range(0, F, step):
            b = min(a + step, F)
            e = min(b + d, F)
            psi_c = np.conj(tr.values[a:b])
            for sel, M, samples in groups:
                y = _apply_M(M, tr.values[a:e, :, sel])
                for lag in range(min(d, e - 1 - a) + 1):
                    rows = min(b, e - lag) - a
                    fac = sum(mv[a:a + rows] * cv[lag]
                              * nv[a + lag:a + lag + rows]
                              for mv, cv, nv in samples)
                    band[lag, a:a + rows] += fac * np.einsum(
                        "isf,isf->i", psi_c[:rows], y[lag:lag + rows])
                del y               # free before the next group's copy

    def _conv_all(self, tr: Trajectory, j0, j1, live, out) -> None:
        """Add every convolution term into out. For output frame i a term
        contributes

            m(t_i) M sum_{j=j0}^{j1} w_j c((j - i) dt) n(tau_j) psi_j dt,

        w the trapezoid weights: 1/2 at j0 and j1, 1 between. The live frames
        admit the lags l = j - i in [lo, hi], and their count picks the path:

          * at most DIRECT_MAX_LAGS lags: the trapezoid sum itself, one
            banded matrix product per group of terms sharing M
            (`_conv_direct`);
          * more (long memory): one FFT correlation per term with the lag
            table (`_conv_fft`).

        The direct sum costs O(lags) per output value, the FFT O(log frames)
        with a larger constant. On 1200 frames of 512 values (one term, one
        BLAS thread, a 2-vCPU Xeon VM) the direct sum took 21-29 ms at 65
        lags against 34-36 ms by FFT, 48 against 41-48 ms at 129 lags, and
        about 55 against 35-44 ms at 161 and 193 lags. Both paths read only
        the columns that M reads, a chunk of sites at a time, and apply each
        M once per run of consecutive terms sharing it."""
        i = np.arange(tr.n_frames)
        lo = int(np.min((j0 - i)[live]))
        hi = int(np.max((j1 - i)[live]))
        if hi - lo + 1 <= DIRECT_MAX_LAGS:
            self._conv_direct(tr, j0, j1, live, lo, hi, out)
        else:
            self._conv_fft(tr, j0, j1, live, lo, hi, out)

    def _conv_groups(self) -> list:
        """The runs of consecutive terms that share one M, each as (terms,
        cols, sel, prof, mat): cols the fiber columns M reads, sel the index
        that takes them from the values, mat M's matrix on those columns."""
        f = self.grid.fiber
        groups = []
        for term in self.data["terms"]:
            if groups and groups[-1][0][-1].M is term.M:
                groups[-1][0].append(term)
                continue
            prof, mat = (None, None) if term.M is None else term.M
            cols = (np.arange(f) if mat is None else np.flatnonzero(
                np.any(mat.reshape(-1, f) != 0, axis=0)))
            sel = slice(None) if cols.size == f else cols
            groups.append(([term], cols, sel, prof,
                           None if mat is None else mat[..., sel]))
        return [group for group in groups if group[1].size]

    def _conv_direct(self, tr: Trajectory, j0, j1, live, lo, hi,
                     out) -> None:
        """The trapezoid sum of _conv_all as matrix products. The output
        frames are taken in blocks [a, b) of hi - lo + 1 rows, and a block
        reads only the tau frames [ja, jb) that its live rows admit, so no
        frame before the first admitted one (the switch-on) is read. Each
        group of terms sharing M gets one weight block

            W[i, j] = dt w_ij sum_k m_k(t_i) c_k((j - i) dt) n_k(tau_j),

        w_ij the trapezoid weight of tau frame j for output frame i (0 outside
        [j0, j1] and on rows that are not live), c_k sampled once on the lag
        table, and adds M (W @ psi[ja:jb]) over the columns M reads, in
        chunks of sites whose tau frames fit CHUNK_BYTES."""
        F, dt = tr.n_frames, tr.dt
        times, lag_times = tr.times(), np.arange(lo, hi + 1) * dt
        groups = [(cols, sel, prof, mat,
                   _term_samples(terms, times, lag_times))
                  for terms, cols, sel, prof, mat in self._conv_groups()]
        rows = hi - lo + 1
        width = max((group[0].size for group in groups), default=1)
        step = max(1, CHUNK_BYTES // (16 * min(F, 2 * rows - 1) * width))
        for a in range(0, F, rows):
            b = min(a + rows, F)
            ok = live[a:b]
            if not np.any(ok):
                continue
            ja, jb = int(np.min(j0[a:b][ok])), int(np.max(j1[a:b][ok])) + 1
            j = np.arange(ja, jb)
            first, last = j0[a:b, None], j1[a:b, None]
            w = np.where(ok[:, None] & (first <= j) & (j <= last),
                         np.where((j == first) | (j == last), 0.5 * dt, dt),
                         0.0)
            lag = np.clip(j - np.arange(a, b)[:, None] - lo, 0, rows - 1)
            blocks = [w * sum(cv[lag] * mv[a:b, None] * nv[ja:jb]
                              for mv, cv, nv in group[4])
                      for group in groups]
            for sa in range(0, self.grid.sites, step):
                sb = min(sa + step, self.grid.sites)
                source = None
                for (cols, sel, prof, mat, _), W in zip(groups, blocks):
                    if source != cols.tobytes():
                        source = cols.tobytes()
                        x = tr.values[ja:jb, sa:sb, sel].reshape(jb - ja, -1)
                    y = (W @ x).reshape(b - a, sb - sa, cols.size)
                    out[a:b, sa:sb] += _apply_M(_site_chunk(prof, mat, sa, sb),
                                                y)

    def _conv_fft(self, tr: Trajectory, j0, j1, live, lo, hi, out) -> None:
        """The sum of _conv_all by FFT (cf. Hairer, Lubich & Schlichte 1985).
        With the lag table c_l halved at lo and hi, the sum over all lags
        is one correlation of n psi with that table. It is taken on a
        zero-padded lattice long enough that no lag wraps onto a frame, so
        retarded, advanced and two-sided windows take the same path. Frames
        before the first admitted tau frame (switch-on) are not read: they
        enter as zeros. Where the window is cut short (j0 - i > lo or
        j1 - i < hi, near the ends and the switch-on) the end frame got a
        full weight, and half of it is subtracted after.

        The columns are transformed in chunks of sites whose FFT buffers fit
        CHUNK_BYTES; they are independent, so the chunking does not change
        the result. A term with the same n and columns as the one before
        reuses its forward transform."""
        F = tr.n_frames
        i = np.arange(F)
        n_fft = _fft_len(F + max(-lo, hi, 0))
        lags = np.arange(lo, hi + 1)
        times = tr.times()
        j_first = int(np.min(j0[live]))
        cut0 = np.flatnonzero(live & (j0 - i > lo))
        cut1 = np.flatnonzero(live & (j1 - i < hi))
        groups = []
        for terms, cols, sel, prof, mat in self._conv_groups():
            plans = []
            for m, c, n, _ in terms:
                ctab = _sample(c, lags * tr.dt)
                g = np.zeros(n_fft, dtype=complex)
                g[(-lags) % n_fft] = ctab
                g[-lo % n_fft] *= 0.5
                g[-hi % n_fft] *= 0.5
                nv, mv = _sample(n, times), _sample(m, times)
                plans.append((
                    n, np.fft.fft(g)[:, None, None],
                    None if nv is None else nv[:, None, None],
                    tr.dt if mv is None else (tr.dt * mv)[:, None, None],
                    (0.5 * ctab[j0[cut0] - cut0 - lo])[:, None, None],
                    (0.5 * ctab[j1[cut1] - cut1 - lo])[:, None, None]))
            groups.append((cols, sel, prof, mat, plans))
        width = max((group[0].size for group in groups), default=1)
        step = max(1, CHUNK_BYTES // (16 * n_fft * width))
        for sa in range(0, self.grid.sites, step):
            sb = min(sa + step, self.grid.sites)
            source = None
            for cols, sel, prof, mat, plans in groups:
                acc = None
                for n, g_hat, nv, w, half0, half1 in plans:
                    if source != (id(n), cols.tobytes()):
                        source = (id(n), cols.tobytes())
                        phi = np.zeros((F, sb - sa, cols.size), complex)
                        np.multiply(tr.values[j_first:, sa:sb, sel],
                                    1.0 if nv is None else nv[j_first:],
                                    out=phi[j_first:])
                        spec = np.fft.fft(phi, n=n_fft, axis=0)
                    conv = np.fft.ifft(spec * g_hat, axis=0)[:F]
                    conv[cut0] -= half0 * phi[j0[cut0]]
                    conv[cut1] -= half1 * phi[j1[cut1]]
                    conv *= w
                    if acc is None:
                        acc = conv
                    else:
                        acc += conv
                acc[~live] = 0.0
                out[:, sa:sb] += _apply_M(_site_chunk(prof, mat, sa, sb), acc)


# ---------------------------------------------------------------------------
# constructors

def _support_times(tr: Trajectory) -> Optional[tuple]:
    amp = np.max(np.abs(tr.values), axis=(1, 2))
    peak = float(np.max(amp))
    if peak == 0.0:
        return None
    idx = np.nonzero(amp > 1e-12 * peak)[0]
    return float(tr.time(int(idx[0]))), float(tr.time(int(idx[-1])))


def make_separable(g_list, h_list, retarded: bool = False, delta: float = INF,
                   switch_on: float = -INF) -> TimeKernel:
    """Rank-r separable kernel from spacetime profile pairs (g_a, h_a).
    Flags are checked against the actual profile supports at construction."""
    if len(g_list) != len(h_list) or not g_list:
        raise KernelError("need matching nonempty g/h profile lists")
    grid = g_list[0].grid
    tol = g_list[0].dt
    for g_tr, h_tr in zip(g_list, h_list):
        sg, sh = _support_times(g_tr), _support_times(h_tr)
        if sg is None or sh is None:
            continue
        if retarded and sh[1] > sg[0] + tol:
            raise KernelError(
                f"declared retarded but h support [{sh[0]:.3g},{sh[1]:.3g}] "
                f"extends past g support start {sg[0]:.3g}")
        if math.isfinite(delta):
            spread = max(sg[1] - sh[0], sh[1] - sg[0])
            if spread > delta + tol:
                raise KernelError(
                    f"declared range {delta} but supports spread {spread:.3g}")
        if math.isfinite(switch_on) and sh[0] < switch_on - tol:
            raise KernelError("h support precedes the declared switch-on time")
    return TimeKernel(grid=grid, kind="separable",
                      data={"g": list(g_list), "h": list(h_list),
                            "g_span": [_frame_span(g) for g in g_list],
                            "h_span": [_frame_span(h) for h in h_list]},
                      retarded=retarded, delta=delta, switch_on=switch_on)


def _checked_M(M, grid: Grid) -> Optional[tuple]:
    """M as None or (profile or None, complex matrix or None), shapes checked."""
    if M is None:
        return None
    prof, mat = M
    f, sites = grid.fiber, grid.sites
    if prof is not None:
        prof = np.asarray(prof, dtype=complex)
        if prof.shape != (sites,):
            raise KernelError(f"site profile shape {prof.shape} is not "
                              f"({sites},)")
    if mat is not None:
        mat = np.asarray(mat, dtype=complex)
        if mat.shape not in ((f, f), (sites, f, f)):
            raise KernelError(f"fiber matrix shape {mat.shape} is not "
                              f"({f}, {f}) or ({sites}, {f}, {f})")
    return None if prof is None and mat is None else (prof, mat)


def make_modulated(grid: Grid, terms, retarded: bool = False,
                   advanced: bool = False, delta: float = INF,
                   switch_on: float = -INF) -> TimeKernel:
    """Convolution kernel B_{t,tau} = sum_k m_k(t) c_k(tau - t) n_k(tau) M_k
    from a nonempty list of `ConvTerm`s (or 4-tuples (m, c, n, M)); the
    flags restrict the admitted (t, tau) pairs as for every kind."""
    terms = [ConvTerm(*term) for term in terms]
    if not terms:
        raise KernelError("need at least one convolution term")
    shared = {}     # id of a given M -> its checked form: shared M stay shared
    checked = []
    for m, c, n, M in terms:
        if not callable(c):
            raise KernelError("a convolution term needs a callable lag "
                              "function c")
        if id(M) not in shared:
            shared[id(M)] = _checked_M(M, grid)
        checked.append(ConvTerm(m, c, n, shared[id(M)]))
    return TimeKernel(grid=grid, kind="convolution", data={"terms": checked},
                      retarded=retarded, advanced=advanced, delta=delta,
                      switch_on=switch_on)


def make_convolution(chi_dot: Callable[[float], complex], projector,
                     grid: Grid, t0: float = 0.0,
                     delta_eff: float = INF) -> TimeKernel:
    """Retarded memory kernel: projector * int_{max(t0, t-delta_eff)}^{t}
    chi_dot(t - tau) psi_tau d tau, pointwise in space. The one-term case
    m = n = 1 of `make_modulated`, with c(z) = chi_dot(-z) called once per
    lag and M the projector (None for the identity)."""
    if delta_eff <= 0:
        raise KernelError("delta_eff must be positive")

    def c(z):
        return np.array([chi_dot(float(u)) for u in -np.ravel(z)],
                        dtype=complex).reshape(np.shape(z))

    M = None if projector is None else (None, projector)
    return make_modulated(grid, [ConvTerm(None, c, None, M)], retarded=True,
                          delta=delta_eff, switch_on=t0)


# ---------------------------------------------------------------------------
# weighting, adjoints, bounds

def _fold_M(k: TimeKernel, left: Optional[np.ndarray],
            right: Optional[np.ndarray] = None) -> TimeKernel:
    """The convolution kernel k with fiber operators folded into its data:
    each distinct M = (p, m) becomes (p, left m right), an M of None
    (the identity) becomes (None, left right), and M that were shared stay
    shared. `left` and `right` are in `_fiber_apply` form (None for the
    identity); a per-site stack in either makes each folded matrix one. A
    term's time integration is scalar and p a scalar per site, so the
    result is the operator left B right: `weighted` folds A0^{-1} on the
    output, the Dyson loop V^-1 A0^-1 and V per mode
    (`dyson._eigen_kernel`)."""
    folded = {}     # id of an M -> its folded form
    for M in (term.M for term in k.data["terms"]):
        if id(M) not in folded:
            prof, mat = (None, None) if M is None else M
            folded[id(M)] = (prof, _fiber_product(left,
                                                  _fiber_product(mat, right)))
    return replace(k, data={"terms": [term._replace(M=folded[id(term.M)])
                                      for term in k.data["terms"]]})


def weighted(k: TimeKernel, sys: SystemSpec) -> TimeKernel:
    """The weighted potential beta * sigma(eta)^{-1} B = A0^{-1} B, with
    A0^{-1} folded into the kernel data: each separable g becomes A0^{-1} g
    (on the same spans: it is zero wherever g is), each convolution M
    becomes A0^{-1} M (`_fold_M`, so M that were shared stay shared). k
    itself when A0 is the identity."""
    if sys.grid != k.grid:
        raise KernelError("kernel / system grid mismatch")
    if sys.A0_inv is None:
        return k
    if k.kind == "separable":
        g = [Trajectory(p.grid, p.dt, p.index0,
                        _fiber_apply(sys.A0_inv, p.values))
             for p in k.data["g"]]
        return replace(k, data={**k.data, "g": g})
    return _fold_M(k, sys.A0_inv)


def adjoint(k: TimeKernel) -> TimeKernel:
    """(B^dagger)_{t,tau} = (B_{tau,t})^dagger. Retarded kernels become
    advanced and vice versa; the time range delta is preserved. A finite
    switch-on turns into an output-time condition carried implicitly by the
    profile supports."""
    if k.kind == "separable":
        # (g(tau) <h(t), .>)^dagger = h(t) <g(tau), .>
        return TimeKernel(grid=k.grid, kind="separable",
                          data={"g": k.data["h"], "h": k.data["g"],
                                "g_span": k.data["h_span"],
                                "h_span": k.data["g_span"]},
                          retarded=k.advanced, advanced=k.retarded,
                          delta=k.delta, switch_on=-INF)
    # (m c n M)^dagger at (tau, t) is conj(n)(t) conj(c(t - tau)) conj(m)(tau)
    # M^dagger
    adj_M = {}      # one adjoint per distinct M, so shared M stay shared
    for M in (term.M for term in k.data["terms"]):
        if M is not None and id(M) not in adj_M:
            prof, mat = M
            adj_M[id(M)] = (None if prof is None else np.conj(prof),
                            None if mat is None
                            else np.conj(np.swapaxes(mat, -1, -2)))
    terms = [ConvTerm(None if n is None else (lambda t, n=n: np.conj(n(t))),
                      lambda z, c=c: np.conj(c(-np.asarray(z))),
                      None if m is None else
                      (lambda tau, m=m: np.conj(m(tau))),
                      adj_M.get(id(M)))
             for m, c, n, M in k.data["terms"]]
    return make_modulated(k.grid, terms, retarded=k.advanced,
                          advanced=k.retarded, delta=k.delta)


def threshold_margin(C: float, delta: float) -> float:
    """8 e delta^2 C; values below 1 are the convergent short-range regime."""
    if C < 0 or delta <= 0:
        raise KernelError("need C >= 0 and delta > 0")
    return 8.0 * math.e * delta ** 2 * C


@dataclass
class BoundEstimate:
    """sup over sampled (t,tau) of the weighted kernel's H_tau -> H_t
    operator norm against the decay weight e^{-D|tau|/2}."""

    C_est: float
    margin: float
    samples: int
    decay_D: float
    delta: float


def _span_gram(profiles: list, spans: list, root: Optional[np.ndarray],
               dv: float) -> np.ndarray:
    """The Gram matrices dv sum_sites <R p_a, R p_b> of the profiles at each
    frame of their (shared) lattice, R the fiber operator `root` in
    `_fiber_apply` form, shape (frames, r, r): taken on the frames their
    spans cover, 0 on the others, where every profile is 0."""
    first = profiles[0]
    out = np.zeros((first.n_frames, len(profiles), len(profiles)),
                   dtype=complex)
    live = [span for span in spans if span is not None]
    if live:
        sl = _span_frames((min(a for a, _ in live), max(b for _, b in live)),
                          first)
        w = _fiber_apply(root, np.stack([p.values[sl] for p in profiles]))
        out[sl] = np.einsum("atsf,btsf->tab", np.conj(w), w) * dv
    return out


def _pair_sup(V: TimeKernel, Gg: np.ndarray, Hh: np.ndarray,
              lattice: Trajectory, a: int, b: int, D: float) -> tuple:
    """(sup, count) over the admissible pairs (t_i, tau_j) of the profile
    lattice with i and j in the window [a, b) of the rank-r operator norm
    sqrt(max eig(Gg_i Hh_j)) weighted by e^{D|tau_j|/2}. Row i admits the
    tau frames [j0_i, j1_i] of `_slice_arrays` (the pairs apply_all
    integrates) clipped to the window. The count is of every admissible
    pair, but the norm is taken only where Gg_i and Hh_j are nonzero: it is
    0 at the other pairs, and the sup is at least 0."""
    j0, j1 = V._slice_arrays(lattice)
    lo, hi = np.maximum(j0[a:b], a), np.minimum(j1[a:b], b - 1)
    count = int(np.sum(np.maximum(hi - lo + 1, 0)))
    rows = np.flatnonzero(np.any(Gg[a:b] != 0, axis=(1, 2)))
    cols = a + np.flatnonzero(np.any(Hh[a:b] != 0, axis=(1, 2)))
    # each row's admitted nonzero columns: a run cols[start:start + n]
    start = np.searchsorted(cols, lo[rows])
    n = np.maximum(np.searchsorted(cols, hi[rows], side="right") - start, 0)
    if not np.any(n):
        return 0.0, count
    ii = a + np.repeat(rows, n)
    jj = np.arange(int(np.sum(n))) + np.repeat(start - np.cumsum(n) + n, n)
    gi, hj = Gg[ii], Hh[cols[jj]]
    if Gg.shape[1] == 1:
        sq = (gi[:, 0, 0] * hj[:, 0, 0]).real
    else:
        sq = np.max(np.linalg.eigvals(gi @ hj).real, axis=-1)
    decay = np.array([math.exp(-D * abs(float(tau)) / 2.0)
                      for tau in lattice.times()[cols]])
    return float(np.max(np.sqrt(np.maximum(sq, 0.0)) / decay[jj])), count


_PROBE_PAIRS = 32


def _probe_sup(V: TimeKernel, wroot: Optional[np.ndarray], t_window: tuple,
               D: float, seed: int) -> tuple:
    """(sup, count) of ||V_{t,tau} psi||_t e^{D|tau|/2} over 4 random unit
    fields psi at each of _PROBE_PAIRS random admissible pairs in the window
    and at the admissible pairs (t, t) of 9 evenly spaced times, one pair at
    a time; `wroot` is W^{1/2} in `_fiber_apply` form."""
    g = V.grid
    dv = g.cell_volume
    rng = np.random.Generator(np.random.Philox(seed))
    lo, hi = t_window
    if hi <= lo:
        raise KernelError("empty window")
    pair_times = []
    while len(pair_times) < _PROBE_PAIRS:
        t = float(rng.uniform(lo, hi))
        if math.isfinite(V.delta):
            tau = float(rng.uniform(max(lo, t - V.delta), min(hi, t + V.delta)))
        else:
            tau = float(rng.uniform(lo, hi))
        if V._admissible(t, tau):
            pair_times.append((t, tau))
    pair_times += [(t, t) for t in np.linspace(lo, hi, 9)
                   if V._admissible(t, t)]

    def h_norm(values):
        tv = _fiber_apply(wroot, values)
        return math.sqrt(max((np.vdot(tv, tv) * dv).real, 0.0))

    best, n_samples = 0.0, 0
    rng = np.random.Generator(np.random.Philox(seed + 1))
    for (t, tau) in pair_times:
        # one draw per pair: probe p is draws[p, 0] + i draws[p, 1]
        draws = rng.standard_normal(size=(4, 2, g.sites, g.fiber))
        for re, im in draws:
            psi = re + 1j * im
            n = h_norm(psi)
            if n == 0:
                continue
            psi /= n
            out = V.pair_apply(t, tau, psi)
            n_samples += 1
            best = max(best, h_norm(out) / math.exp(-D * abs(tau) / 2.0))
    return best, n_samples


def estimate_bound(k: TimeKernel, sys: SystemSpec,
                   t_window: Optional[tuple] = None, D: float = 0.0,
                   seed: int = 0) -> BoundEstimate:
    """Estimate C = sup ||V_{t,tau} psi||_t / (e^{-D|tau|/2} ||psi||_tau) for
    the weighted potential V = A0^{-1} B. Separable kernels are exact: the
    rank-r operator norm at every admissible pair of profile frames in the
    window (all frames without one), and `samples` counts those pairs. The
    convolution kind needs a window and is probed (see `_probe_sup`)."""
    V = weighted(k, sys)
    wroot, wiroot = inner_weight(sys).roots()
    if V.kind == "separable":
        lattice = V.data["g"][0]
        a, b = 0, lattice.n_frames
        if t_window is not None:
            times = lattice.times()
            a = int(np.searchsorted(times, t_window[0] - 1e-12))
            b = int(np.searchsorted(times, t_window[1] + 1e-12, side="right"))
        # per-frame Gram data: output side in H_t, input side in the dual norm
        dv = sys.grid.cell_volume
        Gg = _span_gram(V.data["g"], V.data["g_span"], wroot, dv)
        Hh = _span_gram(V.data["h"], V.data["h_span"], wiroot, dv)
        best, n_samples = _pair_sup(V, Gg, Hh, lattice, a, b, D)
    elif t_window is None:
        raise KernelError("non-separable kernels need an explicit window")
    else:
        best, n_samples = _probe_sup(V, wroot, t_window, D, seed)
    margin = threshold_margin(best, k.delta) if math.isfinite(k.delta) else INF
    return BoundEstimate(C_est=best, margin=margin, samples=n_samples,
                         decay_D=D, delta=k.delta)
