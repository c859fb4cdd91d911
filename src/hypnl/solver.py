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
  autonomous system d_t y = L y + s is exactly
  y+ = R y + P0 s_n + P1 s_n+1, with R, P0 and P1 polynomials in h L
  (_rk4_polys), block-diagonal on the sites or on the Fourier modes of the
  torus. The data are transformed to the basis once per solve and the
  frames back once. One rule, on the system alone, picks one of three
  recurrences (_recurrence_kind):
  - "sum", L = 0 (no live A^j and no S0, a state-free system): R = I,
    P0 = P1 = (h/2) I, and a step with one end in the source window adds
    (h/6) s, so the frames are the data plus one cumulative sum of these
    increments, without a per-step loop (_source_integral).
  - "eigen", A0 and every live A^j exactly Hermitian and S0 exactly
    skew-Hermitian (S0 + S0^H = 0, an absent S0 included, as in Maxwell's
    and Dirac's equations): L is skew-adjoint in the A0 inner product, so
    L = V diag(-i lam) V^-1 with real lam (_eigenbasis, one
    np.linalg.eigh per mode or site, built once per LocalSolver). In that
    basis a step is elementwise, and a solve takes the source in and the
    frames out by batched per-mode products over blocks of frames, not one
    product per step (_eigen_recurrence).
  - "stacked", any other system: K = [R | P0 | P1], built once per
    LocalSolver and direction; a block of steps that reads a source frame
    is one batched product of K (see _block_product), one without steps
    R y alone (_recurrence).
  The frames agree with the per-step loop to round-off: below 1e-14 of the
  largest frame value, tested at 1e-13.
* Stepping (a time-dependent S0, or a spatial term with a coefficient that
  varies by site): the RK4 loop, each stage applying the coefficients,
  writing each frame into one preallocated array; bitwise equal to the
  per-step loop.

Every path stops at the first non-finite frame with SolveAborted, carrying
the loop's message, partial frames and last_stable
(tests/test_solver.py::test_solve_local_matches_reference_loop and
test_non_finite_source_aborts_like_reference_loop). Both paths read the same
source frames at every step, so a non-finite source frame aborts them at the
same step. The eigenbasis recurrence steps on past it without warnings and
finds the first non-finite frame after its transforms back. On the Fourier modes, a solve within a factor of `sites` of
overflow may abort one step earlier than the loop, and real data picks up
imaginary round-off.

An eigenbasis recurrence is also split from its transforms:
`LocalSolver.solve(..., in_basis=True)` takes the data and the source in
the eigen coordinates of L and returns the frames in them, u = V^-1 y for
the data and the frames and w = V^-1 A0^-1 s for the source, with y and s
in the recurrence's basis (on the modes: `grids.to_modes` of the site
values). Such a solve only steps. `LocalSolver.to_eigen` and
`LocalSolver.from_eigen` map values between the basis and these
coordinates; a stacked or state-free recurrence refuses `in_basis`, as a
solve that steps does. A Dyson run whose kernel commutes with translations
keeps its iterates in these coordinates (the loop-basis rule in `dyson`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .grids import (_CHUNK_VALUES, Grid, StateField, Trajectory,
                    stencil_symbols, to_modes)
from .systems import SystemSpec, _fiber_apply, _fiber_product, evolution_rhs


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


def _exactly_hermitian(m: Optional[np.ndarray], sign: float = 1.0) -> bool:
    """Whether m equals `sign` times its conjugate transpose bitwise (per
    site for a stack); None, the identity or zero, passes."""
    return m is None or np.array_equal(
        m, sign * np.conj(np.swapaxes(m, -1, -2)))


def _recurrence_kind(sys: SystemSpec, basis: Optional[str]) -> Optional[str]:
    """The recurrence a system's solves take in `basis` (None when they
    step): "sum" when L = 0 (no spatial term and no S0, see
    _source_integral); "eigen" when A0 and every live A^j are exactly
    Hermitian and S0 exactly skew-Hermitian (S0 + S0^H = 0, an absent S0
    included), so that L = A0^{-1} (S0 - i sum_j sigma_j A^j) is
    skew-adjoint in the A0 inner product on every mode or site (see
    _eigen_recurrence); else "stacked" (K = [R | P0 | P1], see
    _recurrence), which is built from L as it is. The test is bitwise:
    np.linalg.eigh reads one triangle of a matrix, so a coefficient that is
    Hermitian only to round-off would shift the eigenbasis by as much."""
    if basis is None:
        return None
    if basis == "sites" and sys.S0 is None:
        return "sum"
    if _exactly_hermitian(sys.S0, -1.0) and all(
            _exactly_hermitian(c) for c in
            (sys.A0,) + tuple(sys.Aj[j] for j, _ in sys.live)):
        return "eigen"
    return "stacked"


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


def _eigenbasis(sys: SystemSpec, basis: str) -> tuple:
    """(lam, V, V^-1, V^-1 A0^-1, A0 V) of a system whose recurrence is
    "eigen" (see _recurrence_kind), with L = V diag(-i lam) V^-1 in the
    basis, per mode or site ((f,) and (f, f) arrays when L is the same at
    every site). With A0 = W^2, W Hermitian,
    H = i W L W^-1 = W^-1 (i S0 + sum_j sigma_j A^j) W^-1 is Hermitian, and
    np.linalg.eigh gives H = Q diag(lam) Q^H, so V = W^-1 Q,
    V^-1 = Q^H W and A0 V = W Q: V is unitary in the A0 inner product.
    With A0 = I, V^-1 and V^-1 A0^-1 are one array, and so are V and A0 V.
    On the modes, H is formed for chunks of modes, as K is in
    _step_matrices."""
    w = w_inv = None
    if sys.A0 is not None:
        d, u = np.linalg.eigh(sys.A0)
        uh = np.conj(np.swapaxes(u, -1, -2))
        w = (u * np.sqrt(d)[..., None, :]) @ uh
        w_inv = (u / np.sqrt(d)[..., None, :]) @ uh
    if basis == "sites":
        gens = [_generator(sys, basis)]
    else:
        g = sys.grid
        step = max(1, _CHUNK_VALUES // g.fiber ** 2)
        gens = (_generator(sys, basis, slice(a, a + step))
                for a in range(0, g.sites, step))
    parts = [np.linalg.eigh(1j * _fiber_product(w, _fiber_product(gen, w_inv)))
             for gen in gens]
    lam = np.concatenate([p[0] for p in parts])
    q = np.concatenate([p[1] for p in parts])
    qh = np.conj(np.swapaxes(q, -1, -2))
    if w is None:
        return lam, q, qh, qh, q
    return lam, w_inv @ q, qh @ w, qh @ w_inv, w @ q


def _eigen_polys(lam: np.ndarray, h: float) -> np.ndarray:
    """(r, p0, p1), each shaped as lam: R, P0 and P1 of _rk4_polys on the
    eigenvalues -i lam of L, as 1 x 1 blocks."""
    k = _rk4_polys((-1j * lam)[..., None, None], h)[..., 0, :]
    return np.moveaxis(k, -1, 0).copy()


def _rows(values: np.ndarray) -> np.ndarray:
    """(..., f) values as an (...) array of records of f values each, so that
    a copy between layouts moves whole fiber rows: numpy's strided copy of
    complex values makes one inner loop per row of f values."""
    return values.view(np.dtype((np.void, values.shape[-1] * values.itemsize))
                       )[..., 0]


# frames per batched product of _per_mode: one BLAS call per mode reads a
# row of every frame it spans, and a long solve is slower done whole (a
# 1300-frame, 512-mode, fiber-2 product took 2.6x as long as in 64-frame
# blocks)
_PER_MODE_FRAMES = 64


def _per_mode(m: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """out[:, i] = m[i] applied to values[:, i], for (frames, n, f) stacks
    (`out` may be `values`): batched np.matmul over blocks of frames, so
    that numpy makes one BLAS call per mode (or site) i and block, not one
    per frame. One (f, f) m applies to every i."""
    for a in range(0, len(values), _PER_MODE_FRAMES):
        b = a + _PER_MODE_FRAMES
        if m.ndim == 2:
            out[a:b] = values[a:b] @ m.T
            continue
        res = np.matmul(values[a:b].transpose(1, 0, 2), np.swapaxes(m, -1, -2))
        _rows(out[a:b])[...] = _rows(res).T


# values in one block of frames (see _PER_MODE_FRAMES) of a chunk of modes
# (or sites) of per-mode products: the size of their temporaries. An
# eigenbasis solve's chunk runs all its steps, so a line of up to 2048 modes
# of fiber 2 is one chunk and its step loop runs once; 16^3 x 6 Maxwell
# modes are 3 chunks.
_EIGEN_CHUNK_VALUES = 1 << 18


def _mode_chunk(grid: Grid, frames: int) -> int:
    """Modes (or sites) per chunk of per-mode products over `frames`
    frames: chunks of equal size, each with at most _EIGEN_CHUNK_VALUES
    values in a block of _PER_MODE_FRAMES frames."""
    rows = min(_PER_MODE_FRAMES, frames)
    count = -(-grid.sites * rows * grid.fiber // _EIGEN_CHUNK_VALUES)
    return -(-grid.sites // count)


def _per_mode_chunks(grid: Grid, m: np.ndarray, values: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """_per_mode over chunks of modes (see _mode_chunk), so that its
    temporaries stay small; `out` may be `values`. Returns `out`."""
    size = _mode_chunk(grid, len(values))
    for k in range(0, grid.sites, size):
        c = slice(k, k + size)
        _per_mode(m if m.ndim == 2 else m[c], values[:, c], out[:, c])
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


def _window_sources(phi: Trajectory, i0: int, sgn: int, lo: int, hi: int,
                    p0, p1, h: float, one=1.0) -> tuple:
    """(s, q1, q0) of the source frames at solve positions lo .. hi of a
    recurrence whose steps add P0 s_n + P1 s_n+1 (`one` is the identity in
    the form of p0 and p1): s the frames, in stepping order (a view of
    phi.values), and the coefficients of the one source frame read by a
    step with only one end in the source window. Such a step has no
    midpoint stage (see _step_sources): the step into the window's first
    frame adds q1 s = (h/6) s and the step out of its last frame adds
    q0 s = (P0 - P1 + h/6) s, Q1 and Q0 of _rk4_polys."""
    ends = sorted((i0 + sgn * lo - phi.index0, i0 + sgn * hi - phi.index0))
    q1 = (h / 6.0) * one
    return phi.values[ends[0]:ends[1] + 1][::sgn], q1, p0 - p1 + q1


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
    window adds q1 s or q0 s (see _window_sources), where V put P1 or P0."""
    lo, hi = max(a, window[0]), min(b, window[1])
    if lo > hi:
        return None
    g, f = sys.grid, sys.grid.fiber
    p0, p1 = k[..., f:2 * f], k[..., 2 * f:]
    src, q1, q0 = _window_sources(phi, i0, sgn, lo, hi, p0, p1, h, np.eye(f))
    s = _transform(g, xf, _fiber_apply(sys.A0_inv, src))
    cols = s.transpose(1, 2, 0)           # frames lo .. hi as columns
    v = np.zeros((g.sites, 3 * f, b - a), dtype=complex)
    v[:, :f, 0] = y
    # the frame at position p is s_n of step p and s_n+1 of step p - 1
    last = min(hi, b - 1)
    v[:, f:2 * f, lo - a:last - a + 1] = cols[..., :last - lo + 1]
    first = max(lo, a + 1)
    v[:, 2 * f:, first - a - 1:hi - a] = cols[..., first - lo:]
    out = np.matmul(k, v).transpose(2, 0, 1)
    for step, pos, q, p in ((window[0] - 1, window[0], q1, p1),
                            (window[1], window[1], q0, p0)):
        if a <= step < b:
            out[step - a] += _fiber_apply(q - p, s[pos - lo])
    return out


def _recurrence(sys: SystemSpec, phi: Optional[Trajectory], data: StateField,
                xf: str, k: np.ndarray, h: float, i0: int, sgn: int,
                n_steps: int, stored: np.ndarray) -> int:
    """The recurrence y+ = K [y; s_n; s_n+1] in blocks of steps, its frames
    written into `stored` (stepping order, from index 1): a sourced block is
    one product K V (see _block_product), whose first row is its first frame
    and whose later rows its later steps add to R y.
    `xf` is the basis the data, source and frames are transformed to and
    back from: "modes" for site values of a recurrence on the modes,
    "sites" (no transform) for values already in K's basis. Returns the
    number of steps taken before the first non-finite frame."""
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


def _eigen_recurrence(sys: SystemSpec, phi: Optional[Trajectory],
                      data: StateField, xf: Optional[str], eig: tuple,
                      polys: np.ndarray, h: float, i0: int, sgn: int,
                      n_steps: int, stored: np.ndarray) -> int:
    """The recurrence of a system with a skew-Hermitian S0 in the eigenbasis
    of L (see _eigenbasis; `polys` from _eigen_polys), with _recurrence's
    arguments, output and return value. There a step is elementwise,
    u+ = r u + p0 w_n + p1 w_n+1, with u = V^-1 y and w = V^-1 A0^-1 source;
    a step with only one end in the source window adds q1 w_n+1 or q0 w_n
    (see _window_sources). `xf` None means that the data, the source and
    the frames hold these eigen coordinates: the solve only steps.

    `stored` is the work buffer. The source frames are transformed from `xf`
    into it by blocks of frames. Then each chunk of modes (or sites, see
    _mode_chunk) runs alone, on all frames: per-mode products (_per_mode)
    take its source to the eigenbasis, each step's source term is written
    into the frame the step makes, the steps add r times the frame before,
    and per-mode products by V take its frames back. Last, the frames are
    transformed back to `xf` by blocks of frames. The steps run past a
    non-finite frame, and the first one is found after the transforms
    back."""
    grid = sys.grid
    _, vecs, to_u, to_w, _ = eig
    y0 = data.values if xf is None else _transform(grid, xf, data.values)
    block = max(1, _CHUNK_VALUES // y0.size)
    size = _mode_chunk(grid, n_steps + 1)
    window = _source_window(phi, i0, sgn, n_steps)
    first, last = 0, -1               # the steps that add a source term
    if window is not None:
        lo, hi = window
        first, last = max(lo - 1, 0), min(hi, n_steps - 1)
        src, q1, q0 = _window_sources(phi, i0, sgn, lo, hi, polys[1],
                                      polys[2], h)
        if xf == "modes":
            for a in range(lo, hi + 1, block):
                b = min(a + block, hi + 1)
                stored[a:b] = _transform(grid, xf, src[a - lo:b - lo])
            src = stored[lo:hi + 1]
    for k in range(0, grid.sites, size):
        c = slice(k, k + size)
        m = c if vecs.ndim == 3 else slice(None)    # per mode, or one set
        r, p0, p1 = polys[:, m]
        work = stored[:, c]
        if window is not None:
            # the chunk's source in the eigenbasis: the given one, or its
            # per-mode product written over the frames it covers
            w = src[:, c]
            if xf is not None:
                _per_mode(to_w[m], w, work[lo:hi + 1])
                w = work[lo:hi + 1]
        with np.errstate(invalid="ignore", over="ignore"):
            if window is not None:
                terms = work[lo:hi + 1]
                if hi < n_steps:
                    np.multiply(q0[m], w[-1], out=work[hi + 1])
                # p0 w_k + p1 w_k+1 into frame k + 1, by blocks of frames
                # from the last, so that each w_k is read before it is
                # overwritten where w is the work buffer
                for b in range(len(w) - 1, 0, -_PER_MODE_FRAMES):
                    a = max(b - _PER_MODE_FRAMES, 0)
                    term = p0 * w[a:b]
                    np.multiply(w[a + 1:b + 1], p1, out=terms[a + 1:b + 1])
                    terms[a + 1:b + 1] += term
                # step lo - 1 has only its end in the window
                np.multiply(w[0], q1, out=terms[0])
            prev = y0[c] if xf is None else _fiber_apply(to_u[m], y0[c])
            term = np.empty_like(prev)
            for s in range(n_steps):
                if first <= s <= last:
                    work[s + 1] += np.multiply(r, prev, out=term)
                else:
                    np.multiply(r, prev, out=work[s + 1])
                prev = work[s + 1]
        if xf is not None:
            _per_mode(vecs[m], work[1:], work[1:])
    if xf == "modes":
        for a in range(1, n_steps + 1, block):
            stored[a:a + block] = _transform(grid, xf, stored[a:a + block],
                                             inverse=True)
    if window is not None and window[0] == 0:
        stored[0] = data.values       # it held the source at position 0
    # in eigen coordinates a non-finite value stays in its component to the
    # last frame (the steps are elementwise), so a finite one ends the check
    if xf is None and np.isfinite(stored[-1].view(float)).all():
        return n_steps
    bad = _first_non_finite(stored[1:])
    return n_steps if bad is None else bad


def _source_integral(sys: SystemSpec, phi: Optional[Trajectory],
                     y0: np.ndarray, h: float, i0: int, sgn: int,
                     n_steps: int, frames: np.ndarray) -> int:
    """The recurrence of a system with L = 0 (R = I, P0 = P1 = (h/2) I), with
    _recurrence's output and return value: the frames are y0 plus the
    cumulative sum of the steps' source terms, (h/2)(s_n + s_n+1) inside the
    source window and (h/6) s at a step with one end in it (see
    _window_sources), where s = A0^{-1} source."""
    frames[0] = y0
    frames[1:] = 0.0
    window = _source_window(phi, i0, sgn, n_steps)
    if window is not None:
        lo, hi = window
        src, q1, q0 = _window_sources(phi, i0, sgn, lo, hi, 0.5 * h, 0.5 * h,
                                      h)
        s = _fiber_apply(sys.A0_inv, src)
        inc = frames[1:]             # inc[n] is the source term of step n
        np.add(s[:-1], s[1:], out=inc[lo:hi])
        inc[lo:hi] *= 0.5 * h
        if lo > 0:
            inc[lo - 1] += q1 * s[0]
        if hi < n_steps:
            inc[hi] += q0 * s[-1]
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
    `basis` is the recurrence's basis ("sites" or "modes", see _basis), None
    when the solves step RK4. `recurrence` is the recurrence that runs in it
    (see _recurrence_kind), None when the solves step. What a recurrence
    builds is built at the first solve that needs it and kept, so that a
    caller making many solves, such as a Dyson run, builds it once: the
    eigenbasis once, and its step coefficients, or the stacked step matrix
    K = [R | P0 | P1], once per direction."""

    def __init__(self, sys: SystemSpec, opts: SolveOptions):
        self.sys, self.opts = sys, opts
        self.basis = _basis(sys)
        self.recurrence = _recurrence_kind(sys, self.basis)
        self._eig: Optional[tuple] = None
        self._mats: dict = {}         # direction -> K or (r, p0, p1)

    def eigenbasis(self) -> tuple:
        """(lam, V, V^-1, V^-1 A0^-1, A0 V) of an "eigen" recurrence (see
        _eigenbasis), built at the first call."""
        if self.recurrence != "eigen":
            raise SolverError("only an eigenbasis recurrence has one")
        if self._eig is None:
            self._eig = _eigenbasis(self.sys, self.basis)
        return self._eig

    def to_eigen(self, values: np.ndarray, source: bool = False,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """(frames, sites, f) values in `basis` in the eigen coordinates an
        in_basis solve takes: u = V^-1 y, or w = V^-1 A0^-1 s for a source.
        Per-mode products over chunks of modes, into `out` (which may be
        `values`; a new array when None)."""
        m = self.eigenbasis()[3 if source else 2]
        return _per_mode_chunks(self.sys.grid, m, values,
                                np.empty_like(values) if out is None else out)

    def from_eigen(self, values: np.ndarray, source: bool = False,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """The inverse of to_eigen: y = V u, or s = A0 V w for a source."""
        m = self.eigenbasis()[4 if source else 1]
        return _per_mode_chunks(self.sys.grid, m, values,
                                np.empty_like(values) if out is None else out)

    def _step_data(self, h: float, sgn: int) -> np.ndarray:
        """The direction's K, or (r, p0, p1) in the eigenbasis."""
        if sgn not in self._mats:
            if self.recurrence == "eigen":
                self._mats[sgn] = _eigen_polys(self.eigenbasis()[0], h)
            else:
                self._mats[sgn] = _step_matrices(self.sys, self.basis, h)
        return self._mats[sgn]

    def solve(self, phi: Optional[Trajectory], data: StateField, t0: float,
              t1: float, in_basis: bool = False) -> Trajectory:
        """Integrate S psi = phi from data at t0 to t1, as solve_local. With
        `in_basis` (an "eigen" recurrence only), `data` and the returned
        frames hold u = V^-1 y and `phi` holds w = V^-1 A0^-1 s, with y and
        s in `basis` (see to_eigen): the solve only steps. A SolveAborted
        then carries frames in these coordinates too."""
        sys, opts = self.sys, self.opts
        if in_basis and self.recurrence != "eigen":
            raise SolverError("only an eigenbasis recurrence solves in its "
                              "basis")
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
            if self.recurrence == "sum":
                n_ok = _source_integral(sys, phi, data.values, h, i0, sgn,
                                        n_steps, stored)
            elif self.recurrence == "eigen":
                polys = self._step_data(h, sgn)
                n_ok = _eigen_recurrence(
                    sys, phi, data, None if in_basis else self.basis,
                    self.eigenbasis(), polys, h, i0, sgn, n_steps, stored)
            else:
                n_ok = _recurrence(sys, phi, data, self.basis,
                                   self._step_data(h, sgn), h, i0, sgn,
                                   n_steps, stored)
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
