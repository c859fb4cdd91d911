"""Periodic spatial lattices, fiber-valued fields, time-sampled trajectories,
and the weighted inner products on slices and strips.

A Grid is a 1D or 3D torus with a complex fiber at every site. Fields store
their values as a flat (sites, fiber) complex array; helpers reshape to the
tensor layout when a spatial stencil needs axis structure. All reductions run
in a fixed order (plain einsum / C-order sums) so results are bit-reproducible
across thread counts. The slice weight is held in the one form of every fiber
operator (see `systems`): None for the identity, one (f, f) matrix when it is
the same at every site, else a (sites, f, f) stack; each inner product takes
one einsum per form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


# values per call of a chunked array operation over stacks of frames (0.5 MB):
# the solver's transforms and source blocks, the stacked apply_S of
# dyson.equation_defect and the balance terms of
# diagnostics.energy_identity. Larger chunks leave more temporaries in the
# heap; 1 MB chunks raised the peak RSS of the 3D Maxwell run.
_CHUNK_VALUES = 1 << 15


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Periodic lattice: `points` sites per axis on a torus of size `extent`,
    with a complex fiber of dimension `fiber` at every site."""

    dim: int
    extent: float
    points: int
    fiber: int

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise GridError(f"dim must be 1 or 3, got {self.dim}")
        if self.points < 8:
            raise GridError(f"need at least 8 points per axis, got {self.points}")
        if self.extent <= 0:
            raise GridError(f"extent must be positive, got {self.extent}")
        if self.fiber < 1:
            raise GridError(f"fiber must be >= 1, got {self.fiber}")

    @property
    def spacing(self) -> float:
        return self.extent / self.points

    @property
    def sites(self) -> int:
        return self.points ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis_coords(self) -> np.ndarray:
        """Coordinates along one axis (all axes are identical)."""
        return self.spacing * np.arange(self.points)

    def coords(self) -> np.ndarray:
        """Site coordinates, shape (sites, dim), C-order site enumeration."""
        x = self.axis_coords()
        if self.dim == 1:
            return x[:, None]
        xs = np.meshgrid(x, x, x, indexing="ij")
        return np.stack([a.ravel() for a in xs], axis=-1)

    def shaped(self, values: np.ndarray) -> np.ndarray:
        """View a flat (sites, fiber) array as (points, ..., points, fiber)."""
        return values.reshape((self.points,) * self.dim + (self.fiber,))

    def flat(self, values: np.ndarray) -> np.ndarray:
        return values.reshape(self.sites, self.fiber)

    def zeros(self) -> np.ndarray:
        return np.zeros((self.sites, self.fiber), dtype=complex)


def make_grid(dim: int, extent: float, points: int, fiber: int) -> Grid:
    """Build a periodic grid; rejects undersized or non-positive arguments."""
    return Grid(dim=dim, extent=float(extent), points=int(points), fiber=int(fiber))


@dataclass(frozen=True)
class StateField:
    """Fiber-valued complex field on a grid at one time label."""

    grid: Grid
    time: float
    values: np.ndarray  # (sites, fiber) complex

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.sites, self.grid.fiber):
            raise GridError(
                f"values shape {v.shape} != {(self.grid.sites, self.grid.fiber)}"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly time-sampled field history. Frame times are (index0 + i) * dt
    exactly (integer times step) so merged forward/backward solves share
    bit-identical time labels."""

    grid: Grid
    dt: float
    index0: int
    values: np.ndarray  # (frames, sites, fiber) complex

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 3 or v.shape[1:] != (self.grid.sites, self.grid.fiber):
            raise GridError(f"trajectory values shape {v.shape} invalid")
        if v.shape[0] < 1:
            raise GridError("empty trajectory")
        if self.dt <= 0:
            raise GridError("dt must be positive")
        object.__setattr__(self, "values", v)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def t_start(self) -> float:
        return self.index0 * self.dt

    @property
    def t_end(self) -> float:
        return (self.index0 + self.n_frames - 1) * self.dt

    def times(self) -> np.ndarray:
        return (self.index0 + np.arange(self.n_frames)) * self.dt

    def time(self, i: int) -> float:
        return (self.index0 + i) * self.dt

    def index_of(self, t: float) -> int:
        """Frame index of the lattice time t (must lie on the lattice)."""
        i = round(t / self.dt) - self.index0
        if not (0 <= i < self.n_frames):
            raise GridError(f"time {t} outside trajectory [{self.t_start}, {self.t_end}]")
        if abs(self.time(i) - t) > 1e-9 * max(1.0, abs(t)):
            raise GridError(f"time {t} not on the frame lattice (dt={self.dt})")
        return i

    def frame(self, i: int) -> StateField:
        return StateField(self.grid, self.time(i), self.values[i])

    def __iter__(self):
        return (self.frame(i) for i in range(self.n_frames))

    def scaled(self, c: complex) -> "Trajectory":
        return Trajectory(self.grid, self.dt, self.index0, c * self.values)

    def plus(self, other: "Trajectory") -> "Trajectory":
        if other.index0 != self.index0 or other.n_frames != self.n_frames:
            raise GridError("trajectory lattices differ")
        return Trajectory(self.grid, self.dt, self.index0, self.values + other.values)


def sample_trajectory(grid: Grid, fn, dt: float, index0: int, n_frames: int) -> Trajectory:
    """Sample fn(t, x) -> (sites, fiber) values on a frame lattice."""
    x = grid.coords()
    vals = np.stack([np.asarray(fn((index0 + i) * dt, x), dtype=complex)
                     for i in range(n_frames)])
    return Trajectory(grid, dt, index0, vals)


@dataclass(frozen=True)
class InnerWeight:
    """Slice inner-product weight W, Hermitian positive definite (the symbol
    in the time direction composed with the bundle metric), in the form
    `systems._fiber_apply` takes (None for the identity)."""

    grid: Grid
    weight: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.weight is None:
            return
        w = np.asarray(self.weight, dtype=complex)
        f = self.grid.fiber
        if w.shape not in ((f, f), (self.grid.sites, f, f)):
            raise GridError(f"weight shape {w.shape} invalid")
        herm = np.max(np.abs(w - np.conj(np.swapaxes(w, -1, -2))))
        if herm > 1e-12 * max(1.0, np.max(np.abs(w))):
            raise GridError(f"weight not Hermitian (defect {herm:.2e})")
        if np.min(np.linalg.eigvalsh(w)) <= 0:
            raise GridError("weight not positive definite")
        object.__setattr__(self, "weight", w)

    @classmethod
    def identity(cls, grid: Grid) -> "InnerWeight":
        return cls(grid)

    def roots(self) -> tuple:
        """(W^{1/2}, W^{-1/2}) in the form of the weight: (None, None) for
        the identity."""
        if self.weight is None:
            return None, None
        evals, vecs = np.linalg.eigh(self.weight)
        return tuple(np.einsum("...fg,...g,...hg->...fh", vecs, d, vecs.conj())
                     for d in (np.sqrt(evals), 1.0 / np.sqrt(evals)))


def _weighted_pairs(a: np.ndarray, b: np.ndarray, w: InnerWeight,
                   lead: str = "") -> np.ndarray:
    """sum over sites and fiber of conj(a) W b, per frame of (frames, sites,
    fiber) stacks (`lead` = "t") or of one (sites, fiber) slice (""): one
    fixed-order einsum per form of the weight."""
    if w.weight is None:
        return np.einsum(f"{lead}sf,{lead}sf->{lead}", np.conj(a), b)
    mat = "fg" if w.weight.ndim == 2 else "sfg"
    return np.einsum(f"{lead}sf,{mat},{lead}sg->{lead}", np.conj(a),
                     w.weight, b)


def inner_t(a: StateField, b: StateField, w: InnerWeight) -> complex:
    """Weighted slice inner product: sum over sites of conj(a).W.b * cell
    volume. Conjugate-linear in a, linear in b."""
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridError("fields live on different grids")
    if a.time != b.time:
        raise GridError(f"time labels differ: {a.time} vs {b.time}")
    if w.grid != a.grid:
        raise GridError("weight grid mismatch")
    return complex(_weighted_pairs(a.values, b.values, w)) * a.grid.cell_volume


def norm_t(a: StateField, w: InnerWeight) -> float:
    v = inner_t(a, a, w).real
    return math.sqrt(max(v, 0.0))


def frame_norms_sq(tr: Trajectory, w: InnerWeight) -> np.ndarray:
    """Per-frame squared slice norms: one fixed-order einsum over all
    frames (for the identity weight, over the real and imaginary parts)."""
    if w.grid != tr.grid:
        raise GridError("weight grid mismatch")
    v = tr.values
    if w.weight is None:
        r = v.reshape(len(v), -1).view(float)
        return np.einsum("tk,tk->t", r, r) * tr.grid.cell_volume
    return _weighted_pairs(v, v, w, "t").real * tr.grid.cell_volume


def trapezoid_sum(series: np.ndarray, dt: float) -> float:
    """Composite trapezoidal rule with deterministic left-to-right summation:
    the last running sum of [(s_0 + s_last) / 2, s_1, ..., s_{n-2}]."""
    if len(series) == 1:
        return 0.0
    terms = np.concatenate(([0.5 * (series[0] + series[-1])], series[1:-1]))
    return float(np.add.accumulate(terms)[-1] * dt)


def norm_strip(tr: Trajectory, w: InnerWeight) -> float:
    """Strip norm sqrt(int ||psi_t||_t^2 dt) by the trapezoidal rule."""
    sq = frame_norms_sq(tr, w)
    return math.sqrt(max(trapezoid_sum(sq, tr.dt), 0.0))


def sup_norm(tr: Trajectory, w: InnerWeight) -> float:
    """sup over frames of the slice norm."""
    return math.sqrt(max(float(np.max(frame_norms_sq(tr, w))), 0.0))


# ---------------------------------------------------------------------------
# spatial stencils (4th-order central; skew-symmetric on the periodic lattice)


def diff4(grid: Grid, values: np.ndarray, axis: int) -> np.ndarray:
    """4th-order central derivative along a spatial axis of (sites, c)
    values or of a (frames, sites, c) stack, for any number c of fiber
    columns. Exactly skew-symmetric w.r.t. the plain lattice inner product.

    The periodic wrap is two ghost points per side; the slices then give
    8 (v[i+1] - v[i-1]) - (v[i+2] - v[i-2]), summed in that order."""
    lead = values.shape[:-2]
    v = values.reshape(lead + (grid.points,) * grid.dim + values.shape[-1:])
    ax = len(lead) + axis
    n = grid.points
    pre = (slice(None),) * ax
    p = np.concatenate([v[pre + (slice(n - 2, n),)], v,
                        v[pre + (slice(0, 2),)]], axis=ax)

    def shift(off):  # v[i + off] for every i, read from the padded copy
        return p[pre + (slice(2 + off, n + 2 + off),)]

    out = 8.0 * (shift(1) - shift(-1)) - (shift(2) - shift(-2))
    return (out / (12.0 * grid.spacing)).reshape(values.shape)


def stencil_wavenumber(k: float, h: float) -> float:
    """Effective wavenumber of the 4th-order central stencil on spacing h:
    diff4 multiplies the Fourier mode exp(i k x) by i stencil_wavenumber(k, h)."""
    return (8.0 * math.sin(k * h) - math.sin(2.0 * k * h)) / (6.0 * h)


def to_modes(grid: Grid, values: np.ndarray,
             inverse: bool = False) -> np.ndarray:
    """(..., sites, c) values on the Fourier modes of the torus, or back from
    them: the unitary np.fft.fftn (norm="ortho") over the spatial axes. By
    Parseval it keeps every slice norm and inner product whose weight is the
    same at every site."""
    lead = values.shape[:-2]
    shaped = values.reshape(lead + (grid.points,) * grid.dim
                            + values.shape[-1:])
    axes = tuple(range(len(lead), len(lead) + grid.dim))
    fft = np.fft.ifftn if inverse else np.fft.fftn
    return fft(shaped, axes=axes, norm="ortho").reshape(values.shape)


def mode_axes(grid: Grid) -> np.ndarray:
    """theta_j = 2 pi m_j / points of every Fourier mode m, shape (dim, sites),
    modes in `to_modes` order."""
    theta = 2.0 * np.pi * np.fft.fftfreq(grid.points)
    return theta[np.indices((grid.points,) * grid.dim).reshape(grid.dim,
                                                               grid.sites)]


def stencil_symbols(grid: Grid) -> np.ndarray:
    """i sigma(theta_j), shape (dim, sites): diff4 along axis j multiplies
    Fourier mode m by it, sigma(theta) = (8 sin theta - sin 2 theta) / (6 dx)
    being stencil_wavenumber at k = theta / dx."""
    theta = mode_axes(grid)
    return 1j * ((8.0 * np.sin(theta) - np.sin(2.0 * theta))
                 / (6.0 * grid.spacing))


def diff_upwind(grid: Grid, values: np.ndarray, axis: int) -> np.ndarray:
    """First-order one-sided derivative; deliberately not skew-symmetric
    (documented failure mode for the integration-by-parts identity)."""
    v = grid.shaped(values)
    out = v - np.roll(v, 1, axis=axis)
    return grid.flat(out / grid.spacing)

