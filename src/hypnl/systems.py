"""Specification and validation of first-order symmetric hyperbolic systems,
their normalized evolution form, adjoint structure, and the zero-order
operator Z controlling energy growth.

Operator convention (flat product spacetime, coordinates (t, x^j)):

    S psi = A0 d_t psi + sum_j A^j D_j psi - S0 psi,

with A0, A^j Hermitian per site, A0 positive definite, and D_j the module's
4th-order central stencil. The slice inner product uses the weight beta * A0.

Every fiber operator -- each coefficient, A0^{-1} and the slice weight -- is
held once, in the form `_fiber_apply` takes: None for the identity, one
(f, f) matrix when it is the same at every site, and a (sites, f, f) stack
only when it varies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import Grid, InnerWeight, StateField, diff4, diff_upwind


class SystemError(ValueError):
    pass


def _form(grid: Grid, mat) -> Optional[np.ndarray]:
    """A fiber operator in the form `_fiber_apply` takes, as given: None
    stays None, else one (f, f) matrix or a per-site (sites, f, f) stack."""
    if mat is None:
        return None
    m = np.asarray(mat, dtype=complex)
    f = grid.fiber
    if m.shape not in ((f, f), (grid.sites, f, f)):
        raise SystemError(f"coefficient shape {m.shape} invalid for fiber {f}")
    return m


def _hermiticity_defect(m: Optional[np.ndarray]) -> float:
    return 0.0 if m is None else \
        float(np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2)))))


def _fiber_apply(m: Optional[np.ndarray], values: np.ndarray) -> np.ndarray:
    """Fiber matrices applied to values of shape (..., sites, g): `m` is None
    (identity), one (f, g) matrix, or a per-site (sites, f, g) stack."""
    if m is None:
        return values
    if m.ndim == 2:
        return values @ m.T
    return np.einsum("sfg,...sg->...sf", m, values)


def _compact(grid: Grid, mat, eye_as_none: bool = True) -> Optional[np.ndarray]:
    """A coefficient held once, in the cheapest form `_fiber_apply` takes:
    None stays None, one (f, f) matrix when every site holds the same one
    (None for the identity if `eye_as_none`), else a copy of the stack."""
    m = _form(grid, mat)
    if m is not None and m.ndim == 3 and np.all(m == m[0]):
        m = m[0]
    if m is None or (eye_as_none and m.ndim == 2
                     and np.array_equal(m, np.eye(grid.fiber))):
        return None
    return m.copy()


def _fiber_product(a: Optional[np.ndarray],
                   b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The product a b of two fiber operators in `_fiber_apply` form."""
    if a is None:
        return b
    return a if b is None else a @ b


def _read_columns(m: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The fiber columns a coefficient reads (those with a nonzero entry at
    some site), or None when it reads every column."""
    if m is None:
        return None
    cols = np.flatnonzero(np.any(m != 0, axis=tuple(range(m.ndim - 1))))
    return None if len(cols) == m.shape[-1] else cols


def _stacked_columns(grid: Grid, aj: tuple,
                     live: tuple) -> Optional[np.ndarray]:
    """[A^j1_c1 | A^j2_c2 | ...] over the live A^j, each restricted to the
    columns c it reads, in `_fiber_apply` form: one (f, sum |c|) matrix, a
    per-site stack when some A^j varies by site, None when there is no live
    A^j or the one live A^j is the identity."""
    if not live:
        return None
    if len(live) == 1 and live[0][1] is None:
        return aj[live[0][0]]
    blocks = [np.eye(grid.fiber) if aj[j] is None else aj[j] for j, _ in live]
    blocks = [m if c is None else m[..., c] for m, (_, c) in zip(blocks, live)]
    if any(m.ndim == 3 for m in blocks):
        blocks = [np.broadcast_to(m, (grid.sites,) + m.shape[-2:])
                  for m in blocks]
    return np.concatenate(blocks, axis=-1)


@dataclass(frozen=True)
class SystemSpec:
    """Coefficient data of a symmetric hyperbolic system on a periodic grid.

    Every fiber operator (A0, A0_inv, each A^j, S0) is held once, in the
    form `_fiber_apply` takes: None for the identity (None for S0: absent
    or zero), one (f, f) matrix when it is the same at every site, else a
    per-site (sites, f, f) stack. The constructor takes A0, A^j and S0 in
    any of these forms.

    S0 may be time dependent through `S0_t(t) -> (f, f) or (sites, f, f)`;
    A0 time dependence enters only through `dA0_dt` (the d_t A0 term of the
    symbol divergence). Coefficient callbacks must be pure.
    """

    grid: Grid
    A0: Optional[np.ndarray]          # Hermitian > 0
    Aj: tuple                         # dim coefficients, Hermitian
    S0: Optional[np.ndarray] = None
    S0_t: Optional[Callable[[float], np.ndarray]] = None
    beta: Optional[np.ndarray] = None  # (sites,) positive lapse, default 1
    dA0_dt: Optional[Callable[[float], np.ndarray]] = None
    name: str = "system"
    A0_inv: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    # (axis, _read_columns) of every A^j that is not identically zero
    live: tuple = field(init=False, repr=False, compare=False)
    # [A^j1_c1 | A^j2_c2 | ...]: each live A^j restricted to the columns it
    # reads, side by side, in `_fiber_apply` form (see _spatial_product)
    spatial: Optional[np.ndarray] = field(init=False, repr=False,
                                          compare=False)
    v_max: float = field(init=False, repr=False, compare=False)  # signal speed
    # the slice weight, built by the first `inner_weight` call
    _weight: Optional[InnerWeight] = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        g = self.grid
        if len(self.Aj) != g.dim:
            raise SystemError(f"need {g.dim} spatial coefficient(s), got {len(self.Aj)}")
        a0 = _compact(g, self.A0)
        aj = tuple(_compact(g, a) for a in self.Aj)
        s0 = _compact(g, self.S0, eye_as_none=False)
        b = self.beta
        if b is None:
            b = np.ones(g.sites)
        else:
            b = np.broadcast_to(np.asarray(b, dtype=float), (g.sites,)).copy()
            if np.min(b) <= 0:
                raise SystemError("lapse must be positive")
        if not all(c is None or np.all(np.isfinite(c))
                   for c in (a0, b, s0) + aj):
            raise SystemError("coefficients must be finite")
        if _hermiticity_defect(a0) > 1e-12:
            raise SystemError("A0 not Hermitian")
        if a0 is not None and np.min(np.linalg.eigvalsh(a0)) <= 0:
            raise SystemError("A0 not positive definite")
        a0_inv = None if a0 is None else np.linalg.inv(a0)
        object.__setattr__(self, "A0", a0)
        object.__setattr__(self, "A0_inv", a0_inv)
        object.__setattr__(self, "Aj", aj)
        object.__setattr__(self, "S0", s0 if s0 is not None and np.any(s0)
                           else None)
        object.__setattr__(self, "beta", b)
        live = tuple((j, _read_columns(a)) for j, a in enumerate(aj)
                     if a is None or np.any(a))
        object.__setattr__(self, "live", live)
        object.__setattr__(self, "spatial", _stacked_columns(g, aj, live))
        # max |eigenvalue| of A0^{-1} A^j over sites and axes = signal speed
        vmax = 0.0
        for a in aj:
            m = _fiber_product(a0_inv, a)
            ev = np.linalg.eigvals(np.eye(g.fiber) if m is None else m)
            vmax = max(vmax, float(np.max(np.abs(ev))) if ev.size else 0.0)
        object.__setattr__(self, "v_max", vmax)

    @property
    def constant_in_time(self) -> bool:
        return self.S0_t is None and self.dA0_dt is None

    def S0_at(self, t: float) -> Optional[np.ndarray]:
        """S0 at time t in `_fiber_apply` form (None when absent)."""
        return self.S0 if self.S0_t is None else _form(self.grid, self.S0_t(t))


def make_system(grid: Grid, A0, Aj: Sequence, S0=None, S0_t=None, beta=None,
                dA0_dt=None, name: str = "system") -> SystemSpec:
    return SystemSpec(grid=grid, A0=A0, Aj=tuple(Aj), S0=S0, S0_t=S0_t,
                      beta=beta, dA0_dt=dA0_dt, name=name)


def transport_system(grid: Grid, speed: float = 1.0, name: str = "transport") -> SystemSpec:
    """Scalar advection d_t psi + speed d_x psi = source (A0=1, A1=speed)."""
    if grid.fiber != 1:
        raise SystemError("transport system is scalar")
    one = np.ones((1, 1))
    return make_system(grid, one, [speed * one] * grid.dim, name=name)


def ode_system(grid: Grid, S0, name: str = "ode") -> SystemSpec:
    """No spatial principal part: d_t psi = A0^{-1} S0 psi + source."""
    f = grid.fiber
    eye = np.eye(f)
    return make_system(grid, eye, [np.zeros((f, f))] * grid.dim, S0=S0, name=name)


def inner_weight(sys: SystemSpec) -> InnerWeight:
    """Slice weight beta * A0 (the time symbol of the conformally scaled
    metric composed with the bundle metric), in `_fiber_apply` form: None
    when beta = 1 and A0 = I, one (f, f) matrix when beta and A0 are the
    same at every site (with beta = 1, A0 itself). Built and checked once
    per system; every call returns that one weight, with a read-only
    matrix."""
    if sys._weight is None:
        b, w = sys.beta, sys.A0
        if not np.all(b == 1.0):
            scale = b[0] if np.all(b == b[0]) else b[:, None, None]
            w = scale * (np.eye(sys.grid.fiber) if w is None else w)
        w = InnerWeight(sys.grid, w)
        if w.weight is not None:
            w.weight.flags.writeable = False
        object.__setattr__(sys, "_weight", w)
    return sys._weight


def _S0_apply(sys: SystemSpec, values: np.ndarray, t) -> Optional[np.ndarray]:
    """S0 psi, or None when S0 is absent; `t` is one time, or one time per
    frame when `values` is a (frames, sites, fiber) stack."""
    if sys.S0_t is None:
        return None if sys.S0 is None else _fiber_apply(sys.S0, values)
    if np.ndim(t) == 0:
        return _fiber_apply(sys.S0_at(t), values)
    return np.stack([_fiber_apply(sys.S0_at(float(ti)), v)
                     for ti, v in zip(t, values)])


def _spatial_product(sys: SystemSpec,
                     values: np.ndarray) -> Optional[np.ndarray]:
    """sum_j A^j D_j psi as one product: D_j of the fiber columns each live
    A^j reads, side by side, times `sys.spatial`; None when no A^j is live.
    Equal to the sum of the full products up to the order of the sum (one
    term, as on one axis, is bitwise equal), except where a zero column's
    term would add a signed zero or carry a non-finite value."""
    if not sys.live:
        return None
    parts = [diff4(sys.grid, values if cols is None else values[..., cols], j)
             for j, cols in sys.live]
    return _fiber_apply(sys.spatial, parts[0] if len(parts) == 1
                        else np.concatenate(parts, axis=-1))


def evolution_rhs(sys: SystemSpec, values: np.ndarray, t: float,
                  source: Optional[np.ndarray] = None) -> np.ndarray:
    """Method-of-lines right-hand side of S psi = source:

        d_t psi = A0^{-1} (source + S0 psi - sum_j A^j D_j psi).
    """
    acc = np.zeros_like(values)
    if source is not None:
        acc += source
    s0 = _S0_apply(sys, values, t)
    if s0 is not None:
        acc += s0
    spatial = _spatial_product(sys, values)
    if spatial is not None:
        acc -= spatial
    return _fiber_apply(sys.A0_inv, acc)


def apply_S(sys: SystemSpec, values: np.ndarray, dpsi_dt: np.ndarray,
            t) -> np.ndarray:
    """S psi given the field and its time derivative on one slice, or on a
    (frames, sites, fiber) stack with `t` holding one time per frame."""
    out = _fiber_apply(sys.A0, dpsi_dt)
    spatial = _spatial_product(sys, values)
    if spatial is not None:
        out = out + spatial
    s0 = _S0_apply(sys, values, t)
    if s0 is not None:
        out = out - s0
    return out


def symbol_divergence(sys: SystemSpec, t: float) -> np.ndarray:
    """d_mu A^mu: stencil divergence of the site-varying spatial
    coefficients plus the d_t A0 callback, as one (f, f) matrix (zero for
    site-constant A^j and constant-in-time A0) or a per-site stack."""
    g = sys.grid
    f = g.fiber
    out = np.zeros((f, f), dtype=complex)
    if sys.dA0_dt is not None:
        out = out + _form(g, sys.dA0_dt(t))
    for j, a in enumerate(sys.Aj):
        if a is None or a.ndim == 2:
            continue  # constant coefficient, divergence 0 exactly
        d = diff4(Grid(g.dim, g.extent, g.points, f * f),
                  a.reshape(g.sites, f * f), j)
        out = out + d.reshape(g.sites, f, f)
    return out


def zero_order_matrices(sys: SystemSpec, t: float) -> np.ndarray:
    """Matrix of the zero-order operator Z (it is a multiplication
    operator), as one (f, f) matrix or a per-site stack; used for exact
    norm measurement."""
    acc = -symbol_divergence(sys, t)
    s0 = sys.S0_at(t)
    if s0 is not None:
        acc = acc - (s0 + np.conj(np.swapaxes(s0, -1, -2)))
    return _fiber_product(sys.A0_inv, acc)


def _plain_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.einsum("sf,sf->", np.conj(a), b)) * grid.cell_volume


def adjoint_defect(sys: SystemSpec, a: StateField, b: StateField, t: float,
                   stencil: str = "central4") -> float:
    """|<S a, b> - <a, S^dagger b>| for the spatial part of S at fixed t,
    with the plain lattice inner product and the closed-form adjoint

        S^dagger b = -sum_j A^j D_j b - (d_j A^j) b - S0^dagger b.

    With the skew-symmetric central stencil and constant coefficients the
    identity is exact to round-off; the one-sided stencil option exhibits the
    documented O(dx) failure."""
    if (not np.all(sys.beta == 1.0)) and any(m is not None and m.ndim == 3
                                             for m in sys.Aj):
        raise SystemError("nonunit lapse with variable coefficients unsupported")
    deriv = diff4 if stencil == "central4" else diff_upwind
    g = sys.grid
    s0 = sys.S0_at(t)

    sa, sdb = np.zeros_like(a.values), np.zeros_like(b.values)
    for j, m in enumerate(sys.Aj):
        sa += _fiber_apply(m, deriv(g, a.values, j))
        sdb -= _fiber_apply(m, deriv(g, b.values, j))
    sdb -= _fiber_apply(symbol_divergence(sys, t), b.values)
    if s0 is not None:
        sa -= _fiber_apply(s0, a.values)
        sdb -= _fiber_apply(np.conj(np.swapaxes(s0, -1, -2)), b.values)

    return abs(_plain_inner(g, sa, b.values) - _plain_inner(g, a.values, sdb))


@dataclass
class ValidationReport:
    symmetric: bool
    hyperbolic: bool
    min_eig_samples: list          # (alpha vector, min eigenvalue) pairs
    adjoint_defect: float

    @property
    def ok(self) -> bool:
        return self.symmetric and self.hyperbolic


def validate_system(sys: SystemSpec, n_dirs: int = 16, seed: int = 0) -> ValidationReport:
    """Check Hermiticity of the coefficients and positive definiteness of
    A0 + sum_j alpha_j A^j for sampled |alpha| < 1 at every site (one
    eigvalsh call; on one (f, f) matrix per direction when every
    coefficient is the same at every site)."""
    if n_dirs < 8:
        raise SystemError("need at least 8 sampled directions")
    herm = max(_hermiticity_defect(sys.A0),
               max((_hermiticity_defect(a) for a in sys.Aj), default=0.0))
    symmetric = herm <= 1e-12

    rng = np.random.Generator(np.random.Philox(seed))
    alphas = []
    for _ in range(n_dirs):
        alpha = rng.normal(size=sys.grid.dim)
        r = rng.uniform(0.0, 0.999)
        n = np.linalg.norm(alpha)
        alphas.append(alpha * (r / n) if n > 0 else alpha)
    # every direction's matrices in one stack, (n_dirs, 1 or sites, f, f)
    eye = np.eye(sys.grid.fiber)
    m = eye if sys.A0 is None else sys.A0
    for j, a in enumerate(sys.Aj):
        m = m + np.array([al[j] for al in alphas])[:, None, None, None] \
            * (eye if a is None else a)
    min_eigs = np.min(np.linalg.eigvalsh(m), axis=(1, 2))
    samples = [(al.tolist(), float(me)) for al, me in zip(alphas, min_eigs)]
    hyperbolic = all(me > 0 for _, me in samples)

    g = sys.grid
    rng2 = np.random.Generator(np.random.Philox(seed + 1))
    av = rng2.normal(size=(g.sites, g.fiber)) + 1j * rng2.normal(size=(g.sites, g.fiber))
    bv = rng2.normal(size=(g.sites, g.fiber)) + 1j * rng2.normal(size=(g.sites, g.fiber))
    try:
        defect = adjoint_defect(sys, StateField(g, 0.0, av), StateField(g, 0.0, bv), 0.0)
    except SystemError:
        defect = math.nan
    return ValidationReport(symmetric=symmetric, hyperbolic=hyperbolic,
                            min_eig_samples=samples, adjoint_defect=defect)


# ---------------------------------------------------------------------------
# JSON reading: constant matrices inline (row-major [re, im] pairs),
# spatially varying coefficients as named built-in profiles.

def _matrix_from_json(spec, f: int) -> np.ndarray:
    m = np.array([[complex(c[0], c[1]) for c in row] for row in spec])
    if m.shape != (f, f):
        raise SystemError(f"matrix shape {m.shape} != ({f}, {f})")
    return m


def _profile_offset_sin(grid: Grid, c0: float, c1: float, k: float) -> np.ndarray:
    x = grid.coords()[:, 0]
    # parameters that overflow give non-finite values, which SystemSpec
    # rejects as coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        vals = c0 + c1 * np.sin(k * x)
        return vals[:, None, None] * np.eye(grid.fiber)


PROFILES = {"offset_sin": _profile_offset_sin}


def _coeff_from_json(spec: dict, grid: Grid) -> np.ndarray:
    if "matrix" in spec:
        return _matrix_from_json(spec["matrix"], grid.fiber)
    if "profile" in spec:
        name = spec["profile"]
        if name not in PROFILES:
            raise SystemError(f"unknown coefficient profile {name!r}")
        return PROFILES[name](grid, **spec["params"])
    raise SystemError(f"coefficient spec needs 'matrix' or 'profile': {spec}")


def system_from_json(doc: dict) -> SystemSpec:
    g = doc["grid"]
    grid = Grid(int(g["dim"]), float(g["extent"]), int(g["points"]), int(g["fiber"]))
    A0 = _coeff_from_json(doc["A0"], grid)
    Aj = [_coeff_from_json(a, grid) for a in doc["Aj"]]
    S0 = _coeff_from_json(doc["S0"], grid) if "S0" in doc else None
    beta = None
    if "beta" in doc:
        b = doc["beta"]
        beta = np.full(grid.sites, float(b["constant"])) if "constant" in b \
            else PROFILES[b["profile"]](grid, **b["params"])[:, 0, 0].real
    return make_system(grid, A0, Aj, S0=S0, beta=beta,
                       name=doc.get("name", "system"))
