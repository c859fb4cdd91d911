"""Specification and validation of first-order symmetric hyperbolic systems,
their normalized evolution form, adjoint structure, and the zero-order
operator Z controlling energy growth.

Operator convention (flat product spacetime, coordinates (t, x^j)):

    S psi = A0 d_t psi + sum_j A^j D_j psi - S0 psi,

with A0, A^j Hermitian per site, A0 positive definite, and D_j the module's
4th-order central stencil. The slice inner product uses the weight beta * A0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .grids import Grid, InnerWeight, StateField, diff4, diff_upwind


class SystemError(ValueError):
    pass


def _per_site(grid: Grid, mat) -> np.ndarray:
    """Broadcast a constant fiber matrix (or accept a per-site stack)."""
    m = np.asarray(mat, dtype=complex)
    f = grid.fiber
    if m.shape == (f, f):
        return np.broadcast_to(m, (grid.sites, f, f)).copy()
    if m.shape == (grid.sites, f, f):
        return m.copy()
    raise SystemError(f"coefficient shape {m.shape} invalid for fiber {f}")


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2)))))


def _fiber_apply(m: Optional[np.ndarray], values: np.ndarray) -> np.ndarray:
    """Fiber matrices applied to values of shape (..., sites, g): `m` is None
    (identity), one (f, g) matrix, or a per-site (sites, f, g) stack."""
    if m is None:
        return values
    if m.ndim == 2:
        return values @ m.T
    return np.einsum("sfg,...sg->...sf", m, values)


def _site_constant(m: np.ndarray) -> np.ndarray:
    """One (f, f) matrix when every site holds the same one, else the stack."""
    return m[0] if np.all(m == m[0]) else m


def _compact(m: np.ndarray) -> Optional[np.ndarray]:
    """A per-site stack in the cheapest form `_fiber_apply` takes: None for
    the identity, else as `_site_constant`."""
    c = _site_constant(m)
    return None if c.ndim == 2 and np.array_equal(c, np.eye(len(c))) else c


def _read_columns(m: np.ndarray) -> Optional[np.ndarray]:
    """The fiber columns a per-site stack reads (those with a nonzero entry
    at some site), or None when it reads every column."""
    cols = np.flatnonzero(np.any(m != 0, axis=(0, 1)))
    return None if len(cols) == m.shape[-1] else cols


class StepPlan(NamedTuple):
    """The coefficients the hot path applies, each in `_fiber_apply` form.
    Spatial terms that are identically zero are dropped, and so is a zero S0."""

    A0: Optional[np.ndarray]
    A0_inv: Optional[np.ndarray]
    Aj: tuple                      # (axis, coefficient) of every live A^j
    S0: Optional[np.ndarray]       # constant-in-time S0; None if absent or 0
    reads: tuple                   # per live A^j: _read_columns of it


@dataclass(frozen=True)
class SystemSpec:
    """Coefficient data of a symmetric hyperbolic system on a periodic grid.

    S0 may be time dependent through `S0_t(t) -> (sites, f, f)`; A0 time
    dependence enters only through `dA0_dt` (the d_t A0 term of the symbol
    divergence). Coefficient callbacks must be pure.
    """

    grid: Grid
    A0: np.ndarray                    # (sites, f, f) Hermitian > 0
    Aj: tuple                         # dim arrays, (sites, f, f) Hermitian
    S0: Optional[np.ndarray] = None   # (sites, f, f) or None
    S0_t: Optional[Callable[[float], np.ndarray]] = None
    beta: Optional[np.ndarray] = None  # (sites,) positive lapse, default 1
    dA0_dt: Optional[Callable[[float], np.ndarray]] = None
    name: str = "system"
    plan: StepPlan = field(init=False, repr=False, compare=False)
    # the slice weight, built by the first `inner_weight` call
    _weight: Optional[InnerWeight] = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        g = self.grid
        object.__setattr__(self, "A0", _per_site(g, self.A0))
        object.__setattr__(self, "Aj", tuple(_per_site(g, a) for a in self.Aj))
        if len(self.Aj) != g.dim:
            raise SystemError(f"need {g.dim} spatial coefficient(s), got {len(self.Aj)}")
        if self.S0 is not None:
            object.__setattr__(self, "S0", _per_site(g, self.S0))
        b = self.beta
        if b is None:
            b = np.ones(g.sites)
        else:
            b = np.broadcast_to(np.asarray(b, dtype=float), (g.sites,)).copy()
            if np.min(b) <= 0:
                raise SystemError("lapse must be positive")
        object.__setattr__(self, "beta", b)
        coeffs = (self.A0, b) + self.Aj + (() if self.S0 is None else (self.S0,))
        if not all(np.all(np.isfinite(c)) for c in coeffs):
            raise SystemError("coefficients must be finite")
        # a coefficient that is the same at every site is checked and
        # measured once, on its one (f, f) matrix
        a0 = _site_constant(self.A0)
        if _hermiticity_defect(a0) > 1e-12:
            raise SystemError("A0 not Hermitian")
        if np.min(np.linalg.eigvalsh(a0)) <= 0:
            raise SystemError("A0 not positive definite")
        a0_inv = np.linalg.inv(a0)
        object.__setattr__(self, "_A0_inv", a0_inv if a0_inv.ndim == 3 else
                           np.broadcast_to(a0_inv, self.A0.shape).copy())
        live_S0 = self.S0 is not None and np.any(self.S0)
        live = [(j, a) for j, a in enumerate(self.Aj) if np.any(a)]
        object.__setattr__(self, "plan", StepPlan(
            A0=_compact(self.A0), A0_inv=_compact(self._A0_inv),
            Aj=tuple((j, _compact(a)) for j, a in live),
            S0=_site_constant(self.S0) if live_S0 else None,
            reads=tuple(_read_columns(a) for _, a in live)))
        # max |eigenvalue| of A0^{-1} A^j over sites and axes = signal speed
        vmax = 0.0
        for a in self.Aj:
            aj = _site_constant(a)
            m = a0_inv @ aj if a0_inv.ndim == aj.ndim == 2 \
                else self._A0_inv @ a
            ev = np.linalg.eigvals(m)
            vmax = max(vmax, float(np.max(np.abs(ev))) if ev.size else 0.0)
        object.__setattr__(self, "_v_max", vmax)

    @property
    def A0_inv(self) -> np.ndarray:
        return self._A0_inv

    @property
    def v_max(self) -> float:
        return self._v_max

    @property
    def constant_in_time(self) -> bool:
        return self.S0_t is None and self.dA0_dt is None

    def S0_at(self, t: float) -> Optional[np.ndarray]:
        if self.S0_t is not None:
            return _per_site(self.grid, self.S0_t(t))
        return self.S0


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
    metric composed with the bundle metric). Built and checked once per
    system; every call returns that one weight, with a read-only matrix."""
    if sys._weight is None:
        w = InnerWeight(sys.grid, sys.beta[:, None, None] * sys.A0, sys.beta)
        w.weight.flags.writeable = False
        object.__setattr__(sys, "_weight", w)
    return sys._weight


def _S0_apply(sys: SystemSpec, values: np.ndarray, t) -> Optional[np.ndarray]:
    """S0 psi, or None when S0 is absent; `t` is one time, or one time per
    frame when `values` is a (frames, sites, fiber) stack."""
    if sys.S0_t is None:
        return None if sys.plan.S0 is None else _fiber_apply(sys.plan.S0, values)
    if np.ndim(t) == 0:
        return _fiber_apply(sys.S0_at(t), values)
    return np.stack([_fiber_apply(sys.S0_at(float(ti)), v)
                     for ti, v in zip(t, values)])


def _spatial_terms(sys: SystemSpec, values: np.ndarray,
                   deriv: Callable = diff4) -> Iterator:
    """A^j D_j psi for every live A^j, each differentiating only the fiber
    columns its A^j reads: equal to the full product except where a zero
    column's term would add a signed zero or carry a non-finite value.
    `deriv` is D_j with diff4's signature: diff4 on site values,
    `grids.mode_diff4` on Fourier-mode values (site-constant A^j only)."""
    for (j, a), cols in zip(sys.plan.Aj, sys.plan.reads):
        if cols is None:
            yield _fiber_apply(a, deriv(sys.grid, values, j))
        else:
            yield _fiber_apply(a[..., cols],
                               deriv(sys.grid, values[..., cols], j))


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
    for term in _spatial_terms(sys, values):
        acc -= term
    return _fiber_apply(sys.plan.A0_inv, acc)


def apply_S(sys: SystemSpec, values: np.ndarray, dpsi_dt: np.ndarray,
            t, deriv: Callable = diff4) -> np.ndarray:
    """S psi given the field and its time derivative on one slice, or on a
    (frames, sites, fiber) stack with `t` holding one time per frame; on
    Fourier-mode values with `deriv` = `grids.mode_diff4` (see
    _spatial_terms)."""
    out = _fiber_apply(sys.plan.A0, dpsi_dt)
    for term in _spatial_terms(sys, values, deriv):
        out = out + term
    s0 = _S0_apply(sys, values, t)
    if s0 is not None:
        out = out - s0
    return out


def symbol_divergence(sys: SystemSpec, t: float) -> np.ndarray:
    """d_mu A^mu per site: stencil divergence of the spatial coefficients
    plus the d_t A0 callback (zero for constant-in-time A0)."""
    g = sys.grid
    f = g.fiber
    out = np.zeros((g.sites, f, f), dtype=complex)
    if sys.dA0_dt is not None:
        out += _per_site(g, sys.dA0_dt(t))
    for j, a in enumerate(sys.Aj):
        if np.all(a == a[0]):
            continue  # constant coefficient, divergence 0 exactly
        flatmat = a.reshape(g.sites, f * f)
        d = diff4(Grid(g.dim, g.extent, g.points, f * f), flatmat, j)
        out += d.reshape(g.sites, f, f)
    return out


def zero_order_matrices(sys: SystemSpec, t: float) -> np.ndarray:
    """Per-site matrix of the zero-order operator Z (it is a multiplication
    operator); used for exact norm measurement."""
    g = sys.grid
    f = g.fiber
    acc = np.zeros((g.sites, f, f), dtype=complex)
    s0 = sys.S0_at(t)
    if s0 is not None:
        acc -= s0 + np.conj(np.swapaxes(s0, 1, 2))
    acc -= symbol_divergence(sys, t)
    return sys.A0_inv @ acc


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
    if (not np.all(sys.beta == 1.0)) and any(np.any(m != m[0]) for m in sys.Aj):
        raise SystemError("nonunit lapse with variable coefficients unsupported")
    deriv = diff4 if stencil == "central4" else diff_upwind
    g = sys.grid
    s0 = sys.S0_at(t)

    sa = np.zeros_like(a.values)
    for j, m in enumerate(sys.Aj):
        sa += _fiber_apply(m, deriv(g, a.values, j))
    if s0 is not None:
        sa -= _fiber_apply(s0, a.values)

    sdb = np.zeros_like(b.values)
    for j, m in enumerate(sys.Aj):
        sdb -= _fiber_apply(m, deriv(g, b.values, j))
    sdb -= _fiber_apply(symbol_divergence(sys, t), b.values)
    if s0 is not None:
        sdb -= _fiber_apply(np.conj(np.swapaxes(s0, 1, 2)), b.values)

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
    A0 + sum_j alpha_j A^j for sampled |alpha| < 1 at every site."""
    if n_dirs < 8:
        raise SystemError("need at least 8 sampled directions")
    herm = max(_hermiticity_defect(sys.A0),
               max((_hermiticity_defect(a) for a in sys.Aj), default=0.0))
    symmetric = herm <= 1e-12

    rng = np.random.Generator(np.random.Philox(seed))
    samples = []
    hyperbolic = True
    for _ in range(n_dirs):
        alpha = rng.normal(size=sys.grid.dim)
        r = rng.uniform(0.0, 0.999)
        n = np.linalg.norm(alpha)
        alpha = alpha * (r / n) if n > 0 else alpha
        m = sys.A0.copy()
        for j, a in enumerate(sys.Aj):
            m = m + alpha[j] * a
        me = float(np.min(np.linalg.eigvalsh(m)))
        samples.append((alpha.tolist(), me))
        if me <= 0:
            hyperbolic = False

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
# JSON serialization: constant matrices inline (row-major re/im pairs),
# spatially varying coefficients as named built-in profiles.

def _matrix_to_json(m: np.ndarray) -> list:
    # constant per-site stack -> single fiber matrix, row-major [re, im] pairs
    mat = m[0]
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


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


def _coeff_to_json(m: np.ndarray, profile_meta) -> dict:
    if profile_meta is not None:
        return {"profile": profile_meta[0], "params": profile_meta[1]}
    if not np.all(m == m[0]):
        raise SystemError("spatially varying coefficient needs a named profile")
    return {"matrix": _matrix_to_json(m)}


def system_to_json(sys: SystemSpec, profiles: Optional[dict] = None) -> dict:
    """Serialize; `profiles` optionally maps 'A0'/'Aj0'.../'S0' to
    (profile_name, params) for spatially varying coefficients."""
    profiles = profiles or {}
    doc = {
        "grid": {"dim": sys.grid.dim, "extent": sys.grid.extent,
                 "points": sys.grid.points, "fiber": sys.grid.fiber},
        "A0": _coeff_to_json(sys.A0, profiles.get("A0")),
        "Aj": [_coeff_to_json(a, profiles.get(f"Aj{j}"))
               for j, a in enumerate(sys.Aj)],
        "name": sys.name,
    }
    if sys.S0 is not None:
        doc["S0"] = _coeff_to_json(sys.S0, profiles.get("S0"))
    if not np.all(sys.beta == 1.0):
        doc["beta"] = {"profile": profiles["beta"][0], "params": profiles["beta"][1]} \
            if "beta" in profiles else {"constant": float(sys.beta[0])}
    return doc


def _coeff_from_json(spec: dict, grid: Grid) -> np.ndarray:
    if "matrix" in spec:
        return _per_site(grid, _matrix_from_json(spec["matrix"], grid.fiber))
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
