"""Horizontal calculus: invariant frames and their grid stencils.

The left-invariant horizontal frame X_1..X_m and the right-invariant frame
Y_1..Y_m are polynomial vector fields derived from the group law.  Their
exact action on expressions (commutators, divergences, the drift
correction of the particle scheme) lives in ``symbolic``, the one module
that imports sympy, so loading the frames loads no sympy.  Grid routines
realize

    grad_G f = (X_1 f, ..., X_m f),
    div_G  F = sum_i X_i F_i,
    lap_G  f = sum_i X_i^2 f = sum_{kl} A_kl d_k d_l f + sum_l c_l d_l f,

with A = sum_i a_i a_i^T, c_l = sum_i (a_i . grad) a_il, centered
second-order stencils for pure derivatives and the 4-point cross stencil
for mixed ones.  The grid routines read the frame from its
``_stencils.frame_tables`` entry, the Laplacian its A_kl too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _stencils
from .groups import GroupSpec, Poly, eval_poly, poly_diff, poly_is_zero
from .grid import Field, GridSpec, node_coordinates, node_points


@dataclass(frozen=True)
class VectorFieldSet:
    """A family of polynomial vector fields: coefficients[i][l] is component l of field i."""

    kind: str
    dim: int
    coefficients: tuple[tuple[Poly, ...], ...]

    @property
    def count(self) -> int:
        return len(self.coefficients)


def left_invariant_fields(group: GroupSpec) -> VectorFieldSet:
    return VectorFieldSet(kind="left", dim=group.dim, coefficients=group.left_field_table())


def right_invariant_fields(group: GroupSpec) -> VectorFieldSet:
    return VectorFieldSet(kind="right", dim=group.dim, coefficients=group.right_field_table())


def coordinate_field(dim: int, axis: int) -> VectorFieldSet:
    """The plain Euclidean partial d/dx_axis, as a one-field set (diagnostics)."""
    one: Poly = ((Fraction(1), tuple(0 for _ in range(dim))),)
    zero: Poly = ()
    comps = tuple(one if l == axis else zero for l in range(dim))
    return VectorFieldSet(kind="coordinate", dim=dim, coefficients=(comps,))


# ---------------------------------------------------------------------------
# grid stencils
# ---------------------------------------------------------------------------

def _axis_gradient(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    return np.gradient(values, h, axis=axis, edge_order=2)


def _second_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    # one-sided second-order stencils at the box edges
    o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return out


def _mixed_derivative(values: np.ndarray, h1: float, h2: float, ax1: int, ax2: int) -> np.ndarray:
    # nested first derivatives fill the edges, interior overwritten by the
    # standard 4-point cross stencil
    out = _axis_gradient(_axis_gradient(values, h2, ax2), h1, ax1)
    n1, n2 = values.shape[ax1], values.shape[ax2]
    v = np.moveaxis(np.moveaxis(values, ax1, 0), ax2, 1)
    o = np.moveaxis(np.moveaxis(out, ax1, 0), ax2, 1)
    o[1 : n1 - 1, 1 : n2 - 1] = (
        v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]
    ) / (4.0 * h1 * h2)
    return out


def horizontal_gradient(vf: VectorFieldSet, f: Field) -> Field:
    """(X_1 f, ..., X_m f) with centered differences for the Euclidean partials."""
    h = f.grid.spacings
    coef = _stencils.frame_tables(f.grid, vf).kernel.coef
    partials = [_axis_gradient(f.values, h[l], l) for l in range(f.grid.dim)]
    out = np.zeros((vf.count,) + f.grid.shape)
    for comp, row in zip(out, coef):
        for l, c in enumerate(row):
            if c is not None:
                comp += _stencils.times(c, partials[l])
    return Field(f.grid, out, f.t)


def horizontal_laplacian(vf: VectorFieldSet, f: Field) -> Field:
    """Expanded form sum_kl A_kl d_k d_l + sum_l c_l d_l on the grid."""
    grid = f.grid
    h = grid.spacings
    coef = _stencils.frame_tables(grid, vf).kernel.coef
    out = np.zeros(grid.shape)
    for k in range(grid.dim):
        Akk = _stencils._products(coef, k, k)
        if Akk is not None:
            out += Akk * _second_derivative(f.values, h[k], k)
        for l in range(k + 1, grid.dim):
            Akl = _stencils._products(coef, k, l)
            if Akl is not None:
                out += 2.0 * Akl * _mixed_derivative(f.values, h[k], h[l], k, l)
    coords = node_coordinates(grid)
    for l in range(grid.dim):
        c = None
        for i, row in enumerate(coef):
            for k, aik in enumerate(row):
                dail = poly_diff(vf.coefficients[i][l], k)
                if aik is not None and not poly_is_zero(dail):
                    term = aik * eval_poly(dail, coords)
                    c = term if c is None else c + term
        if c is not None:
            out += c * _axis_gradient(f.values, h[l], l)
    return Field(grid, out, f.t)


def horizontal_divergence(vf: VectorFieldSet, F: Field) -> Field:
    """sum_i X_i F_i for an m-vector field."""
    if not F.is_vector or F.values.shape[0] != vf.count:
        raise ValueError("expected one component per field in the set")
    grid = F.grid
    h = grid.spacings
    coef = _stencils.frame_tables(grid, vf).kernel.coef
    out = np.zeros(grid.shape)
    for i, row in enumerate(coef):
        for l, c in enumerate(row):
            if c is not None:
                out += _stencils.times(c, _axis_gradient(F.values[i], h[l], l))
    return Field(grid, out, F.t)


def gradient_sup(vf: VectorFieldSet, f: Field) -> float:
    """||grad_G f||_inf, the largest Euclidean length of (X_1 f, ..., X_m f)."""
    g = horizontal_gradient(vf, f).values
    return float(np.sqrt((g**2).sum(axis=0)).max())


def second_gradient_sup(vf: VectorFieldSet, f: Field) -> float:
    """max_ij ||X_i X_j f||_inf via composed first-order stencils."""
    grad = horizontal_gradient(vf, f)
    worst = 0.0
    for j in range(vf.count):
        gj = Field(f.grid, grad.values[j], f.t)
        gg = horizontal_gradient(vf, gj)
        worst = max(worst, float(np.abs(gg.values).max()))
    return worst


def holder_seminorm(
    f: Field,
    alpha: float,
    group: GroupSpec,
    *,
    rng: np.random.Generator | None = None,
) -> float:
    """Sampled-pair estimate of sup |f(x)-f(y)| / rho(x,y)^alpha.

    All axis-neighbor pairs enter (they dominate for alpha <= 1 on smooth
    data), topped up, when rng is given, with 20000 random long-range
    pairs.
    """
    from . import groups as G

    grid = f.grid
    vals = f.values.reshape(-1)
    pts = node_points(grid)
    best = 0.0
    idx = np.arange(grid.num_nodes).reshape(grid.shape)
    for ax in range(grid.dim):
        a = np.moveaxis(idx, ax, 0)[:-1].reshape(-1)
        b = np.moveaxis(idx, ax, 0)[1:].reshape(-1)
        dist = G.quasi_distance(group, pts[a], pts[b])
        ratio = np.abs(vals[a] - vals[b]) / dist**alpha
        best = max(best, float(ratio.max()))
    if rng is not None:
        a = rng.integers(0, grid.num_nodes, size=20000)
        b = rng.integers(0, grid.num_nodes, size=20000)
        keep = a != b
        a, b = a[keep], b[keep]
        dist = G.quasi_distance(group, pts[a], pts[b])
        ratio = np.abs(vals[a] - vals[b]) / dist**alpha
        if ratio.size:
            best = max(best, float(ratio.max()))
    return best
