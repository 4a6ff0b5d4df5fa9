"""Horizontal calculus: invariant frames and their grid stencils.

The left-invariant horizontal frame X_1..X_m and the right-invariant frame
Y_1..Y_m are polynomial vector fields derived from the group law, with
the rational coefficient tables of ``groups``; ``groups.apply_field``
applies one exactly to a polynomial, which gives the commutators,
divergences and the drift correction of the particle scheme.  Grid
routines realize

    grad_G f = (X_1 f, ..., X_m f),
    lap_G  f = sum_i X_i^2 f = div(A grad f),      A = sum_i a_i a_i^T,

the last because the frame is divergence-free, which the ``calculus``
suite checks exactly.  The gradient uses centered differences; the
Laplacian is the flux form the solvers step with,
``_stencils.flux_divergence`` at sigma = 1, with zero flux through the
box edge, so its node sum telescopes to 0.  The grid routines read the
frame from its ``_stencils.frame_tables`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _stencils
from .groups import GroupSpec, Poly, _hash_once, _state_without_hash
from .grid import Field


@dataclass(frozen=True)
class VectorFieldSet:
    """A family of polynomial vector fields: coefficients[i][l] is component l of field i."""

    kind: str
    dim: int
    coefficients: tuple[tuple[Poly, ...], ...]

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    @property
    def count(self) -> int:
        return len(self.coefficients)


@cache
def left_invariant_fields(group: GroupSpec) -> VectorFieldSet:
    """The left frame of group, built once per value of the (frozen) group record."""
    return VectorFieldSet(kind="left", dim=group.dim, coefficients=group.left_field_table())


def right_invariant_fields(group: GroupSpec) -> VectorFieldSet:
    return VectorFieldSet(kind="right", dim=group.dim, coefficients=group.right_field_table())


# ---------------------------------------------------------------------------
# grid stencils
# ---------------------------------------------------------------------------

def _partial(values: np.ndarray, h: float, l: int, st: int, out: np.ndarray) -> np.ndarray:
    """np.gradient(values, h, axis=l, edge_order=2) by numpy's formulas, into out (both
    C-contiguous): one shift of the flat array by 2 st, the stride of axis l, then the edge rows."""
    v, inner = values.reshape(-1), out.reshape(-1)[st: values.size - st]
    np.subtract(v[2 * st:], v[: v.size - 2 * st], out=inner)
    inner /= 2.0 * h
    e = [_stencils.layer(l, j) for j in (0, 1, 2, -3, -2, -1)]
    out[e[0]] = (-1.5 / h) * values[e[0]] + (2.0 / h) * values[e[1]] + (-0.5 / h) * values[e[2]]
    out[e[5]] = (0.5 / h) * values[e[3]] + (-2.0 / h) * values[e[4]] + (1.5 / h) * values[e[5]]
    return out


def horizontal_gradient(vf: VectorFieldSet, f: Field) -> Field:
    """(X_1 f, ..., X_m f) with centered differences for the Euclidean partials."""
    h = f.grid.spacings
    tables = _stencils.frame_tables(f.grid, vf)
    values = np.ascontiguousarray(f.values)
    out = np.zeros((vf.count,) + f.grid.shape)
    partial = np.empty(f.grid.shape)
    for l, st in enumerate(tables.strides):
        _partial(values, h[l], l, st, partial)
        for comp, row in zip(out, tables.coef):
            if row[l] is not None:
                comp += _stencils.times(row[l], partial)
    return Field(f.grid, out, f.t)


def horizontal_laplacian(vf: VectorFieldSet, f: Field) -> Field:
    """sum_i X_i^2 f as div(A grad f) on the face fluxes, zero flux at the box edge."""
    geom = _stencils.frame_tables(f.grid, vf)
    return Field(f.grid, _stencils.flux_divergence(f.values, geom, 1.0), f.t)


def gradient_sup(vf: VectorFieldSet, f: Field) -> float:
    """||grad_G f||_inf, the largest Euclidean length of (X_1 f, ..., X_m f);
    a length past the float range of a finite gradient is taken on g / max |g|."""
    g = horizontal_gradient(vf, f).values
    with np.errstate(over="ignore"):
        sup = float(np.sqrt((g**2).sum(axis=0)).max())
    if np.isinf(sup) and np.isfinite(g).all():
        scale = float(np.abs(g).max())
        sup = scale * float(np.sqrt(((g / scale) ** 2).sum(axis=0)).max())
    return sup


def second_gradient_sup(vf: VectorFieldSet, f: Field) -> float:
    """max_ij ||X_i X_j f||_inf via composed first-order stencils."""
    grad = horizontal_gradient(vf, f)
    worst = 0.0
    for j in range(vf.count):
        gj = Field(f.grid, grad.values[j], f.t)
        gg = horizontal_gradient(vf, gj)
        worst = max(worst, float(np.abs(gg.values).max()))
    return worst

