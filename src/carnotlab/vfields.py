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
    coefficients: tuple[tuple[Poly, ...], ...]

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    @property
    def count(self) -> int:
        return len(self.coefficients)

    @property
    def dim(self) -> int:
        return len(self.coefficients[0])


@cache
def left_invariant_fields(group: GroupSpec) -> VectorFieldSet:
    """The left frame of group, built once per value of the (frozen) group record."""
    return VectorFieldSet(kind="left", coefficients=group.left_field_table())


def right_invariant_fields(group: GroupSpec) -> VectorFieldSet:
    return VectorFieldSet(kind="right", coefficients=group.right_field_table())


# ---------------------------------------------------------------------------
# grid stencils
# ---------------------------------------------------------------------------

def horizontal_gradient(vf: VectorFieldSet, f: Field) -> Field:
    """(X_1 f, ..., X_m f) with centered differences for the Euclidean partials,
    second-order one-sided at the box edge."""
    h, shape = f.grid.spacings, f.grid.shape
    tables = _stencils.frame_tables(f.grid, vf)
    values = np.ascontiguousarray(f.values).reshape(-1)
    out = np.zeros((vf.count,) + shape)
    partial = np.empty(values.size)
    for l, st in enumerate(tables.strides):
        _stencils._centered_difference(values, shape, l, st, partial)
        partial /= 2.0 * h[l]
        for comp, row in zip(out, tables.coef):
            if row[l] is not None:
                comp += _stencils.times(row[l], partial.reshape(shape))
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

