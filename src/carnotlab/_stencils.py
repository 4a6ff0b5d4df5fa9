"""Conservative face-flux discretization of div(sigma A grad rho + rho Btilde).

Because the horizontal frame is divergence-free, sigma lap_G rho +
div_G(b rho) equals the Euclidean divergence of the flux

    F = sigma A(x) grad rho + rho Btilde(x),      Btilde = sum_i b_i a_i,

so an explicit finite-volume step with face fluxes conserves the total
integral structurally: interior flux differences telescope and the box
boundary carries zero flux.  Normal derivatives at a face use the two
adjacent nodes; tangential derivatives average the centered node gradients
of the two adjacent nodes; the advective part upwinds on the donor cell
with respect to the transport velocity -Btilde.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, eval_poly
from .grid import GridSpec
from .vfields import VectorFieldSet, _all_zero


@dataclass
class FaceGeometry:
    """Per-direction face-midpoint coefficient arrays for one (group, grid) pair."""

    grid: GridSpec
    # A[k][l]: array on k-faces (axis k shortened by one), or None when identically 0
    A: list[list[np.ndarray | None]]
    # a[k][i]: component k of frame field i on k-faces, or None when identically 0
    a_face: list[list[np.ndarray | None]]


# keyed by the value of the group: two laws may share a name
_GEOM_CACHE: dict[tuple, FaceGeometry] = {}


def face_geometry(grid: GridSpec, group: GroupSpec, vf: VectorFieldSet) -> FaceGeometry:
    key = (grid, group, vf.kind)
    got = _GEOM_CACHE.get(key)
    if got is not None:
        return got
    d = grid.dim
    axes = grid.axes()
    h = grid.spacings
    A: list[list[np.ndarray | None]] = []
    a_face: list[list[np.ndarray | None]] = []
    for k in range(d):
        face_axes = list(axes)
        face_axes[k] = axes[k][:-1] + 0.5 * h[k]
        coords = np.meshgrid(*face_axes, indexing="ij")
        ai = []
        for i in range(vf.count):
            ai.append([None if _all_zero(vf.coefficients[i][l]) else eval_poly(vf.coefficients[i][l], coords) for l in range(d)])
        rowA: list[np.ndarray | None] = []
        for l in range(d):
            acc = None
            for i in range(vf.count):
                if ai[i][k] is None or ai[i][l] is None:
                    continue
                term = ai[i][k] * ai[i][l]
                acc = term if acc is None else acc + term
            rowA.append(acc)
        A.append(rowA)
        a_face.append([ai[i][k] for i in range(vf.count)])
    got = FaceGeometry(grid=grid, A=A, a_face=a_face)
    _GEOM_CACHE[key] = got
    return got


def _face_slices(k: int, d: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    lo = tuple(slice(None, -1) if ax == k else slice(None) for ax in range(d))
    hi = tuple(slice(1, None) if ax == k else slice(None) for ax in range(d))
    return lo, hi


def flux_divergence(
    values: np.ndarray,
    geom: FaceGeometry,
    sigma: float,
    b_values: np.ndarray | None = None,
) -> np.ndarray:
    """div of the face flux; zero flux through the box boundary.

    b_values, when given, holds the m frame coefficients at nodes with
    shape (m, *grid.shape) or a constant (m,) vector.
    """
    grid = geom.grid
    d = grid.dim
    h = grid.spacings
    node_grads = None
    if sigma > 0:
        node_grads = [np.gradient(values, h[l], axis=l, edge_order=2) for l in range(d)]
    out = np.zeros_like(values)
    for k in range(d):
        lo, hi = _face_slices(k, d)
        flux = None
        if sigma > 0:
            for l in range(d):
                Akl = geom.A[k][l]
                if Akl is None:
                    continue
                if l == k:
                    dval = (values[hi] - values[lo]) / h[k]
                else:
                    dval = 0.5 * (node_grads[l][lo] + node_grads[l][hi])
                term = sigma * Akl * dval
                flux = term if flux is None else flux + term
        if b_values is not None:
            bt = None
            for i in range(len(geom.a_face[k])):
                aik = geom.a_face[k][i]
                if aik is None:
                    continue
                bi = b_values[i]
                bi_face = bi if np.ndim(bi) == 0 else 0.5 * (bi[lo] + bi[hi])
                term = bi_face * aik
                bt = term if bt is None else bt + term
            if bt is not None:
                # donor cell: transport velocity is -Btilde, so positive
                # Btilde moves mass toward smaller k-index
                adv = np.where(bt > 0, values[hi], values[lo]) * bt
                flux = adv if flux is None else flux + adv
        if flux is None:
            continue
        pad = [(0, 0)] * d
        pad[k] = (1, 1)
        padded = np.pad(flux, pad)
        out += (padded[hi_full(k, d)] - padded[lo_full(k, d)]) / h[k]
    return out


def lo_full(k: int, d: int) -> tuple[slice, ...]:
    return tuple(slice(None, -1) if ax == k else slice(None) for ax in range(d))


def hi_full(k: int, d: int) -> tuple[slice, ...]:
    return tuple(slice(1, None) if ax == k else slice(None) for ax in range(d))
