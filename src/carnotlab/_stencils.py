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

Everything the explicit steppers read about one frame on one grid is a
``FrameTables`` entry of ``_GEOM_CACHE``, keyed by ``(grid, vf)``.  A
``VectorFieldSet`` is a frozen tuple of polynomials, so the key holds the
value of the frame, not the name of its group: two laws that share a name
never share an entry.  An entry holds

* ``a[i][l]``: component l of field i at the nodes, None where the
  polynomial is 0 (read by ``grid.max_stable_dt``,
  ``hamilton_jacobi.godunov_gradient`` and the horizontal gradient and
  divergence of ``vfields``);
* the face geometry ``A[k][l]`` and ``a_face[k][i]`` on k-faces, read by
  ``flux_divergence``;
* ``diffusion``: the diffusion part of the CFL denominator at sigma = 1,
  sum_k A_kk/h_k^2 + sum_{k != l} |A_kl|/(2 h_k h_l), and its maximum.

Each part is evaluated on first use and shared from then on, so its
arrays are read-only.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .groups import eval_poly, poly_is_zero
from .grid import GridSpec, node_coordinates

if TYPE_CHECKING:
    from .vfields import VectorFieldSet

Table = list[list[np.ndarray | None]]


def _read_only(arr: np.ndarray | None) -> np.ndarray | None:
    if arr is not None:
        arr.setflags(write=False)
    return arr


def _evaluate(vf: VectorFieldSet, coords) -> Table:
    """vf's coefficient polynomials on coordinate arrays; None where a polynomial is 0."""
    return [
        [None if poly_is_zero(p) else _read_only(eval_poly(p, coords)) for p in field]
        for field in vf.coefficients
    ]


def _products(a: Table, k: int, l: int) -> np.ndarray | None:
    """sum_i a[i][k] a[i][l], or None when every product vanishes."""
    acc = None
    for ai in a:
        if ai[k] is None or ai[l] is None:
            continue
        term = ai[k] * ai[l]
        acc = term if acc is None else acc + term
    return acc


class FrameTables:
    """Node and face tables of one frame on one grid (see the module docstring)."""

    def __init__(self, grid: GridSpec, vf: VectorFieldSet):
        self.grid = grid
        self.vf = vf

    @cached_property
    def a(self) -> Table:
        return _evaluate(self.vf, node_coordinates(self.grid))

    @cached_property
    def _faces(self) -> tuple[Table, Table]:
        grid = self.grid
        d = grid.dim
        axes = grid.axes()
        h = grid.spacings
        A: Table = []
        a_face: Table = []
        for k in range(d):
            face_axes = list(axes)
            face_axes[k] = axes[k][:-1] + 0.5 * h[k]
            ai = _evaluate(self.vf, np.meshgrid(*face_axes, indexing="ij"))
            A.append([_read_only(_products(ai, k, l)) for l in range(d)])
            a_face.append([field[k] for field in ai])
        return A, a_face

    @property
    def A(self) -> Table:
        """A[k][l] on k-faces (axis k shortened by one), or None when identically 0."""
        return self._faces[0]

    @property
    def a_face(self) -> Table:
        """a_face[k][i]: component k of field i on k-faces, or None when identically 0."""
        return self._faces[1]

    @cached_property
    def diffusion(self) -> np.ndarray:
        h = self.grid.spacings
        d = self.grid.dim
        out = np.zeros(self.grid.shape)
        for k in range(d):
            for l in range(d):
                akl = _products(self.a, k, l)
                if akl is None:
                    continue
                if k == l:
                    out += akl / h[k] ** 2
                else:
                    out += np.abs(akl) / (2.0 * h[k] * h[l])
        return _read_only(out)

    @cached_property
    def diffusion_max(self) -> float:
        return float(self.diffusion.max())


_GEOM_CACHE: dict[tuple, FrameTables] = {}


def frame_tables(grid: GridSpec, vf: VectorFieldSet) -> FrameTables:
    """The shared tables of vf on grid, keyed by value."""
    key = (grid, vf)
    got = _GEOM_CACHE.get(key)
    if got is None:
        got = _GEOM_CACHE[key] = FrameTables(grid, vf)
    return got


def _face_slices(k: int, d: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    lo = tuple(slice(None, -1) if ax == k else slice(None) for ax in range(d))
    hi = tuple(slice(1, None) if ax == k else slice(None) for ax in range(d))
    return lo, hi


def flux_divergence(
    values: np.ndarray,
    geom: FrameTables,
    sigma: float,
    b_values: np.ndarray | None = None,
) -> np.ndarray:
    """div of the face flux; zero flux through the box boundary.

    b_values, when given, holds the m frame coefficients at nodes with
    shape (m, *grid.shape) or a constant (m,) vector.  Centered node
    gradients are taken only along the axes an off-diagonal A[k][l]
    needs.  Each k-face flux enters once with each sign, + at its lower
    node and - at its upper one, and no flux crosses the box boundary, so
    the divergence telescopes exactly.
    """
    grid = geom.grid
    d = grid.dim
    h = grid.spacings
    grads: dict[int, np.ndarray] = {}
    out = np.zeros_like(values)
    diff = None
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
                    g = grads.get(l)
                    if g is None:
                        g = grads[l] = np.gradient(values, h[l], axis=l, edge_order=2)
                    dval = 0.5 * (g[lo] + g[hi])
                term = sigma * Akl * dval
                if flux is None:
                    flux = term
                else:
                    flux += term
        if b_values is not None:
            bt = None
            for i, aik in enumerate(geom.a_face[k]):
                if aik is None:
                    continue
                bi = b_values[i]
                bi_face = bi if np.ndim(bi) == 0 else 0.5 * (bi[lo] + bi[hi])
                term = bi_face * aik
                if bt is None:
                    bt = term
                else:
                    bt += term
            if bt is not None:
                # donor cell: transport velocity is -Btilde, so positive
                # Btilde moves mass toward smaller k-index
                adv = np.where(bt > 0, values[hi], values[lo]) * bt
                if flux is None:
                    flux = adv
                else:
                    flux += adv
        if flux is None:
            continue
        # node j gains (F[j] - F[j-1]) / h_k, with F = 0 beyond the box
        if diff is None:
            diff = np.empty_like(values)
        diff[lo] = flux
        diff[tuple(slice(-1, None) if ax == k else slice(None) for ax in range(d))] = 0.0
        diff[hi] -= flux
        diff /= h[k]
        out += diff
    return out
