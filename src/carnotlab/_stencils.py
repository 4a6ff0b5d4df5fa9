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

There are two explicit steps, ``fokker_planck.fp_step`` (the heat step
is this step without drift) and ``hamilton_jacobi.hj_step_direct``;
``vfields.horizontal_laplacian`` is the same divergence at sigma = 1
without drift, so the calculus suite certifies the operator they step with.
Everything they read about one frame on one grid is one ``FrameTables``
record, built once per value of ``(grid, vf)`` by ``frame_tables``.  A
``VectorFieldSet`` is a frozen tuple of polynomials, so the key holds the
value of the frame, not the name of its group: two laws that share a name
never share a record.

In exponential coordinates every first-layer coefficient of a Carnot
frame is the constant 1, so a good part of every table is constant.  In
the record a coefficient whose polynomial is constant is therefore a
Python float, and every other one a read-only array:

* ``coef[i][l]``: component l of field i at the nodes, None where the
  polynomial is 0 (read by ``grid.max_stable_dt``,
  ``hamilton_jacobi.godunov_gradient`` and the horizontal gradient and
  divergence of ``vfields``);
* ``upwind[i][l]``: the sign split (``coef[i][l] > 0``, ``coef[i][l] <= 0``)
  of each array coefficient, read by ``godunov_gradient`` to pick the
  upwind side node by node;
* the face tables of ``flux_divergence``, which both steps and the
  horizontal Laplacian call, sigma-free and pre-scaled by the grid
  spacings: ``diag[k]`` = A_kk/h_k^2, ``cross[k]`` = (l, A_kl/(4 h_k h_l))
  for l != k and ``drift[k]`` = (i, a_ik/h_k), all on k-faces, with
  A = sum_i a_i a_i^T.
  A k-face table is node-shaped, each face at its lower node p.  With s_k
  = ``strides[k]`` the C-order stride of axis k, the lower and upper nodes
  of the faces are the flat slices ``[:N - s_k]`` and ``[s_k:]``, so a
  pass over the faces is one contiguous shift of the node array.  The
  layer i_k = n_k - 1 holds no face (there p + s_k lies in the next row):
  this wrap layer is 0 in every array table, and the kernels zero it
  before a face value reaches a node;
* ``diffusion``: the diffusion part of the CFL denominator at sigma = 1,
  sum_k A_kk/h_k^2 + sum_{k != l} |A_kl|/(2 h_k h_l), and its maximum
  ``diffusion_max``, read by ``grid.max_stable_dt``.

The record holds nothing a stepper does not read; the reference kernels
of the tests build their full arrays from the polynomials themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Union

import numpy as np

from .groups import Poly, eval_poly, poly_is_zero
from .grid import GridSpec, node_coordinates

if TYPE_CHECKING:
    from .vfields import VectorFieldSet

# a coefficient: None where it is 0, a float where it is constant
Coef = Union[float, np.ndarray, None]
CoefTable = list[list[Coef]]


def _read_only(arr: np.ndarray | None) -> np.ndarray | None:
    if arr is not None:
        arr.setflags(write=False)
    return arr


def _coefficient(poly: Poly, coords) -> Coef:
    """poly on coordinate arrays: None when it is 0, a float when it has no
    variable, else a read-only array.  A float sums the terms in eval_poly's
    order, so it equals every entry of the array eval_poly would return."""
    if poly_is_zero(poly):
        return None
    if not any(any(exps) for _, exps in poly):
        return float(sum(float(c) for c, _ in poly))
    return _read_only(eval_poly(poly, coords))


def _products(a: CoefTable, k: int, l: int) -> Coef:
    """sum_i a[i][k] a[i][l] in field order from the first product, or None
    when every product vanishes."""
    terms = [ai[k] * ai[l] for ai in a if ai[k] is not None and ai[l] is not None]
    return sum(terms[1:], terms[0]) if terms else None


def times(c: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    """c * x, where a coefficient that is the constant 1 costs no multiply."""
    if isinstance(c, float) and c == 1.0:
        return x
    return c * x


def layer(k: int, j: int | slice) -> tuple:
    """The index of the layer i_k = j (or layers, for a slice j) of a node array."""
    return (slice(None),) * k + (j,)


def _face_coordinates(grid: GridSpec, k: int) -> list[np.ndarray]:
    """Node-shaped coordinates of the k-faces; the wrap layer lies beyond the box."""
    axes = list(grid.axes())
    axes[k] = axes[k] + 0.5 * grid.spacings[k]
    return np.meshgrid(*axes, indexing="ij")


def _on_faces(c: Coef, s: float, k: int) -> Coef:
    """c * s on the k-faces: an array is 0 on its wrap layer and read-only."""
    if not isinstance(c, np.ndarray):
        return None if c is None else c * s
    c = c * s
    c[layer(k, -1)] = 0.0
    return _read_only(c)


@dataclass(frozen=True)
class FrameTables:
    """The tables of one frame on one grid that the steppers read, with the grid's
    C-order ``strides``, and nothing else; the module docstring says what each holds."""

    coef: CoefTable
    upwind: list[list[tuple[np.ndarray, np.ndarray] | None]]
    diag: list[Coef]
    cross: list[list[tuple[int, float | np.ndarray]]]
    drift: list[list[tuple[int, float | np.ndarray]]]
    diffusion: np.ndarray
    diffusion_max: float
    strides: tuple[int, ...]


@cache
def frame_tables(grid: GridSpec, vf: VectorFieldSet) -> FrameTables:
    """The tables of vf on grid, built once per value of (grid, vf)."""
    d = grid.dim
    h = grid.spacings
    nodes = node_coordinates(grid)
    coef = [[_coefficient(p, nodes) for p in field] for field in vf.coefficients]
    upwind = [[(_read_only(c > 0), _read_only(c <= 0)) if isinstance(c, np.ndarray) else None
               for c in row] for row in coef]
    diag, cross, drift = [], [], []
    for k in range(d):
        faces = _face_coordinates(grid, k)
        af = [[_coefficient(p, faces) for p in field] for field in vf.coefficients]
        diag.append(_on_faces(_products(af, k, k), 1.0 / h[k] ** 2, k))
        cross.append([
            (l, _on_faces(Akl, 1.0 / (4.0 * h[k] * h[l]), k))
            for l in range(d) if l != k and (Akl := _products(af, k, l)) is not None
        ])
        drift.append([(i, _on_faces(ai[k], 1.0 / h[k], k))
                      for i, ai in enumerate(af) if ai[k] is not None])
    diffusion = np.zeros(grid.shape)
    for k in range(d):
        for l in range(d):
            if (akl := _products(coef, k, l)) is not None:
                diffusion += akl / h[k] ** 2 if k == l else np.abs(akl) / (2.0 * h[k] * h[l])
    return FrameTables(coef, upwind, diag, cross, drift, _read_only(diffusion),
                       float(diffusion.max()), tuple(math.prod(grid.shape[k + 1:]) for k in range(d)))


def _centered_difference(s: np.ndarray, shape: tuple, l: int, st: int, out: np.ndarray) -> np.ndarray:
    """s[j+1] - s[j-1] along axis l, of stride st, of the flat node array s,
    into out.  The interior is one shift by 2 st; the edge rows then get the
    one-sided second-order numerator -3 s0 + 4 s1 - s2 (and its mirror)
    written as differences, so a constant s gives exactly 0."""
    np.subtract(s[2 * st:], s[: s.size - 2 * st], out=out[st: s.size - st])
    v, o = s.reshape(shape), out.reshape(shape)
    o[layer(l, 0)] = 3.0 * (v[layer(l, 1)] - v[layer(l, 0)]) - (v[layer(l, 2)] - v[layer(l, 1)])
    o[layer(l, -1)] = 3.0 * (v[layer(l, -1)] - v[layer(l, -2)]) - (v[layer(l, -2)] - v[layer(l, -3)])
    return out


def _face_entries(c: float | np.ndarray, m: int) -> float | np.ndarray:
    """A face table as its first m flat entries; a float stays a float."""
    return c.reshape(-1)[:m] if isinstance(c, np.ndarray) else c


def _face_drift(drift, b_values, st: int, out: np.ndarray, tmp: np.ndarray) -> float | np.ndarray:
    """Btilde/h_k on the k-faces: a float when b and every coefficient are
    constant, else written into out (tmp is scratch)."""
    if all(np.ndim(b_values[i]) == 0 and isinstance(c, float) for i, c in drift):
        return sum(b_values[i] * c for i, c in drift)
    m = out.size
    out.fill(0.0)
    for i, c in drift:
        bi = b_values[i]
        c = _face_entries(c, m)
        if np.ndim(bi) == 0:
            np.multiply(c, bi, out=tmp)
        else:
            bi = bi.reshape(-1)
            np.add(bi[:m], bi[st:], out=tmp)
            tmp *= 0.5
            tmp *= c
        out += tmp
    return out


def flux_divergence(
    values: np.ndarray,
    geom: FrameTables,
    sigma: float,
    b_values: np.ndarray | None = None,
) -> np.ndarray:
    """div of the face flux; zero flux through the box boundary.

    b_values, when given, holds the m frame coefficients at nodes with
    shape (m, *grid.shape) or a constant (m,) vector.  The tangential
    derivative on a k-face is the centered gradient of the face sum
    v[p] + v[p + s_k], formed once per axis k and shared by every cross
    term.  Each k-face flux enters once with each sign, + at its lower
    node and - at its upper one, and no flux crosses the box boundary, so
    the divergence telescopes exactly.  Every face pass is a shift of the
    flat node array (see the module docstring); the flux of the wrap
    layer is set to +0.0 before the scatter, so it adds nothing.
    """
    shape = values.shape
    v = np.ascontiguousarray(values).reshape(-1)
    out = np.zeros(v.size)
    work = np.empty((3, v.size))
    for k, st in enumerate(geom.strides):
        m = v.size - st
        v_lo, v_hi = v[:m], v[st:]
        # flux / h_k through every k-face, and two scratch arrays
        flux, tmp, s = work[0, :m], work[1, :m], work[2, :m]
        diag = geom.diag[k] if sigma > 0 else None
        cross = geom.cross[k] if sigma > 0 else ()
        drift = geom.drift[k] if b_values is not None else ()
        if diag is None and not cross and not drift:
            continue
        if diag is not None:
            np.subtract(v_hi, v_lo, out=flux)
            flux *= _face_entries(diag, m)
        else:
            flux.fill(0.0)
        if cross:
            np.add(v_lo, v_hi, out=s)
            work[2, m:] = 0.0  # the centered differences read s past the last face
            for l, c in cross:
                _centered_difference(work[2], shape, l, geom.strides[l], work[1])
                tmp *= _face_entries(c, m)
                flux += tmp
        if diag is not None or cross:
            flux *= sigma
        if drift:
            bt = _face_drift(drift, b_values, st, s, tmp)
            # donor cell: transport velocity is -Btilde, so positive
            # Btilde moves mass toward smaller k-index
            if isinstance(bt, np.ndarray):
                np.copyto(tmp, v_lo)
                np.copyto(tmp, v_hi, where=bt > 0)
                tmp *= bt
            else:
                np.multiply(v_hi if bt > 0 else v_lo, bt, out=tmp)
            flux += tmp
        work[0].reshape(shape)[layer(k, -1)] = 0.0
        # node p gains (F[p] - F[p - s_k]) / h_k, with F = 0 beyond the box
        out[:m] += flux
        out[st:] -= flux
    return out.reshape(shape)
