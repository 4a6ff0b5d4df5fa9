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
Everything they read about one frame on one grid is a ``FrameTables``
entry of ``_GEOM_CACHE``, keyed by ``(grid, vf)``.  A ``VectorFieldSet``
is a frozen tuple of polynomials, so the key holds the value of the
frame, not the name of its group: two laws that share a name never share
an entry.

In exponential coordinates every first-layer coefficient of a Carnot
frame is the constant 1, so a good part of every table is constant.  The
readers therefore read ``FrameTables.kernel``, built once from the
polynomials, in which a coefficient whose polynomial is constant is a
Python float and every other one a read-only array:

* ``coef[i][l]``: component l of field i at the nodes, None where the
  polynomial is 0 (read by ``grid.max_stable_dt``,
  ``hamilton_jacobi.godunov_gradient`` and the horizontal gradient and
  divergence of ``vfields``; ``_products`` forms A_kl from it for
  ``diffusion``);
* ``upwind[i][l]``: the sign split (``coef[i][l] > 0``, ``coef[i][l] <= 0``)
  of each array coefficient, read by ``godunov_gradient`` to pick the
  upwind side node by node;
* the face tables of ``flux_divergence``, which both steps and the
  horizontal Laplacian call, sigma-free and pre-scaled by the grid
  spacings: ``diag[k]`` = A_kk/h_k^2, ``cross[k]`` = (l, A_kl/(4 h_k h_l))
  for l != k and ``drift[k]`` = (i, a_face[k][i]/h_k), all on k-faces.
  A k-face table is node-shaped, each face at its lower node p.  With s_k
  the C-order stride of axis k, the lower and upper nodes of the faces are
  the flat slices ``[:N - s_k]`` and ``[s_k:]``, so a pass over the faces
  is one contiguous shift of the node array.  The layer i_k = n_k - 1
  holds no face (there p + s_k lies in the next row): this wrap layer is
  0 in every array table, and the kernels zero it before a face value
  reaches a node.

``diffusion`` is the diffusion part of the CFL denominator at sigma = 1,
sum_k A_kk/h_k^2 + sum_{k != l} |A_kl|/(2 h_k h_l), with its maximum; it
is read by ``grid.max_stable_dt``.  The full arrays ``a``, ``A`` and
``a_face`` (constants expanded) stay for the reference kernels of the
tests only; no stepper reads them, so they are built only when asked for.

Each part is evaluated on first use and shared from then on, so its
arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np

from .groups import Poly, eval_poly, poly_is_zero
from .grid import GridSpec, node_coordinates

if TYPE_CHECKING:
    from .vfields import VectorFieldSet

Table = list[list[np.ndarray | None]]
# a coefficient: None where it is 0, a float where it is constant
Coef = Union[float, np.ndarray, None]
CoefTable = list[list[Coef]]


def _read_only(arr: np.ndarray | None) -> np.ndarray | None:
    if arr is not None:
        arr.setflags(write=False)
    return arr


def _constant(poly: Poly) -> float | None:
    """The value of a polynomial without a variable, else None.  The terms
    are summed in eval_poly's order, so the float equals every entry of the
    array eval_poly would return."""
    if any(any(exps) for _, exps in poly):
        return None
    return float(sum(float(c) for c, _ in poly))


def _coefficients(vf: VectorFieldSet, coords) -> CoefTable:
    """vf's coefficient polynomials on coordinate arrays, constants as floats."""
    table: CoefTable = []
    for field in vf.coefficients:
        row: list[Coef] = []
        for p in field:
            c = None
            if not poly_is_zero(p):
                c = _constant(p)
                if c is None:
                    c = _read_only(eval_poly(p, coords))
            row.append(c)
        table.append(row)
    return table


def _expand(table: CoefTable, shape: tuple[int, ...]) -> Table:
    """table with every constant written out as a read-only array."""
    return [
        [_read_only(np.full(shape, c)) if isinstance(c, float) else c for c in row]
        for row in table
    ]


def _products(a: CoefTable, k: int, l: int) -> Coef:
    """sum_i a[i][k] a[i][l], or None when every product vanishes."""
    acc = None
    for ai in a:
        if ai[k] is None or ai[l] is None:
            continue
        term = ai[k] * ai[l]
        acc = term if acc is None else acc + term
    return acc


def times(c: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    """c * x, where a coefficient that is the constant 1 costs no multiply."""
    if isinstance(c, float) and c == 1.0:
        return x
    return c * x


@dataclass(frozen=True)
class Kernel:
    """The part of ``FrameTables`` the stepping kernels read: constants are
    floats, face tables are sigma-free and pre-scaled (see the module docstring)."""

    coef: CoefTable
    upwind: list[list[tuple[np.ndarray, np.ndarray] | None]]
    diag: list[Coef]
    cross: list[list[tuple[int, float | np.ndarray]]]
    drift: list[list[tuple[int, float | np.ndarray]]]


def steps(shape: tuple[int, ...]) -> list[int]:
    """The C-order stride of every axis, in entries."""
    return [int(np.prod(shape[k + 1:], dtype=np.int64)) for k in range(len(shape))]


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


class FrameTables:
    """Node and face tables of one frame on one grid (see the module docstring).

    Readers: ``kernel.coef`` by ``grid.max_stable_dt``,
    ``hamilton_jacobi.godunov_gradient`` and ``vfields.horizontal_gradient``
    / ``horizontal_divergence``;
    ``kernel.upwind`` by ``godunov_gradient``;
    ``kernel.diag``/``cross``/``drift``, node-shaped with a zero wrap layer,
    by ``flux_divergence``, which ``vfields.horizontal_laplacian`` calls too;
    ``diffusion``/``diffusion_max`` by ``grid.max_stable_dt``.  ``a``, ``A``
    and ``a_face`` are the full arrays the reference kernels of the tests
    read, ``A`` and ``a_face`` face-shaped (axis k one node shorter); they
    are built lazily, only when such a test asks for them.
    """

    def __init__(self, grid: GridSpec, vf: VectorFieldSet):
        self.grid = grid
        self.vf = vf

    @cached_property
    def kernel(self) -> Kernel:
        grid = self.grid
        d = grid.dim
        h = grid.spacings
        coef = _coefficients(self.vf, node_coordinates(grid))
        upwind = [
            [(_read_only(c > 0), _read_only(c <= 0)) if isinstance(c, np.ndarray) else None
             for c in row]
            for row in coef
        ]
        diag, cross, drift = [], [], []
        for k in range(d):
            af = _coefficients(self.vf, _face_coordinates(grid, k))
            diag.append(_on_faces(_products(af, k, k), 1.0 / h[k] ** 2, k))
            cross.append([
                (l, _on_faces(Akl, 1.0 / (4.0 * h[k] * h[l]), k))
                for l in range(d) if l != k and (Akl := _products(af, k, l)) is not None
            ])
            drift.append([
                (i, _on_faces(ai[k], 1.0 / h[k], k)) for i, ai in enumerate(af) if ai[k] is not None
            ])
        return Kernel(coef, upwind, diag, cross, drift)

    @cached_property
    def a(self) -> Table:
        """a[i][l] as full node arrays, or None where the polynomial is 0."""
        return _expand(self.kernel.coef, self.grid.shape)

    @cached_property
    def _faces(self) -> tuple[Table, Table]:
        d = self.grid.dim
        A: Table = []
        a_face: Table = []
        for k in range(d):
            faces = layer(k, slice(None, -1))
            face = [x[faces] for x in _face_coordinates(self.grid, k)]
            ai = _expand(_coefficients(self.vf, face), face[0].shape)
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
        coef = self.kernel.coef
        out = np.zeros(self.grid.shape)
        for k in range(d):
            for l in range(d):
                akl = _products(coef, k, l)
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


def _centered_difference(s: np.ndarray, shape: tuple[int, ...], l: int, out: np.ndarray) -> np.ndarray:
    """s[j+1] - s[j-1] along axis l of the flat node array s, into out.  The
    interior is one shift by 2 s_l; the edge rows then get the one-sided
    second-order numerator -3 s0 + 4 s1 - s2 (and its mirror) written as
    differences, so a constant s gives exactly 0."""
    st = steps(shape)[l]
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
    kern = geom.kernel
    shape = values.shape
    v = np.ascontiguousarray(values).reshape(-1)
    out = np.zeros(v.size)
    # node-shaped scratch: the face sums are read across the wrap layer
    work = np.zeros((3, v.size))
    for k, st in enumerate(steps(shape)):
        m = v.size - st
        v_lo, v_hi = v[:m], v[st:]
        # flux / h_k through every k-face, and two scratch arrays
        flux, tmp, s = work[0, :m], work[1, :m], work[2, :m]
        diag = kern.diag[k] if sigma > 0 else None
        cross = kern.cross[k] if sigma > 0 else ()
        drift = kern.drift[k] if b_values is not None else ()
        if diag is None and not cross and not drift:
            continue
        if diag is not None:
            np.subtract(v_hi, v_lo, out=flux)
            flux *= _face_entries(diag, m)
        else:
            flux.fill(0.0)
        if cross:
            np.add(v_lo, v_hi, out=s)
            for l, c in cross:
                _centered_difference(work[2], shape, l, work[1])
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
