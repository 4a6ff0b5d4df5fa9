"""The compactly supported smoothing kernel adapted to the group
translations.

The mollifier phi -> sum_u w_u phi(x * u) is a sparse linear operator
on node values, and its entries come from the group law alone: slots of
weight 1 move by whole lattice cells (the law adds no correction there),
the other slots are read by multilinear interpolation, and x * u - x is
evaluated only on the coordinates of x its law terms involve (one shift
per vertical column for a step-2 law).  Offsets that differ in the top
slot only add their interpolation corners into one tap per lattice cell,
in column order for a step-2 law.  ``mollify`` applies the operator as
CSR row blocks, one per block of first-axis slabs.  A MollifierSpec holds
its grid and group, refuses only a field on another grid, and memoizes the
blocks on first use when their estimated size fits
_OPERATOR_BUDGET_BYTES; above the budget every call builds them again,
one block at a time.

The module needs numpy and scipy.sparse only, so the coupled solver,
which smooths but solves no LP, loads no LP stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from .grid import Field, GridSpec, bump_shape
from .groups import GroupSpec, _monomial, dilate, gauge_power

# A mollifier operator estimated above this size is rebuilt on every call.
_OPERATOR_BUDGET_BYTES = 1 << 27
# Entries gathered per row block of a mollifier operator.
_BUILD_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class MollifierSpec:
    """Scaled kernel data on the grid and group it was built for: lattice
    offsets u inside the eps-ball with convex weights w_u (sum exactly 1)."""

    eps: float
    offsets: np.ndarray
    weights: np.ndarray
    grid: GridSpec
    group: GroupSpec
    # the operator's CSR row blocks, once memoized
    _blocks: list = field(default_factory=list, init=False, repr=False, compare=False)

    @staticmethod
    def build(eps: float, grid: GridSpec, group: GroupSpec) -> "MollifierSpec":
        h = grid.spacings
        if eps < 3 * max(h):
            raise ValueError(f"eps={eps:g} under-resolved: need eps >= 3 max(h)")
        ranges = []
        for k, w in enumerate(group.weights):
            # offsets with |u_k| <= eps^w are the only candidates
            reach = int(math.floor(eps**w / h[k])) + 1
            ranges.append(np.arange(-reach, reach + 1) * h[k])
        mesh = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, group.dim)
        raw = bump_shape(gauge_power(group, dilate(group, 1.0 / eps, mesh)))
        keep = raw > 0
        offsets, raw = mesh[keep], raw[keep]
        total = raw.sum()
        if total <= 0:
            raise ValueError("empty kernel; eps too small for the lattice")
        return MollifierSpec(eps=eps, offsets=offsets, weights=raw / total, grid=grid, group=group)


def _shift_entries(m: MollifierSpec, i0: int, i1: int):
    """Taps of phi -> sum_u w_u phi(x * u) on m's grid and law in the rows
    of the nodes x whose first index lies in [i0, i1); in C order those
    rows are the contiguous range [i0, i1) * (nodes per first-axis slab).

    Offsets that agree on every slot but the top (last) one form a run,
    one per horizontal move for a step-2 law, taken in ascending order.
    A run climbs one column of cells: the top interpolation corners of
    its offsets add, in offset order, into one tap per cell, and its
    taps ascend with the cells (per corner of any lower vertical slot).
    Returns (cols, weights) as (rows, taps) arrays.  A tap outside the
    box or reached by no corner has weight 0 and an arbitrary col.  For
    a step-2 law the nonzero taps of a row have strictly increasing cols.
    """
    grid, group = m.grid, m.group
    shape, h, d = grid.shape, grid.spacings, grid.dim
    strides = [int(np.prod(shape[a + 1:])) for a in range(d)]

    def along(a, v):
        # grid axis a of the block; the offsets, then the taps, run along the last axis
        return np.reshape(v, [-1 if b == a else 1 for b in range(d + 1)])

    idx = [along(a, np.arange(i0, i1) if a == 0 else np.arange(shape[a])).astype(np.int32)
           for a in range(d)]
    xs = [along(a, ax[i0:i1] if a == 0 else ax) for a, ax in enumerate(grid.axes())]
    us = [m.offsets[:, b] for b in range(d)]
    col, wt, vertical = np.zeros(len(m.weights), np.int32), m.weights, []
    for a in range(d):
        if group.weights[a] == 1 and a < d - 1:
            # a weight-1 slot carries no law term (each term has degree >= 2)
            p = idx[a] + np.rint(us[a] / h[a]).astype(np.int32)
            # one unsigned compare tests 0 <= p < n
            col, wt = col + p * strides[a], wt * (p.view(np.uint32) < shape[a])
            continue
        # x * u - x = u + the products of the law terms, read between cells
        s = us[a]
        for coeff, px, pu in group.law[a]:
            s = s + float(coeff) * _monomial(xs, px) * _monomial(us, pu)
        steps = s / h[a]
        lo = np.floor(steps)
        vertical.append((a, lo.astype(np.int32), steps - lo))
    top, lo, frac = vertical.pop()
    _, first, run = np.unique(m.offsets[:, :top], axis=0,
                              return_index=True, return_inverse=True)
    # in each row a run's taps reach from its first offset's cell to its last one's + 1
    rise = lo - np.take(lo, first[run], axis=-1)
    span = np.maximum.reduceat(rise.reshape(-1, len(run)).max(axis=0), first) + 2
    n_taps, tap0 = span.sum(), np.cumsum(span) - span
    tap_run = np.repeat(np.arange(len(first)), span)
    tap_cell = (np.take(lo, first[tap_run], axis=-1)
                + (np.arange(n_taps) - tap0[tap_run]).astype(np.int32))
    cols, wts = [], []
    for corner in itertools.product((0, 1), repeat=len(vertical)):
        c_col, c_wt = col, wt
        for (a, lo_a, frac_a), c in zip(vertical, corner):
            p = idx[a] + (lo_a + c)
            c_col = c_col + p * strides[a]
            c_wt = c_wt * (frac_a if c else 1.0 - frac_a) * (p.view(np.uint32) < shape[a])
        slot, below, above = np.broadcast_arrays(tap0[run] + rise, c_wt * (1.0 - frac),
                                                 c_wt * frac)
        at = np.arange(slot.size).reshape(slot.shape) // len(run) * n_taps + slot
        taps = np.bincount(np.stack([at, at + 1], axis=-1).ravel(),
                           np.stack([below, above], axis=-1).ravel(),
                           slot.size // len(run) * n_taps)
        wts.append(taps.reshape(slot.shape[:-1] + (n_taps,)))
        cols.append(np.take(c_col, first[tap_run], axis=-1) + tap_cell)
    col, wt = np.concatenate(cols, axis=-1), np.concatenate(wts, axis=-1)
    # the top slot is the last axis (stride 1); col and wt span the others
    p = np.tile(tap_cell, len(cols)) + idx[top]
    k = p.shape[-1]
    return (col + idx[top]).reshape(-1, k), (wt * (p.view(np.uint32) < shape[top])).reshape(-1, k)


def _row_blocks(m: MollifierSpec):
    """The operator of m as CSR row blocks, one per block of first-axis
    slabs holding about _BUILD_BLOCK_ENTRIES taps, in row order."""
    grid = m.grid
    row_len = grid.num_nodes // grid.shape[0]
    slabs = max(1, _BUILD_BLOCK_ENTRIES // (row_len * _taps_per_row(m)))
    for i0 in range(0, grid.shape[0], slabs):
        cols, wts = _shift_entries(m, i0, min(i0 + slabs, grid.shape[0]))
        keep = wts != 0.0
        indptr = np.zeros(len(wts) + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        block = sps.csr_matrix((wts[keep], cols[keep], indptr), shape=(len(wts), grid.num_nodes))
        # a no-op for a step-2 law; a higher step leaves repeated columns out of order
        block.sum_duplicates()
        yield block


def _taps_per_row(m: MollifierSpec) -> int:
    """Taps per row in the size estimate: one per (offset, interpolation corner)."""
    return len(m.offsets) * 2 ** sum(1 for w in m.group.weights if w > 1)


def mollify(rho: Field, m: MollifierSpec) -> Field:
    """Group-translation smoothing phi_eps(x) = sum_u w_u phi(x * u).

    rho may hold one snapshot or a stack of them along a leading axis;
    a stack is smoothed in one sparse product per row block.  The offsets u
    live on the lattice, so horizontal shifts are exact index moves;
    the other slots of x * u come from the group law and are read by
    multilinear interpolation, with zero outside the box.  Weights are
    convex, so the sup norm never grows; for a step-2 law each shift
    moves whole vertical columns, so mass is kept until the support
    reaches the box edge.

    The operator is applied as its CSR row blocks (see _row_blocks), each
    block's rows summing their taps in _shift_entries order.  The blocks
    are memoized on m on first use when their estimated size, one float64
    value and one int32 column per tap, fits _OPERATOR_BUDGET_BYTES;
    above that every call builds them again, one at a time.  x * u is taken
    under m's law; raises ValueError on a grid other than m's.
    """
    grid = rho.grid
    if grid != m.grid:
        raise ValueError("the mollifier was built for another grid")
    if not m._blocks and grid.num_nodes * _taps_per_row(m) * 12 <= _OPERATOR_BUDGET_BYTES:
        # all blocks or none: an interrupted build memoizes nothing
        m._blocks.extend(list(_row_blocks(m)))
    # one C-order copy of the snapshots, node-major, serves every block
    nodes = np.ascontiguousarray(rho.values.reshape(-1, grid.num_nodes).T)
    out = np.concatenate([b @ nodes for b in m._blocks or _row_blocks(m)]).T
    return Field(grid, out.reshape(rho.values.shape), rho.t)
