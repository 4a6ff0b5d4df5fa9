"""Bounded-Lipschitz (flat) distance between discrete measures, and the
compactly supported smoothing kernel adapted to the group translations.

d0(mu, nu) maximizes integral f d(mu - nu) over test functions with
||f||_inf + Lip(f) <= 1, Lipschitz taken in the quasi-distance.  On
finite supports this is a finite LP: variables f (one per support
point) and a norm split (alpha, beta) with |f| <= alpha,
|f(x) - f(y)| <= beta rho(x, y), alpha + beta <= 1.

The all-pairs constraint matrix is quadratic in the support size, so
the solver generates rows lazily.  A row f_a - f_b <= beta rho_ab holds
one orientation of a pair (a seed pair is oriented from its larger
delta, a violated pair from its larger f).  Each round solves on the
active rows, scans all pairs for violations, drops the active rows whose
slack beta rho_ab - (f_a - f_b) exceeds _LP_TOL and adds the worst
offenders.  A row leaves at most once; after the last departure the
active set only grows, by at least one row a round, so the loop ends.
The final scan checks |f_i - f_j| <= beta rho_ij + _LP_TOL on every
pair, so the relaxed optimizer is feasible, hence optimal, for the full
LP, whatever rows were dropped on the way.  The scan measures rho only
within reach: a weight-1 slot k with no law term gives rho_ij >=
|x_ik - x_jk|, and |f_i - f_j| <= max f - min f, so a pair farther apart
on it than reach = (max f - min f) / beta cannot violate.  It walks the
points sorted on one such slot, in blocks of at most _PAIR_SCAN_BUDGET
pairs, and the LP keeps what it measured, up to _PAIR_KEEP_BYTES, for
its later rounds whose reach is no larger.

The mollifier phi -> sum_u w_u phi(x * u) is a sparse linear operator
on node values, and its entries come from the group law alone: slots of
weight 1 move by whole lattice cells (the law adds no correction there),
the other slots are read by multilinear interpolation, and x * u - x is
evaluated only on the coordinates of x its law terms involve (one shift
per vertical column for a step-2 law).  Offsets that differ in the top
slot only add their interpolation corners into one tap per lattice cell,
in column order for a step-2 law.  ``mollify`` applies the operator as
CSR row blocks, one per block of first-axis slabs.  A MollifierSpec
smooths only on the grid and group it was built for, and memoizes the
blocks on first use when their estimated size fits
_OPERATOR_BUDGET_BYTES; above the budget every call builds them again,
one block at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from .grid import Field, GridSpec, Trajectory, bump_shape, node_points
from .groups import GroupSpec, _monomial, dilate, gauge_power, quasi_distance

# Lipschitz violation an LP solution may keep, and the slack past which
# a pair row leaves the LP.
_LP_TOL = 1e-8
# Pairs held at once by the Lipschitz violation scan.
_PAIR_SCAN_BUDGET = 1 << 17
# Bytes of measured pairs (24 each) one LP keeps: under a tenth of the 104 MB
# peak RSS of a 21^3 particle-vs-grid run, whose LPs keep 1.3-3.3 MB.
_PAIR_KEEP_BYTES = 1 << 23
# Worst violating pairs a scan hands to the next LP round.
_PAIR_TOP_K = 2000
# A mollifier operator estimated above this size is rebuilt on every call.
_OPERATOR_BUDGET_BYTES = 1 << 27
# Entries gathered per row block of a mollifier operator.
_BUILD_BLOCK_ENTRIES = 1 << 20
# A measure drops the weights below this share of its largest.
_WEIGHT_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point masses; weights are plain masses (already include
    any cell volume factor)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights must align")
        if np.any(w < 0):
            raise ValueError("measure weights must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def dirac(x) -> "DiscreteMeasure":
        """Unit mass at the point x."""
        return DiscreteMeasure(points=np.array([x], dtype=float), weights=np.array([1.0]))

    @staticmethod
    def from_field(f: Field, *, coarsen: int = 1) -> "DiscreteMeasure":
        """Nonnegative part of a density field as a measure.

        coarsen > 1 bins fine nodes onto the subsampled lattice (fine
        index i -> coarse index round(i / coarsen)), preserving mass
        exactly; weights below _WEIGHT_FLOOR times the largest are
        dropped afterwards.
        """
        vals = np.clip(f.values, 0.0, None) * f.grid.cell_volume
        grid = f.grid
        if coarsen > 1:
            shape = tuple((n - 1) // coarsen + 1 for n in grid.shape)
            acc = np.zeros(shape)
            idx = np.meshgrid(
                *[np.rint(np.arange(n) / coarsen).astype(int).clip(0, s - 1)
                  for n, s in zip(grid.shape, shape)],
                indexing="ij",
            )
            np.add.at(acc, tuple(idx), vals)
            # coarse node coordinates: every coarsen-th fine node
            sub = tuple(ax[::coarsen][:s] for ax, s in zip(grid.axes(), shape))
            coords = np.stack(np.meshgrid(*sub, indexing="ij"), axis=-1)
            pts = coords.reshape(-1, grid.dim)
            w = acc.reshape(-1)
        else:
            pts = node_points(grid)
            w = vals.reshape(-1)
        keep = w > _WEIGHT_FLOOR * w.max()  # w > 0 when every weight is 0
        return DiscreteMeasure(points=pts[keep], weights=w[keep])


@dataclass(frozen=True)
class FlatMetricResult:
    value: float
    status: str
    gap: float
    optimizer: np.ndarray
    support: np.ndarray
    rounds: int

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "trivial")


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------

def _merge_supports(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Union support in order of first appearance, mu's points first, and the
    signed weight mu - nu per point, added in that order onto -0.0: the sum of
    adding them onto the first, the sign of a zero sum included."""
    pts = np.concatenate([mu.points, nu.points])
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    delta = np.full(order.size, -0.0)
    np.add.at(delta, rank[inverse], np.concatenate([mu.weights, -nu.weights]))
    return pts[first[order]], delta


def _pair_scan(points: np.ndarray, f: np.ndarray, beta: float, group: GroupSpec,
               kept: dict | None = None):
    """Worst Lipschitz violations |f_i - f_j| - beta rho_ij over all pairs.

    Returns (the largest violation, 0 when none; codes a * n + b of the
    violating pairs, oriented so that f_a > f_b, sorted worst-first and
    capped at _PAIR_TOP_K).  Deterministic: ties broken by code.  A pair
    out of reach on a free slot (weight 1, no law term) is not measured,
    and with beta = 0 no rho is computed.  kept holds an LP's pairs (i, j,
    rho_ij) from its last walk at beta > 0; a scan of no larger reach reads
    them through the walk's own reach tests, so it sees the same pairs.
    """
    n = points.shape[0]
    free = [k for k, w in enumerate(group.weights) if w == 1 and not group.law[k]]
    reach = (f.max() - f.min()) / beta if beta > 0 else math.inf
    key = points[:, free[0]] if free else np.zeros(n)

    def walk():
        # sorted on a free slot, position p reaches the count[p] positions after
        # it; a block holds at most _PAIR_SCAN_BUDGET such pairs, or one position
        by_x = np.argsort(key, kind="stable")
        xs = key[by_x]
        count = np.searchsorted(xs, xs + reach, side="right") - np.arange(n) - 1
        ends = np.cumsum(count)
        # this walk's pairs replace the kept ones, while they fit
        keep, held = kept is not None and beta > 0, 0
        if keep:
            kept.update(reach=reach, pairs=[])
        p1 = 0
        while p1 < n:
            p0 = p1
            before = ends[p0] - count[p0]
            p1 = max(p0 + 1, int(np.searchsorted(ends, before + _PAIR_SCAN_BUDGET, side="right")))
            cnt = count[p0:p1]
            p = np.repeat(np.arange(p0, p1), cnt)
            q = p + 1 + np.arange(p.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            i, j = np.minimum(by_x[p], by_x[q]), np.maximum(by_x[p], by_x[q])
            for k in free[1:]:
                near = np.abs(points[i, k] - points[j, k]) <= reach
                i, j = i[near], j[near]
            rho = quasi_distance(group, points[i], points[j]) if beta > 0 else None
            if keep:
                kept["pairs"].append((i, j, rho))
                held += i.nbytes + j.nbytes + rho.nbytes
                if held > _PAIR_KEEP_BYTES:
                    kept.clear()
                    keep = False
            yield i, j, rho

    reread = bool(kept) and reach <= kept["reach"]
    best_viol = 0.0
    worst_v = np.zeros(0)
    worst = np.zeros(0, dtype=int)
    for i, j, rho in kept["pairs"] if reread else walk():
        if reread:
            # the walk's tests: the larger key within reach of the smaller one
            near = np.maximum(key[i], key[j]) <= np.minimum(key[i], key[j]) + reach
            for k in free[1:]:
                near &= np.abs(points[i, k] - points[j, k]) <= reach
            i, j, rho = i[near], j[near], rho[near]
        v = np.abs(f[i] - f[j])
        if beta > 0:
            v -= beta * rho
        pos = v > 0
        if not pos.any():
            continue
        best_viol = max(best_viol, float(v.max()))
        if pos.sum() > _PAIR_TOP_K:
            # keep every pair tied with the _PAIR_TOP_K-th value; the
            # code tie-break below decides among them
            pos &= v >= np.partition(v, v.size - _PAIR_TOP_K)[v.size - _PAIR_TOP_K]
        i, j = i[pos], j[pos]
        worst_v = np.concatenate([worst_v, v[pos]])
        worst = np.concatenate([worst, np.where(f[i] > f[j], i * n + j, j * n + i)])
        order = np.lexsort((worst, -worst_v))[:_PAIR_TOP_K]
        worst_v, worst = worst_v[order], worst[order]
    return best_viol, worst


def _seed_pairs(points: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Sorted codes i * n + j (i < j) of the pairs the first LP holds: a
    lexicographic chain, Euclidean nearest neighbors (binding Lipschitz
    rows are mostly local) and a clique on the heaviest points."""
    n = points.shape[0]

    def code(a, b):
        return np.minimum(a, b) * n + np.maximum(a, b)

    order = np.lexsort(points.T[::-1])
    seeds = [code(order[:-1], order[1:])]
    if n > 2:
        kq = min(9, n)
        _, nbr = cKDTree(points).query(points, k=kq)
        a, b = np.repeat(np.arange(n), kq - 1), nbr[:, 1:].ravel()
        seeds.append(code(a, b)[a != b])
    heavy = np.argsort(-np.abs(delta))[: min(n, 64)]
    hi, hj = np.triu_indices(heavy.size, k=1)
    seeds.append(code(heavy[hi], heavy[hj]))
    return np.unique(np.concatenate(seeds))


def flat_distance(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    group: GroupSpec,
) -> FlatMetricResult:
    """Flat distance by lazy constraint generation; exact at convergence,
    reported as an iteration limit after 60 LP rounds.  The LP holds one
    oriented row per active pair and is solved by the HiGHS dual simplex
    with Dantzig pricing."""
    points, delta = _merge_supports(mu, nu)
    n = points.shape[0]
    if n == 0 or np.abs(delta).max() == 0.0:
        return FlatMetricResult(0.0, "trivial", 0.0, np.zeros(0), points, 0)

    # d0 is positively homogeneous in mu - nu, so the LP runs on the unit-mass
    # difference: costs of a small mass would fall under HiGHS' dual
    # feasibility tolerance and leave the slack basis (the value sum(delta)) optimal
    mass = float(np.abs(delta).sum())
    c = np.concatenate([-delta / mass, [0.0, 0.0]])
    bounds = [(-1.0, 1.0)] * n + [(0.0, 1.0), (0.0, 1.0)]

    # static rows: f_i - alpha <= 0, -f_i - alpha <= 0, alpha + beta <= 1
    eye = sps.eye(n, format="csr")
    neg_alpha = sps.csr_matrix((np.full(n, -1.0), (np.arange(n), np.zeros(n, int))), shape=(n, 1))
    zero_col = sps.csr_matrix((n, 1))
    top = sps.hstack([eye, neg_alpha, zero_col], format="csr")
    bot = sps.hstack([-eye, neg_alpha, zero_col], format="csr")
    last = sps.csr_matrix((np.array([1.0, 1.0]), (np.zeros(2, int), np.array([n, n + 1]))), shape=(1, n + 2))
    static = sps.vstack([top, bot, last], format="csr")
    static_b = np.zeros(2 * n + 1)
    static_b[-1] = 1.0

    # the row f_a - f_b <= beta d_ab travels as the code a * n + b; a
    # seed pair i < j is oriented from its larger delta
    seeds = _seed_pairs(points, delta)
    i, j = seeds // n, seeds % n
    active = np.where(delta[i] >= delta[j], seeds, j * n + i)

    def distances(codes):
        return quasi_distance(group, points[codes // n], points[codes % n])

    def pair_rows(codes, d):
        """Rows f_a - f_b - beta d_ab <= 0, one COO batch."""
        k = codes.size
        cols = np.stack([codes // n, codes % n, np.full(k, n + 1)], 1).ravel()
        data = np.stack([np.ones(k), -np.ones(k), -d], 1).ravel()
        return sps.csr_matrix((data, (np.repeat(np.arange(k), 3), cols)), shape=(k, n + 2))

    active_d = distances(active)
    left = np.zeros(0, dtype=active.dtype)
    kept: dict = {}
    status = "iteration-limit"
    for rounds in range(1, 61):
        A = sps.vstack([static, pair_rows(active, active_d)], format="csr")
        b = np.concatenate([static_b, np.zeros(active.size)])
        res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs-ds",
                      options={"simplex_dual_edge_weight_strategy": "dantzig"})
        if res.status != 0:
            return FlatMetricResult(float("nan"), f"lp-error:{res.message}", math.inf, np.zeros(0), points, rounds)
        f = res.x[:n]
        beta = res.x[n + 1]
        value = -res.fun * mass
        gap, worst = _pair_scan(points, f, beta, group, kept)
        if gap <= _LP_TOL:
            status = "optimal"
            break
        fresh = worst[~np.isin(worst, active)]
        if fresh.size == 0:
            status = "stalled"
            break
        # rows with slack leave the LP, each at most once
        slack = beta * active_d - (f[active // n] - f[active % n])
        drop = (slack > _LP_TOL) & ~np.isin(active, left)
        left = np.concatenate([left, active[drop]])
        active = np.concatenate([active[~drop], fresh])
        active_d = np.concatenate([active_d[~drop], distances(fresh)])
    return FlatMetricResult(float(value), status, float(gap), f, points, rounds)


def two_dirac_distance(group: GroupSpec, x, y) -> float:
    """Closed form for unit diracs: with r = rho(x, y), the optimum pays
    f(x) = -f(y) = alpha and saturates 2 alpha = (1 - alpha) r."""
    r = float(quasi_distance(group, np.asarray(x, float), np.asarray(y, float)))
    return 2 * r / (r + 2)


def axiom_gaps(group: GroupSpec, rng: np.random.Generator, trials: int) -> tuple[float, float]:
    """Worst triangle violation d(a, c) - d(a, b) - d(b, c) and worst symmetry
    gap |d(a, b) - d(b, a)| over trials triples of random 4-point measures
    in [-1, 1]^d (each measure draws its points, then its weights)."""
    tri_worst = -np.inf
    sym_worst = 0.0
    for _ in range(trials):
        a, b, c = (
            DiscreteMeasure(points=rng.uniform(-1, 1, (4, group.dim)),
                            weights=rng.uniform(0.1, 1.0, 4))
            for _ in range(3)
        )
        dab = flat_distance(a, b, group).value
        sym_worst = max(sym_worst, abs(dab - flat_distance(b, a, group).value))
        tri_worst = max(tri_worst,
                        flat_distance(a, c, group).value - dab - flat_distance(b, c, group).value)
    return tri_worst, sym_worst


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

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


def _shift_entries(m: MollifierSpec, grid: GridSpec, group: GroupSpec, i0: int, i1: int):
    """Taps of phi -> sum_u w_u phi(x * u) in the rows of the nodes x
    whose first index lies in [i0, i1); in C order those rows are the
    contiguous range [i0, i1) * (nodes per first-axis slab).

    Offsets that agree on every slot but the top (last) one form a run,
    one per horizontal move for a step-2 law, taken in ascending order.
    A run climbs one column of cells: the top interpolation corners of
    its offsets add, in offset order, into one tap per cell, and its
    taps ascend with the cells (per corner of any lower vertical slot).
    Returns (cols, weights) as (rows, taps) arrays.  A tap outside the
    box or reached by no corner has weight 0 and an arbitrary col.  For
    a step-2 law the nonzero taps of a row have strictly increasing cols.
    """
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
    grid, group = m.grid, m.group
    row_len = grid.num_nodes // grid.shape[0]
    slabs = max(1, _BUILD_BLOCK_ENTRIES // (row_len * _taps_per_row(m)))
    for i0 in range(0, grid.shape[0], slabs):
        cols, wts = _shift_entries(m, grid, group, i0, min(i0 + slabs, grid.shape[0]))
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


def mollify(rho: Field, m: MollifierSpec, group: GroupSpec) -> Field:
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
    above that every call builds them again, one at a time.  Raises
    ValueError on a grid or group other than the ones m was built for.
    """
    grid = rho.grid
    if grid != m.grid or group != m.group:
        raise ValueError("the mollifier was built for another grid or group")
    if not m._blocks and grid.num_nodes * _taps_per_row(m) * 12 <= _OPERATOR_BUDGET_BYTES:
        # all blocks or none: an interrupted build memoizes nothing
        m._blocks.extend(list(_row_blocks(m)))
    # one C-order copy of the snapshots, node-major, serves every block
    nodes = np.ascontiguousarray(rho.values.reshape(-1, grid.num_nodes).T)
    out = np.concatenate([b @ nodes for b in m._blocks or _row_blocks(m)]).T
    return Field(grid, out.reshape(rho.values.shape), rho.t)


# ---------------------------------------------------------------------------
# time regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeHolderReport:
    exponent: float
    constant: float
    gaps: tuple[float, ...]
    distances: tuple[float, ...]
    verdict: str


def holder_in_time(traj: Trajectory, group: GroupSpec) -> TimeHolderReport:
    """Fit d0(rho_s, rho_t) against |t - s| on trajectory snapshots.

    Distances are taken on the coarsen-2 lattice, from the first snapshot
    to up to six later ones (a ladder, not all pairs, to keep the LP
    count small).  A trajectory
    whose snapshots coincide is reported as degenerate; one with fewer
    than two distinct gaps fixes no slope and is reported as
    underdetermined.
    """
    idx = np.unique(np.linspace(1, len(traj) - 1, 6).astype(int))
    base = DiscreteMeasure.from_field(traj.fields[0], coarsen=2)
    gaps, dists = [], []
    for i in idx:
        m_i = DiscreteMeasure.from_field(traj.fields[i], coarsen=2)
        res = flat_distance(base, m_i, group)
        if not res.ok:
            raise RuntimeError(f"flat distance failed: {res.status}")
        gaps.append(traj.times[i] - traj.times[0])
        dists.append(res.value)
    gaps_a, dists_a = np.asarray(gaps), np.asarray(dists)
    if np.all(dists_a <= _LP_TOL):
        return TimeHolderReport(float("nan"), 0.0, tuple(gaps), tuple(dists), "degenerate")
    if np.unique(gaps_a).size < 2:
        return TimeHolderReport(float("nan"), float("nan"), tuple(gaps), tuple(dists),
                                "underdetermined")
    lx = np.log(gaps_a)
    ly = np.log(np.maximum(dists_a, 1e-300))
    lx_c = lx - lx.mean()
    slope = float((lx_c * ly).sum() / (lx_c**2).sum())
    intercept = float(ly.mean() - slope * lx.mean())
    return TimeHolderReport(slope, float(np.exp(intercept)), tuple(gaps), tuple(dists), "fitted")
