"""Bounded-Lipschitz (flat) distance between discrete measures, and the
compactly supported smoothing kernel adapted to the group translations.

d0(mu, nu) maximizes integral f d(mu - nu) over test functions with
||f||_inf + Lip(f) <= 1, Lipschitz taken in the quasi-distance.  On
finite supports this is a finite LP: variables f (one per support
point) and a norm split (alpha, beta) with |f| <= alpha,
|f(x) - f(y)| <= beta rho(x, y), alpha + beta <= 1.

The all-pairs constraint matrix is quadratic in the support size, so
the solver generates rows lazily: solve on an active pair set, scan all
pairs for violations, add the worst offenders, repeat.  The final scan
certifies feasibility of the full LP, which makes the relaxed optimum
exact (any feasible point of the full problem is feasible for the
relaxation, and the relaxed optimizer is full-feasible at convergence).
The scan walks the pairs in blocks of at most _PAIR_SCAN_BUDGET pairs,
so its working set does not grow with the support size.

The mollifier phi -> sum_u w_u phi(x * u) is a sparse linear operator
on node values, and its entries come from the group law alone: slots of
weight 1 move by whole lattice cells (the law adds no correction there),
the other slots are read by multilinear interpolation, and x * u - x is
evaluated only on the coordinates of x its law terms involve (one shift
per vertical column for a step-2 law).  ``mollify`` materialises the
operator as a CSR matrix on first use when its estimated size fits
_OPERATOR_BUDGET_BYTES, memoized on the MollifierSpec under the value of
(grid, group); above the budget it streams the same entries into its
output on every call.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from .grid import Field, GridSpec, Trajectory, node_coordinates
from .groups import GroupSpec, _monomial, dilate, quasi_distance

# Pairs held at once by the Lipschitz violation scan.
_PAIR_SCAN_BUDGET = 1 << 17
# A mollifier operator estimated above this size is streamed, not stored.
_OPERATOR_BUDGET_BYTES = 1 << 27
# Entries gathered per row block while a mollifier operator is assembled.
_BUILD_BLOCK_ENTRIES = 1 << 20


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

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    @staticmethod
    def from_field(
        f: Field, *, coarsen: int = 1, threshold: float = 1e-12
    ) -> "DiscreteMeasure":
        """Nonnegative part of a density field as a measure.

        coarsen > 1 bins fine nodes onto the subsampled lattice (fine
        index i -> coarse index round(i / coarsen)), preserving mass
        exactly; weights below threshold (relative to the largest) are
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
            pts = np.stack(node_coordinates(grid), axis=-1).reshape(-1, grid.dim)
            w = vals.reshape(-1)
        if w.size and w.max() > 0:
            keep = w > threshold * w.max()
        else:
            keep = w > 0
        return DiscreteMeasure(points=pts[keep], weights=w[keep])

    def to_csv(self, path: str) -> None:
        path = os.fspath(path)
        d = self.points.shape[1]
        header = ",".join(f"x{i+1}" for i in range(d)) + ",weight"
        lines = [header]
        for p, w in zip(self.points, self.weights):
            lines.append(",".join(repr(float(c)) for c in p) + "," + repr(float(w)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def from_csv(path: str) -> "DiscreteMeasure":
        rows = np.loadtxt(os.fspath(path), delimiter=",", skiprows=1, ndmin=2)
        return DiscreteMeasure(points=rows[:, :-1], weights=rows[:, -1])


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

    def to_json_dict(self) -> dict:
        return {"value": self.value, "status": self.status, "gap": self.gap, "rounds": self.rounds}


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------

def _merge_supports(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Union support and the signed weight mu - nu per union point."""
    seen: dict[tuple, int] = {}
    pts: list[np.ndarray] = []
    delta: list[float] = []
    for sgn, meas in ((1.0, mu), (-1.0, nu)):
        for p, w in zip(meas.points, meas.weights):
            key = tuple(p)
            i = seen.get(key)
            if i is None:
                seen[key] = len(pts)
                pts.append(p)
                delta.append(sgn * w)
            else:
                delta[i] += sgn * w
    return np.array(pts), np.array(delta)


def _pair_scan(points: np.ndarray, f: np.ndarray, beta: float, group: GroupSpec,
               top_k: int):
    """Worst Lipschitz violations |f_i - f_j| - beta rho_ij over all pairs.

    Returns (max_violation, array of (i, j) pairs sorted worst-first,
    capped at top_k).  Deterministic: ties broken by index order.
    Rows are scanned in blocks of about _PAIR_SCAN_BUDGET pairs.
    """
    n = points.shape[0]
    chunk = max(1, _PAIR_SCAN_BUDGET // n)
    best_viol = -math.inf
    kept_v = np.zeros(0)
    kept_i = np.zeros(0, dtype=int)
    kept_j = np.zeros(0, dtype=int)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        block = points[i0:i1]
        d = quasi_distance(group, block[:, None, :], points[None, :, :])
        viol = np.abs(f[i0:i1, None] - f[None, :]) - beta * d
        iu = np.triu_indices(i1 - i0, k=1, m=n)
        mask = iu[1] > iu[0] + i0
        rows, cols = iu[0][mask], iu[1][mask]
        v = viol[rows, cols]
        if v.size == 0:
            continue
        best_viol = max(best_viol, float(v.max()))
        if top_k <= 0:
            continue
        pos = v > 0
        if pos.sum() > top_k:
            # keep every pair tied with the top_k-th value; the index
            # tie-break below decides among them
            pos &= v >= np.partition(v, v.size - top_k)[v.size - top_k]
        kept_v = np.concatenate([kept_v, v[pos]])
        kept_i = np.concatenate([kept_i, rows[pos] + i0])
        kept_j = np.concatenate([kept_j, cols[pos]])
        order = np.lexsort((kept_j, kept_i, -kept_v))[:top_k]
        kept_v, kept_i, kept_j = kept_v[order], kept_i[order], kept_j[order]
    pairs = np.stack([kept_i, kept_j], axis=1).reshape(-1, 2)
    return best_viol, pairs


def flat_distance(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    group: GroupSpec,
    *,
    tol: float = 1e-8,
    max_rounds: int = 60,
    top_k: int = 2000,
) -> FlatMetricResult:
    """Flat distance by lazy constraint generation; exact at convergence."""
    points, delta = _merge_supports(mu, nu)
    n = points.shape[0]
    if n == 0 or np.abs(delta).max() == 0.0:
        return FlatMetricResult(0.0, "trivial", 0.0, np.zeros(0), points, 0)

    c = np.concatenate([-delta, [0.0, 0.0]])
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

    # seed pairs: Euclidean nearest neighbors (binding Lipschitz rows are
    # mostly local), a lexicographic chain, and a clique on the heaviest points
    order = np.lexsort(points.T[::-1])
    seeds = {(int(a), int(b)) if a < b else (int(b), int(a))
             for a, b in zip(order[:-1], order[1:])}
    if n > 2:
        kq = min(9, n)
        _, nbr = cKDTree(points).query(points, k=kq)
        for i in range(n):
            for j in nbr[i][1:]:
                a, b = (i, int(j)) if i < j else (int(j), i)
                if a != b:
                    seeds.add((a, b))
    heavy = np.argsort(-np.abs(delta))[: min(n, 64)]
    for ii in range(len(heavy)):
        for jj in range(ii + 1, len(heavy)):
            a, b = int(heavy[ii]), int(heavy[jj])
            seeds.add((a, b) if a < b else (b, a))
    active = sorted(seeds)

    def pair_rows(pairs):
        """Rows f_i - f_j - beta d_ij <= 0 and the mirror, one COO batch."""
        p = np.asarray(pairs, dtype=int).reshape(-1, 2)
        k = p.shape[0]
        d = quasi_distance(group, points[p[:, 0]], points[p[:, 1]])
        r = np.arange(2 * k)
        row_idx = np.concatenate([np.repeat(r, 3)])
        col_idx = np.concatenate(
            [np.stack([p[:, 0], p[:, 1], np.full(k, n + 1)], 1).ravel(),
             np.stack([p[:, 0], p[:, 1], np.full(k, n + 1)], 1).ravel()])
        data = np.concatenate(
            [np.stack([np.ones(k), -np.ones(k), -d], 1).ravel(),
             np.stack([-np.ones(k), np.ones(k), -d], 1).ravel()])
        m = sps.csr_matrix((data, (row_idx, col_idx)), shape=(2 * k, n + 2))
        return m, np.zeros(2 * k)

    rows, rhs = pair_rows(active)
    rows, rhs = [rows], [rhs]
    status = "iteration-limit"
    gap = math.inf
    f = np.zeros(n)
    alpha = beta = 0.0
    value = 0.0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        A = sps.vstack([static] + rows, format="csr")
        b = np.concatenate([static_b] + rhs)
        res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        if res.status != 0:
            return FlatMetricResult(float("nan"), f"lp-error:{res.message}", math.inf, np.zeros(0), points, rounds)
        f = res.x[:n]
        alpha, beta = res.x[n], res.x[n + 1]
        value = -res.fun
        viol, new_pairs = _pair_scan(points, f, beta, group, top_k)
        gap = max(0.0, viol)
        if viol <= tol:
            status = "optimal"
            break
        fresh = [(int(i), int(j)) for i, j in new_pairs if (int(i), int(j)) not in seeds]
        if not fresh:
            status = "stalled"
            break
        seeds.update(fresh)
        r2, b2 = pair_rows(fresh)
        rows.append(r2)
        rhs.append(b2)
    return FlatMetricResult(float(value), status, float(gap), f, points, rounds)


def two_dirac_distance(group: GroupSpec, x, y) -> float:
    """Closed form for unit diracs: with r = rho(x, y), the optimum pays
    f(x) = -f(y) = alpha and saturates 2 alpha = (1 - alpha) r."""
    r = float(quasi_distance(group, np.asarray(x, float), np.asarray(y, float)))
    return 2 * r / (r + 2)


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

def _profile(s: np.ndarray) -> np.ndarray:
    """exp(1 / (s - 1)) for s < 1 and 0 outside; s = (||x||/eps)^{2k!}."""
    out = np.zeros_like(s)
    inside = s < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 / (s[inside] - 1.0))
    return out


@dataclass(frozen=True)
class MollifierSpec:
    """Scaled kernel data on a given grid: lattice offsets u inside the
    eps-ball with convex weights w_u (sum exactly 1), plus the derived
    normalization constant C of the continuum scaling (C / eps^Q)
    xi(delta_{1/eps} x)."""

    eps: float
    C: float
    step: int
    offsets: np.ndarray
    weights: np.ndarray
    # materialised operators, keyed by the value of (grid, group)
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        scaled = dilate(group, 1.0 / eps, mesh)
        r = group.norm_root
        s = np.zeros(mesh.shape[0])
        for i, w in enumerate(group.weights):
            s += np.abs(scaled[:, i]) ** (r // w)
        raw = _profile(s)
        keep = raw > 0
        offsets, raw = mesh[keep], raw[keep]
        total = raw.sum()
        if total <= 0:
            raise ValueError("empty kernel; eps too small for the lattice")
        weights = raw / total
        cell = float(np.prod(h))
        C = eps**group.homogeneous_dimension / (total * cell)
        return MollifierSpec(eps=eps, C=C, step=group.step, offsets=offsets, weights=weights)


def kernel_field(m: MollifierSpec, grid: GridSpec, group: GroupSpec) -> Field:
    """The scaled kernel (C / eps^Q) xi(delta_{1/eps} x) sampled on the grid."""
    pts = np.stack(node_coordinates(grid), axis=-1)
    scaled = dilate(group, 1.0 / m.eps, pts.reshape(-1, group.dim))
    r = group.norm_root
    s = np.zeros(scaled.shape[0])
    for i, w in enumerate(group.weights):
        s += np.abs(scaled[:, i]) ** (r // w)
    vals = m.C / m.eps**group.homogeneous_dimension * _profile(s)
    return Field(grid, vals.reshape(grid.shape))


def _shift_entries(m: MollifierSpec, grid: GridSpec, group: GroupSpec, i0: int, i1: int):
    """Entries of phi -> sum_u w_u phi(x * u) in the rows of the nodes x
    whose first index lies in [i0, i1); in C order those rows are the
    contiguous range [i0, i1) * (nodes per first-axis slab).

    Yields (cols, weights), one pair per offset u and interpolation
    corner: flat arrays over the block's rows in order.  A corner that
    falls outside the box has weight 0 and an arbitrary col.
    """
    shape, h, d = grid.shape, grid.spacings, grid.dim
    strides = [int(np.prod(shape[a + 1:])) for a in range(d)]
    block = (i1 - i0,) + tuple(shape[1:])

    def along(a, v):
        return np.reshape(v, [-1 if b == a else 1 for b in range(d)])

    idx = [along(a, np.arange(i0, i1) if a == 0 else np.arange(shape[a])).astype(np.int32)
           for a in range(d)]
    xs = [along(a, ax[i0:i1] if a == 0 else ax) for a, ax in enumerate(grid.axes())]
    # a weight-1 slot carries no law term (each term has degree >= 2)
    horizontal = [a for a in range(d) if group.weights[a] == 1]
    moves = np.rint(m.offsets[:, horizontal] / np.take(h, horizontal)).astype(np.int32)
    vertical = [a for a in range(d) if group.weights[a] > 1]
    us = [m.offsets[:, b] for b in range(d)]
    # law terms of each vertical slot: (coeff * x-monomial on the block,
    # u-monomial per offset); x * u - x = u + sum of their products
    terms = [
        [(float(coeff) * _monomial(xs, px), _monomial(us, pu))
         for coeff, px, pu in group.law[a]]
        for a in vertical
    ]
    for k, w in enumerate(m.weights):
        # horizontal moves and their box test live on the horizontal axes only
        base, wt_h = 0, w
        for a, move in zip(horizontal, moves[k]):
            p = idx[a] + move
            base = base + p * strides[a]
            wt_h = wt_h * ((p >= 0) & (p < shape[a]))
        lows, fracs = [], []
        for a, law_terms in zip(vertical, terms):
            s = m.offsets[k, a]
            for cx, mu in law_terms:
                s = s + cx * mu[k]
            steps = np.asarray(s) / h[a]
            lo = np.floor(steps)
            fracs.append(steps - lo)
            lows.append(lo.astype(np.int32))
        for corner in itertools.product((0, 1), repeat=len(vertical)):
            col, wt = base, wt_h
            for a, lo, frac, c in zip(vertical, lows, fracs, corner):
                p = idx[a] + (lo + c)
                col = col + p * strides[a]
                # one unsigned compare tests 0 <= p < n
                wt = wt * (frac if c else 1.0 - frac) * (p.view(np.uint32) < shape[a])
            yield (np.broadcast_to(col, block).reshape(-1),
                   np.broadcast_to(wt, block).reshape(-1))


def _operator(m: MollifierSpec, grid: GridSpec, group: GroupSpec):
    """The memoized CSR operator, assembled on first use, or None when its
    estimated size exceeds _OPERATOR_BUDGET_BYTES."""
    key = (grid, group)
    op = m._operators.get(key)
    if op is not None:
        return op
    corners = 2 ** sum(1 for w in group.weights if w > 1)
    row_len = grid.num_nodes // grid.shape[0]
    per_row = len(m.offsets) * corners
    # one float64 value and one int32 column per entry, before merging
    if grid.num_nodes * per_row * 12 > _OPERATOR_BUDGET_BYTES:
        return None
    slabs = max(1, _BUILD_BLOCK_ENTRIES // (row_len * per_row))
    blocks = []
    for i0 in range(0, grid.shape[0], slabs):
        i1 = min(i0 + slabs, grid.shape[0])
        n_rows = (i1 - i0) * row_len
        # every row holds one candidate per (offset, corner): the block is
        # a CSR matrix with duplicates and explicit zeros until merged
        cols = np.empty((n_rows, per_row), dtype=np.int32)
        vals = np.empty((n_rows, per_row))
        for k, (c, w) in enumerate(_shift_entries(m, grid, group, i0, i1)):
            cols[:, k] = np.where(w != 0.0, c, 0)
            vals[:, k] = w
        part = sps.csr_matrix(
            (vals.reshape(-1), cols.reshape(-1), np.arange(0, cols.size + 1, per_row)),
            shape=(n_rows, grid.num_nodes),
        )
        del cols, vals
        part.sum_duplicates()
        part.eliminate_zeros()
        blocks.append(part)
    op = sps.vstack(blocks, format="csr")
    m._operators[key] = op
    return op


def mollify(rho: Field, m: MollifierSpec, group: GroupSpec) -> Field:
    """Group-translation smoothing phi_eps(x) = sum_u w_u phi(x * u).

    rho may hold one snapshot or a stack of them along a leading axis;
    a stack is smoothed in one sparse matrix product.  The offsets u
    live on the lattice, so horizontal shifts are exact index moves;
    the other slots of x * u come from the group law and are read by
    multilinear interpolation, with zero outside the box.  Weights are
    convex, so the sup norm never grows; for a step-2 law each shift
    moves whole vertical columns, so mass is kept until the support
    reaches the box edge.

    The operator is assembled once per (grid, group) value and memoized
    on m when its estimated size fits _OPERATOR_BUDGET_BYTES; above that
    its entries are streamed into the output on every call.
    """
    grid = rho.grid
    flat = rho.values.reshape(-1, grid.num_nodes)
    op = _operator(m, grid, group)
    if op is not None:
        out = (op @ flat.T).T
    else:
        out = np.zeros_like(flat)
        for cols, wts in _shift_entries(m, grid, group, 0, grid.shape[0]):
            out += wts * flat.take(cols, axis=1, mode="clip")
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


def holder_in_time(
    traj: Trajectory,
    group: GroupSpec,
    *,
    coarsen: int = 2,
    threshold: float = 1e-12,
    base_index: int = 0,
    max_pairs: int = 6,
    lp_tol: float = 1e-8,
) -> TimeHolderReport:
    """Fit d0(rho_s, rho_t) against |t - s| on trajectory snapshots.

    Distances are taken from one base snapshot to later ones (a ladder,
    not all pairs, to keep the LP count small).  A trajectory whose
    snapshots coincide is reported as degenerate.
    """
    idx = np.unique(np.linspace(base_index + 1, len(traj) - 1, max_pairs).astype(int))
    base = DiscreteMeasure.from_field(traj.fields[base_index], coarsen=coarsen, threshold=threshold)
    gaps, dists = [], []
    for i in idx:
        m_i = DiscreteMeasure.from_field(traj.fields[i], coarsen=coarsen, threshold=threshold)
        res = flat_distance(base, m_i, group, tol=lp_tol)
        if not res.ok:
            raise RuntimeError(f"flat distance failed: {res.status}")
        gaps.append(traj.times[i] - traj.times[base_index])
        dists.append(res.value)
    gaps_a, dists_a = np.asarray(gaps), np.asarray(dists)
    if np.all(dists_a <= max(1e-14, lp_tol)):
        return TimeHolderReport(float("nan"), 0.0, tuple(gaps), tuple(dists), "degenerate")
    lx = np.log(gaps_a)
    ly = np.log(np.maximum(dists_a, 1e-300))
    lx_c = lx - lx.mean()
    slope = float((lx_c * ly).sum() / (lx_c**2).sum())
    intercept = float(ly.mean() - slope * lx.mean())
    return TimeHolderReport(slope, float(np.exp(intercept)), tuple(gaps), tuple(dists), "fitted")
