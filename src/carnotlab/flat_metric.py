"""Bounded-Lipschitz (flat) distance between discrete measures.

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

The group mollifier lives in ``mollifier``, which loads no LP stack;
``MollifierSpec`` and ``mollify`` are bound here too, as an alias of
that one code path, because the benchmark harness names them here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from .grid import Field, Trajectory, node_points
from .groups import GroupSpec, quasi_distance
# perfbench/worker.py's TARGETS, run.py's flat_metric.mollify.* metric names and
# perfbench/tests/test_smoke.py name these here; the tracer wraps the one
# function object wherever it is bound
from .mollifier import MollifierSpec, mollify  # noqa: F401

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
