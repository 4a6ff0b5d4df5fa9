"""Flat-distance LP against closed forms and a vertex-enumeration oracle,
plus the time-regularity fit read through it."""

import itertools
import json

import numpy as np
import pytest

from carnotlab import flat_metric
from carnotlab import grid as cgrid
from carnotlab import groups
from carnotlab.flat_metric import (
    DiscreteMeasure,
    flat_distance,
    holder_in_time,
    two_dirac_distance,
)
from carnotlab.grid import Field, Trajectory, bump_field, node_coordinates
from carnotlab.groups import hom_norm, multiply, quasi_distance
from carnotlab.report import json_text

G = groups.preset("heisenberg1")


def unit_dirac(x):
    return DiscreteMeasure(points=np.array([x], dtype=float), weights=np.array([1.0]))


# ---------------------------------------------------------------------------
# flat distance: closed forms and oracle
# ---------------------------------------------------------------------------

def test_identical_measures_give_zero():
    mu = DiscreteMeasure(points=np.array([[0.1, 0.2, 0.3], [1.0, 1.0, 1.0]]),
                         weights=np.array([0.4, 0.6]))
    res = flat_distance(mu, mu, G)
    assert res.value == 0.0
    assert res.status == "trivial"


@pytest.mark.parametrize("x", [(0.5, 0.0, 0.0), (0.0, 0.0, 1.0), (2.3, 0.0, 0.0)])
def test_two_dirac_closed_form(x):
    # optimum pays f(x) = -f(y) = alpha with 2 alpha = (1 - alpha) r,
    # giving 2r / (r + 2)
    res = flat_distance(unit_dirac(x), unit_dirac((0.0, 0.0, 0.0)), G)
    r = float(quasi_distance(G, np.array(x, dtype=float), np.zeros(3)))
    assert res.status == "optimal"
    assert abs(res.value - 2 * r / (r + 2)) <= 1e-9
    assert abs(res.value - two_dirac_distance(G, x, (0, 0, 0))) <= 1e-9


def _bruteforce_flat_distance(mu, nu, group):
    """Exhaustive vertex enumeration of the feasible polytope (tiny supports).

    Variables (f_1..f_n, alpha, beta); every vertex is the solution of
    n + 2 active constraint rows; feasible vertices are scanned for the
    best objective.
    """
    pts = np.vstack([mu.points, nu.points])
    delta = np.concatenate([mu.weights, -nu.weights])
    n = len(pts)
    rows, rhs = [], []
    for i in range(n):
        r = np.zeros(n + 2); r[i] = 1.0; r[n] = -1.0; rows.append(r); rhs.append(0.0)
        r = np.zeros(n + 2); r[i] = -1.0; r[n] = -1.0; rows.append(r); rhs.append(0.0)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(quasi_distance(group, pts[i], pts[j]))
            r = np.zeros(n + 2); r[i] = 1.0; r[j] = -1.0; r[n + 1] = -d; rows.append(r); rhs.append(0.0)
            r = np.zeros(n + 2); r[i] = -1.0; r[j] = 1.0; r[n + 1] = -d; rows.append(r); rhs.append(0.0)
    r = np.zeros(n + 2); r[n] = 1.0; r[n + 1] = 1.0; rows.append(r); rhs.append(1.0)
    r = np.zeros(n + 2); r[n] = -1.0; rows.append(r); rhs.append(0.0)
    r = np.zeros(n + 2); r[n + 1] = -1.0; rows.append(r); rhs.append(0.0)
    A, b = np.array(rows), np.array(rhs)
    m, dim = A.shape
    combos = np.array(list(itertools.combinations(range(m), dim)))
    A_sub, b_sub = A[combos], b[combos]
    good = np.abs(np.linalg.det(A_sub)) > 1e-10
    z = np.linalg.solve(A_sub[good], b_sub[good][..., None])[..., 0]
    feas = np.all(A @ z.T <= b[:, None] + 1e-9, axis=0)
    return float((z[feas][:, :n] @ delta).max())


def test_lp_matches_vertex_enumeration_on_four_point_supports():
    rng = np.random.default_rng(7)
    for _ in range(4):
        mu = DiscreteMeasure(points=rng.uniform(-1.5, 1.5, (2, 3)),
                             weights=rng.uniform(0.2, 1.0, 2))
        nu = DiscreteMeasure(points=rng.uniform(-1.5, 1.5, (2, 3)),
                             weights=rng.uniform(0.2, 1.0, 2))
        lp = flat_distance(mu, nu, G)
        assert lp.status == "optimal"
        assert abs(lp.value - _bruteforce_flat_distance(mu, nu, G)) <= 1e-6


def test_metric_properties_on_random_triples():
    rng = np.random.default_rng(3)

    def rand_measure(n):
        return DiscreteMeasure(points=rng.uniform(-1, 1, (n, 3)),
                               weights=rng.uniform(0.1, 1.0, n))

    a, b, c = rand_measure(5), rand_measure(5), rand_measure(5)
    dab = flat_distance(a, b, G).value
    dba = flat_distance(b, a, G).value
    dbc = flat_distance(b, c, G).value
    dac = flat_distance(a, c, G).value
    assert abs(dab - dba) <= 1e-9
    assert dac <= dab + dbc + 1e-6
    # total-variation style cap: 2 min(mass) + |mass gap|
    ma, mb = a.weights.sum(), b.weights.sum()
    cap = 2 * min(ma, mb) + abs(ma - mb)
    assert dab <= cap + 1e-9


def test_transported_dirac_bounded_by_quasi_distance():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, 3)
        y = rng.uniform(-1.5, 1.5, 3)
        d = flat_distance(unit_dirac(x), unit_dirac(y), G).value
        assert d <= float(quasi_distance(G, x, y)) + 1e-9


def _random_pair(rng, n=60):
    def rand_measure():
        return DiscreteMeasure(points=rng.uniform(-1.5, 1.5, (n, 3)),
                               weights=rng.uniform(0.1, 1.0, n))

    return rand_measure(), rand_measure()


def test_seed_pairs_match_the_loop():
    from scipy.spatial import cKDTree

    def loop_seeds(points, delta):
        # the double loops the array version replaced
        n = points.shape[0]
        order = np.lexsort(points.T[::-1])
        seeds = {(int(min(a, b)), int(max(a, b))) for a, b in zip(order[:-1], order[1:])}
        if n > 2:
            _, nbr = cKDTree(points).query(points, k=min(9, n))
            for i in range(n):
                for j in nbr[i][1:]:
                    if i != j:
                        seeds.add((min(i, int(j)), max(i, int(j))))
        heavy = np.argsort(-np.abs(delta))[: min(n, 64)]
        for ii in range(len(heavy)):
            for jj in range(ii + 1, len(heavy)):
                a, b = int(heavy[ii]), int(heavy[jj])
                seeds.add((min(a, b), max(a, b)))
        return [i * n + j for i, j in sorted(seeds)]

    rng = np.random.default_rng(5)
    for n in (2, 3, 9, 40, 150):
        points = rng.uniform(-1.5, 1.5, (n, 3))
        delta = rng.normal(size=n)
        assert flat_metric._seed_pairs(points, delta).tolist() == loop_seeds(points, delta)


def test_pruned_lp_is_exact(monkeypatch):
    # three pairs a scan forces many rounds, so slack seed rows leave the
    # LP and violated pairs come back; the final all-pairs scan keeps it exact
    rows_per_round = []
    linprog = flat_metric.linprog

    def counting_linprog(c, A_ub, **kw):
        rows_per_round.append(A_ub.shape[0])
        return linprog(c, A_ub=A_ub, **kw)

    monkeypatch.setattr(flat_metric, "linprog", counting_linprog)
    rng = np.random.default_rng(11)
    for _ in range(3):
        mu, nu = _random_pair(rng)
        monkeypatch.setattr(flat_metric, "_PAIR_TOP_K", 100_000)
        full = flat_distance(mu, nu, G)
        rows_per_round.clear()
        monkeypatch.setattr(flat_metric, "_PAIR_TOP_K", 3)
        pruned = flat_distance(mu, nu, G)
        assert full.status == pruned.status == "optimal"
        assert pruned.rounds > 1
        assert min(rows_per_round[1:]) < rows_per_round[0]
        assert abs(pruned.value - full.value) <= 1e-9


def _all_pairs_scan(points, f, beta, group):
    """The violation scan written out over every pair i < j at once."""
    n = points.shape[0]
    i, j = np.triu_indices(n, k=1)
    v = np.abs(f[i] - f[j]) - beta * quasi_distance(group, points[i], points[j])
    pos = v > 0
    codes = np.where(f[i] > f[j], i * n + j, j * n + i)[pos]
    order = np.lexsort((codes, -v[pos]))[: flat_metric._PAIR_TOP_K]
    return max(0.0, float(v.max())), codes[order]


@pytest.mark.parametrize("name", ["heisenberg1", "engel"])
def test_pair_scan_matches_the_all_pairs_scan(name, monkeypatch):
    # small blocks give many; lattice points tie on every slot, so the
    # scan's order on the first slot has runs of equal keys
    monkeypatch.setattr(flat_metric, "_PAIR_SCAN_BUDGET", 1 << 8)
    group = groups.preset(name)
    rng = np.random.default_rng(4)
    n = 90
    points = np.vstack([rng.uniform(-1.5, 1.5, (n // 2, group.dim)),
                        rng.integers(-3, 4, (n // 2, group.dim)) * 0.5])
    f = rng.uniform(-1.0, 1.0, n)
    cases = {
        "beta = 0": (f, 0.0),  # every pair with f_i != f_j violates
        "w = 0": (np.full(n, 0.3), 0.4),  # no pair violates
        "ordinary": (f, 3.0),  # most pairs lie out of reach
    }
    found = {}
    for label, (fv, beta) in cases.items():
        got_viol, got = flat_metric._pair_scan(points, fv, beta, group)
        want_viol, want = _all_pairs_scan(points, fv, beta, group)
        assert got_viol == want_viol, label
        assert got.tolist() == want.tolist(), label
        found[label] = got.size
    assert found["beta = 0"] == flat_metric._PAIR_TOP_K and found["w = 0"] == 0
    assert 0 < found["ordinary"] < flat_metric._PAIR_TOP_K


def _counting_distance(monkeypatch, scale=1.0):
    """Route the scan's rho through a call counter, times scale."""
    calls = []

    def counted(group, x, y):
        calls.append(len(x))
        return scale * quasi_distance(group, x, y)

    monkeypatch.setattr(flat_metric, "quasi_distance", counted)
    return calls


def _scan_points(group, rng, n=90):
    return np.vstack([rng.uniform(-1.5, 1.5, (n // 2, group.dim)),
                      rng.integers(-3, 4, (n // 2, group.dim)) * 0.5])


@pytest.mark.parametrize("name", ["heisenberg1", "engel"])
def test_a_scan_reads_the_kept_pairs_through_its_own_reach(name, monkeypatch):
    # half of rho breaks rho >= |x_ik - x_jk|, so pairs out of reach do
    # violate, and only the reach tests keep them out of the scan
    monkeypatch.setattr(flat_metric, "_PAIR_SCAN_BUDGET", 1 << 8)
    calls = _counting_distance(monkeypatch, 0.5)
    group = groups.preset(name)
    rng = np.random.default_rng(8)
    points = _scan_points(group, rng)
    f = rng.uniform(-1.0, 1.0, points.shape[0])
    kept = {}
    flat_metric._pair_scan(points, f, 1.0, group, kept)
    assert kept["reach"] == f.max() - f.min() and calls
    for shrink in (1.0, 0.8, 0.5):
        calls.clear()
        got = flat_metric._pair_scan(points, shrink * f, 1.0, group, kept)
        assert not calls  # read from the kept pairs, not walked
        want = flat_metric._pair_scan(points, shrink * f, 1.0, group)
        assert got[0] == want[0] and got[1].tolist() == want[1].tolist(), shrink
        assert got[1].size > 0


@pytest.mark.parametrize("name", ["heisenberg1", "engel"])
def test_a_scan_whose_reach_grows_walks_again(name, monkeypatch):
    monkeypatch.setattr(flat_metric, "_PAIR_SCAN_BUDGET", 1 << 8)
    calls = _counting_distance(monkeypatch)
    group = groups.preset(name)
    rng = np.random.default_rng(4)
    points = _scan_points(group, rng)
    f = rng.uniform(-1.0, 1.0, points.shape[0])
    kept = {}
    flat_metric._pair_scan(points, 0.1 * f, 3.0, group, kept)
    near = kept["reach"]
    calls.clear()
    got_viol, got = flat_metric._pair_scan(points, f, 3.0, group, kept)
    assert calls and kept["reach"] > near
    want_viol, want = _all_pairs_scan(points, f, 3.0, group)
    assert got_viol == want_viol and got.tolist() == want.tolist()
    # some violating pair lies beyond the first scan's reach on the sorted slot
    n = points.shape[0]
    assert (np.abs(points[want // n, 0] - points[want % n, 0]) > near).any()


def test_kept_pairs_change_no_lp_result(monkeypatch):
    from carnotlab.fokker_planck import DriftField, fp_solve, particle_oracle

    calls = _counting_distance(monkeypatch)
    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    pde = fp_solve(rho0, DriftField.none(), 0.25, 0.2, G, store_every=10**9).final
    emp = particle_oracle(rho0, DriftField.none(), 0.25, 0.2, G, n_particles=8192, seed=11)
    rng = np.random.default_rng(11)
    pairs = [_random_pair(rng) for _ in range(3)]
    pairs.append((DiscreteMeasure.from_field(emp, coarsen=2),
                  DiscreteMeasure.from_field(pde, coarsen=2)))
    for mu, nu in pairs:
        runs = {}
        for cap in (0, flat_metric._PAIR_KEEP_BYTES):
            monkeypatch.setattr(flat_metric, "_PAIR_KEEP_BYTES", cap)
            calls.clear()
            runs[cap] = flat_distance(mu, nu, G), len(calls)
        (walked, walks), (read, reads) = runs.values()
        assert walked.rounds > 1 and reads < walks
        assert (read.value, read.status, read.rounds, read.gap) == \
            (walked.value, walked.status, walked.rounds, walked.gap)
        assert np.array_equal(read.optimizer, walked.optimizer)


def _merge_supports_by_dict(mu, nu):
    """The reference merge: union points keyed by their coordinate tuples
    (so 0.0 and -0.0 meet), signed weights summed one by one onto the first."""
    seen, pts, delta = {}, [], []
    for sgn, meas in ((1.0, mu), (-1.0, nu)):
        for p, w in zip(meas.points, meas.weights):
            i = seen.setdefault(tuple(p), len(pts))
            if i == len(pts):
                pts.append(p)
                delta.append(sgn * w)
            else:
                delta[i] += sgn * w
    return np.array(pts), np.array(delta)


def test_merge_supports_matches_the_dict_merge_bit_for_bit():
    rng = np.random.default_rng(5)
    lattice = np.array([[0.0, 0.5, -1.0], [-0.0, 0.5, -1.0], [1.0, 0.0, 0.0],
                        [0.25, -0.0, 2.0], [0.25, 0.0, 2.0], [3.0, 1.0, -0.5]])
    for trial in range(40):
        k, m = rng.integers(1, 12, size=2)
        # repeats within a measure, a +-0.0 pair, and zero weights on either side
        mu = DiscreteMeasure(lattice[rng.integers(0, 6, k)], rng.choice([0.0, 0.1, 0.7, 1.3], k))
        nu = DiscreteMeasure(lattice[rng.integers(0, 6, m)], rng.choice([0.0, 0.2, 0.7, 0.9], m))
        for got, want in zip(flat_metric._merge_supports(mu, nu), _merge_supports_by_dict(mu, nu)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), trial
    # a zero weight that first appears on the nu side stays -0.0
    nu_only = flat_metric._merge_supports(DiscreteMeasure(np.zeros((0, 3)), np.zeros(0)),
                                          DiscreteMeasure(lattice[:1], np.zeros(1)))[1]
    assert np.signbit(nu_only[0]) and nu_only[0] == 0.0


def _dense_two_row_lp(mu, nu, group):
    """The full LP with both rows of every pair, in one dense solve."""
    from scipy.optimize import linprog

    points, delta = flat_metric._merge_supports(mu, nu)
    n = points.shape[0]
    i, j = np.triu_indices(n, k=1)
    d = quasi_distance(group, points[i], points[j])
    k = i.size
    pair = np.zeros((2 * k, n + 2))
    pair[np.arange(k), i] = pair[k + np.arange(k), j] = 1.0
    pair[np.arange(k), j] = pair[k + np.arange(k), i] = -1.0
    pair[:, n + 1] = -np.concatenate([d, d])
    box = np.zeros((2 * n + 1, n + 2))
    box[np.arange(n), np.arange(n)] = 1.0
    box[n + np.arange(n), np.arange(n)] = -1.0
    box[: 2 * n, n] = -1.0
    box[2 * n, n:] = 1.0
    b = np.zeros(2 * k + 2 * n + 1)
    b[-1] = 1.0
    res = linprog(np.concatenate([-delta, [0.0, 0.0]]), A_ub=np.vstack([pair, box]), b_ub=b,
                  bounds=[(-1.0, 1.0)] * n + [(0.0, 1.0)] * 2, method="highs")
    assert res.status == 0
    return -res.fun


def test_oriented_lp_matches_the_dense_two_row_lp():
    rng = np.random.default_rng(21)
    for _ in range(3):
        mu, nu = _random_pair(rng)
        res = flat_distance(mu, nu, G)
        assert res.status == "optimal"
        assert abs(res.value - _dense_two_row_lp(mu, nu, G)) <= 1e-9


def test_flat_distance_scales_with_the_measures():
    mu, nu = _random_pair(np.random.default_rng(2))
    base = flat_distance(mu, nu, G).value
    for c in (1e-3, 1e-8):
        scaled = flat_distance(DiscreteMeasure(mu.points, c * mu.weights),
                               DiscreteMeasure(nu.points, c * nu.weights), G)
        assert scaled.status == "optimal"
        assert abs(scaled.value / c - base) <= 1e-6 * base, c


def test_result_json_shape():
    res = flat_distance(unit_dirac((1, 0, 0)), unit_dirac((0, 0, 0)), G)
    doc = json.loads(json_text(res))
    assert doc["gap"] <= 1e-8


# ---------------------------------------------------------------------------
# measures from fields
# ---------------------------------------------------------------------------

def test_from_field_preserves_mass_under_coarsening(monkeypatch):
    monkeypatch.setattr(flat_metric, "_WEIGHT_FLOOR", 0.0)
    grid = cgrid.default_grid(nodes=41)
    rho = bump_field(grid, G, radius=1.0, normalize=True)
    fine = DiscreteMeasure.from_field(rho, coarsen=1)
    coarse = DiscreteMeasure.from_field(rho, coarsen=2)
    assert abs(fine.weights.sum() - 1.0) <= 1e-12
    assert abs(coarse.weights.sum() - 1.0) <= 1e-12
    # coarse support lives on the 21^3 sublattice
    assert coarse.points.shape[0] <= 21 ** 3


def test_from_field_thresholding_drops_trace_weights():
    grid = cgrid.default_grid(nodes=9)
    vals = np.full(grid.shape, 1e-20)
    vals[4, 4, 4] = 1.0
    m = DiscreteMeasure.from_field(Field(grid, vals))
    assert m.points.shape[0] == 1


def test_measure_csv_round_trip(tmp_path):
    m = DiscreteMeasure(points=np.array([[0.1, -0.2, 0.3], [1.5, 0.0, -2.0]]),
                        weights=np.array([0.25, 0.75]))
    path = tmp_path / "measure.csv"
    cgrid.write_points_csv(path, m.points, m.weights, "weight")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    back = DiscreteMeasure(points=rows[:, :-1], weights=rows[:, -1])
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure(points=np.zeros((1, 3)), weights=np.array([-0.1]))


# ---------------------------------------------------------------------------
# time regularity
# ---------------------------------------------------------------------------

def test_holder_stationary_is_degenerate():
    grid = cgrid.default_grid(nodes=21)
    rho = bump_field(grid, G, radius=1.0, normalize=True)
    traj = Trajectory(tuple(Field(grid, rho.values, t) for t in (0.0, 0.05, 0.1)))
    rep = holder_in_time(traj, G)
    assert rep.verdict == "degenerate"


def test_holder_heat_flow_exponent():
    from carnotlab.fokker_planck import DriftField, fp_solve

    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    traj = fp_solve(rho0, DriftField.none(), 0.25, 0.1, G, store_every=1)
    rep = holder_in_time(traj, G)
    assert rep.verdict == "fitted"
    # upper bound d0 <= C sqrt(|t-s|) admits any fitted slope above it;
    # smooth data decays no slower than exponent 0.4
    assert rep.exponent >= 0.4
    assert rep.exponent <= 1.1


def test_holder_translation_flow_is_lipschitz():
    # constant horizontal drift transports exactly along right translation
    # x -> x * (t b1, t b2, 0); distances grow linearly in t
    grid = cgrid.default_grid(nodes=21)
    pts = np.stack(node_coordinates(grid), axis=-1).reshape(-1, 3)
    b = np.array([0.5, 0.25])

    def snapshot(t):
        shift = np.array([-t * b[0], -t * b[1], 0.0])
        moved = multiply(G, pts, shift)
        s = (hom_norm(G, moved) / 1.0) ** G.norm_root
        vals = np.zeros(s.shape)
        inside = s < 1.0
        vals[inside] = np.exp(1.0 / (s[inside] - 1.0))
        return Field(grid, vals.reshape(grid.shape), t)

    times = (0.0, 0.01, 0.02, 0.04, 0.07, 0.1)
    traj = Trajectory(tuple(snapshot(t) for t in times))
    rep = holder_in_time(traj, G)
    assert rep.verdict == "fitted"
    assert rep.exponent >= 0.9
