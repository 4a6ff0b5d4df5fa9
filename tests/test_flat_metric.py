"""Flat-distance LP against closed forms and a vertex-enumeration oracle,
plus the smoothing-kernel contracts."""

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from carnotlab import flat_metric
from carnotlab import grid as cgrid
from carnotlab import groups, vfields
from carnotlab.flat_metric import (
    DiscreteMeasure,
    MollifierSpec,
    flat_distance,
    holder_in_time,
    kernel_field,
    mollify,
    two_dirac_distance,
)
from carnotlab.grid import Field, GridSpec, Trajectory, bump_field, node_coordinates
from carnotlab.groups import hom_norm, multiply, quasi_distance

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
    cap = 2 * min(a.total, b.total) + abs(a.total - b.total)
    assert dab <= cap + 1e-9


def test_transported_dirac_bounded_by_quasi_distance():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, 3)
        y = rng.uniform(-1.5, 1.5, 3)
        d = flat_distance(unit_dirac(x), unit_dirac(y), G).value
        assert d <= float(quasi_distance(G, x, y)) + 1e-9


def test_result_json_shape():
    res = flat_distance(unit_dirac((1, 0, 0)), unit_dirac((0, 0, 0)), G)
    doc = json.loads(json.dumps(res.to_json_dict()))
    assert set(doc) == {"value", "status", "gap", "rounds"}
    assert doc["gap"] <= 1e-8


# ---------------------------------------------------------------------------
# measures from fields
# ---------------------------------------------------------------------------

def test_from_field_preserves_mass_under_coarsening():
    grid = cgrid.default_grid(nodes=41)
    rho = bump_field(grid, G, radius=1.0, normalize=True)
    fine = DiscreteMeasure.from_field(rho, coarsen=1, threshold=0.0)
    coarse = DiscreteMeasure.from_field(rho, coarsen=2, threshold=0.0)
    assert abs(fine.total - 1.0) <= 1e-12
    assert abs(coarse.total - 1.0) <= 1e-12
    # coarse support lives on the 21^3 sublattice
    assert coarse.points.shape[0] <= 21 ** 3


def test_from_field_thresholding_drops_trace_weights():
    grid = cgrid.default_grid(nodes=9)
    vals = np.full(grid.shape, 1e-20)
    vals[4, 4, 4] = 1.0
    m = DiscreteMeasure.from_field(Field(grid, vals), threshold=1e-12)
    assert m.points.shape[0] == 1


def test_measure_csv_round_trip(tmp_path):
    m = DiscreteMeasure(points=np.array([[0.1, -0.2, 0.3], [1.5, 0.0, -2.0]]),
                        weights=np.array([0.25, 0.75]))
    path = tmp_path / "measure.csv"
    m.to_csv(path)
    back = DiscreteMeasure.from_csv(path)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure(points=np.zeros((1, 3)), weights=np.array([-0.1]))


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

def test_mollifier_requires_resolvable_eps():
    grid = cgrid.default_grid(nodes=41)
    with pytest.raises(ValueError):
        MollifierSpec.build(0.2, grid, G)  # h = 0.1, need eps >= 0.3


def test_kernel_mass_and_support():
    grid = cgrid.default_grid(nodes=41)
    m = MollifierSpec.build(0.4, grid, G)
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    kf = kernel_field(m, grid, G)
    assert abs(kf.integral() - 1.0) <= 1e-10
    pts = np.stack(node_coordinates(grid), axis=-1).reshape(-1, 3)
    norms = hom_norm(G, pts).reshape(grid.shape)
    assert np.all(kf.values[norms >= m.eps] == 0.0)


def test_mollify_dirac_returns_kernel():
    grid = cgrid.default_grid(nodes=41)
    m = MollifierSpec.build(0.4, grid, G)
    vals = np.zeros(grid.shape)
    vals[20, 20, 20] = 1.0 / grid.cell_volume
    smoothed = mollify(Field(grid, vals), m, G)
    kf = kernel_field(m, grid, G)
    assert np.abs(smoothed.values - kf.values).max() <= 1e-10 * kf.values.max()


def test_mollify_preserves_mass_and_sup():
    grid = cgrid.default_grid(nodes=41)
    rho = bump_field(grid, G, radius=1.0, normalize=True)
    for eps in (0.4, 0.8):
        m = MollifierSpec.build(eps, grid, G)
        out = mollify(rho, m, G)
        assert abs(out.integral() - rho.integral()) <= 1e-8
        assert out.values.max() <= rho.values.max() * (1 + 1e-6)
        assert out.values.min() >= -1e-15


def test_kernel_gradient_scaling_chain():
    # sup |grad(kernel_eps)| scales like eps^-(Q+1); compare the measured
    # finite-difference sups at eps 0.4 and 0.8 with the homogeneity
    # prediction (up to the small discrete-normalization drift in C)
    grid = GridSpec((-1.0,) * 3, (1.0,) * 3, (121,) * 3)
    vf = vfields.left_invariant_fields(G)

    def grad_sup(field):
        g = vfields.horizontal_gradient(vf, field)
        return float(np.sqrt((g.values**2).sum(axis=0)).max())

    m04 = MollifierSpec.build(0.4, grid, G)
    m08 = MollifierSpec.build(0.8, grid, G)
    s04 = grad_sup(kernel_field(m04, grid, G))
    s08 = grad_sup(kernel_field(m08, grid, G))
    q = G.homogeneous_dimension
    predicted = (0.8 / 0.4) ** (q + 1) * m04.C / m08.C
    assert abs(s04 / s08 / predicted - 1.0) <= 0.05


def test_mollify_sup_error_for_lipschitz_data():
    # ||phi - phi_eps||_inf <= (1 + 1e-1) eps for 1-Lipschitz phi
    grid = cgrid.default_grid(nodes=41)
    pts = np.stack(node_coordinates(grid), axis=-1)
    norms = hom_norm(G, pts.reshape(-1, 3)).reshape(grid.shape)
    family = {
        "norm": norms,
        "x1": pts[..., 0],
        "tanh_x2": np.tanh(pts[..., 1]),
    }
    for eps in (0.4, 0.8):
        m = MollifierSpec.build(eps, grid, G)
        pad = int(np.ceil(eps / grid.spacings[0])) + 1
        interior = (slice(pad, -pad),) * 3
        for name, vals in family.items():
            phi = Field(grid, vals)
            out = mollify(phi, m, G)
            err = np.abs(out.values[interior] - vals[interior]).max()
            assert err <= (1 + 1e-1) * eps, f"{name} at eps={eps}: {err}"


def _loop_mollify(rho, m, group):
    """The per-offset loop with the heisenberg1 vertical term written out
    by hand; the operator must reproduce it on that law."""
    grid = rho.grid
    h1, h2, h3 = grid.spacings
    X, Y, _ = node_coordinates(grid)
    n3 = grid.shape[2]
    out = np.zeros_like(rho.values)
    base_idx = np.arange(n3)
    for (u1, u2, u3), w in zip(m.offsets, m.weights):
        i_off = int(round(u1 / h1))
        j_off = int(round(u2 / h2))
        shifted = np.zeros_like(rho.values)
        src_i = slice(max(0, i_off), grid.shape[0] + min(0, i_off))
        dst_i = slice(max(0, -i_off), grid.shape[0] - max(0, i_off))
        src_j = slice(max(0, j_off), grid.shape[1] + min(0, j_off))
        dst_j = slice(max(0, -j_off), grid.shape[1] - max(0, j_off))
        shifted[dst_i, dst_j, :] = rho.values[src_i, src_j, :]
        s = u3 + 0.5 * (X[:, :, 0] * u2 - Y[:, :, 0] * u1)
        steps = s / h3
        lo = np.floor(steps).astype(int)
        frac = steps - lo
        k_lo = base_idx[None, None, :] + lo[:, :, None]
        k_hi = k_lo + 1
        v_lo = np.where((k_lo >= 0) & (k_lo < n3), np.take_along_axis(shifted, k_lo.clip(0, n3 - 1), axis=2), 0.0)
        v_hi = np.where((k_hi >= 0) & (k_hi < n3), np.take_along_axis(shifted, k_hi.clip(0, n3 - 1), axis=2), 0.0)
        out += w * ((1 - frac[:, :, None]) * v_lo + frac[:, :, None] * v_hi)
    return out


def _doubled_bracket():
    """A 3-d law under heisenberg1's name with twice its bracket."""
    one = Fraction(1)
    return dataclasses.replace(G, law=((), (), ((one, (1, 0, 0), (0, 1, 0)),
                                                 (-one, (0, 1, 0), (1, 0, 0)))))


def _translates_inside(grid, group, m):
    """Nodes x whose translates x * u stay in the box for every offset u."""
    pts = cgrid.node_points(grid)
    lo, hi = np.array(grid.lower), np.array(grid.upper)
    ok = np.ones(pts.shape[0], dtype=bool)
    for u in m.offsets:
        y = multiply(group, pts, u)
        ok &= np.all((y >= lo) & (y <= hi), axis=1)
    return ok.reshape(grid.shape)


def test_mollify_operator_and_stream_match_the_loop(monkeypatch):
    grid = cgrid.default_grid(nodes=21)
    rng = np.random.default_rng(3)
    stack = np.stack([bump_field(grid, G, radius=1.0, normalize=True).values,
                      rng.uniform(-1.0, 1.0, grid.shape)])
    stored = MollifierSpec.build(0.8, grid, G)
    want = np.stack([_loop_mollify(Field(grid, v), stored, G) for v in stack])
    assert np.abs(mollify(Field(grid, stack), stored, G).values - want).max() <= 1e-12
    assert np.abs(mollify(Field(grid, stack[1]), stored, G).values - want[1]).max() <= 1e-12
    assert list(stored._operators) == [(grid, G)]

    monkeypatch.setattr(flat_metric, "_OPERATOR_BUDGET_BYTES", 0)
    streamed = MollifierSpec.build(0.8, grid, G)
    assert np.abs(mollify(Field(grid, stack), streamed, G).values - want).max() <= 1e-12
    assert streamed._operators == {}


def test_mollify_follows_the_group_law():
    # phi is affine in x3 on every vertical column, so interpolation is
    # exact and mollify must equal sum_u w_u phi(x * u) wherever the
    # translates stay in the box; the hand-written heisenberg1 term
    # reads the wrong columns on this law
    law = _doubled_bracket()
    grid = cgrid.default_grid(nodes=21)
    m = MollifierSpec.build(0.8, grid, law)

    def phi(x):
        return (1.0 + x[..., 0] - 0.5 * x[..., 1]) * x[..., 2] + x[..., 0] ** 2

    pts = cgrid.node_points(grid)
    want = sum(w * phi(multiply(law, pts, u)) for u, w in zip(m.offsets, m.weights))
    want = want.reshape(grid.shape)
    inside = _translates_inside(grid, law, m)
    assert inside.sum() > 100
    data = Field(grid, phi(pts).reshape(grid.shape))
    got = mollify(data, m, law).values
    assert np.abs(got - want)[inside].max() <= 1e-12
    assert np.abs(_loop_mollify(data, m, law) - want)[inside].max() > 1e-2


def test_mollifier_operator_is_stored_under_budget_and_keyed_by_value():
    small = cgrid.default_grid(nodes=21)
    m = MollifierSpec.build(0.8, small, G)
    op = flat_metric._operator(m, small, G)
    assert op.nnz > 2_000_000
    assert flat_metric._operator(m, cgrid.default_grid(nodes=21), groups.preset("heisenberg1")) is op
    assert list(m._operators) == [(small, G)]

    large = cgrid.default_grid(nodes=41)
    m41 = MollifierSpec.build(0.8, large, G)
    assert flat_metric._operator(m41, large, G) is None
    assert m41._operators == {}


def test_mollify_on_engel_keeps_mass_and_sup():
    E = groups.preset("engel")
    grid = GridSpec((-1.5,) * 4, (1.5,) * 4, (11,) * 4)
    m = MollifierSpec.build(0.9, grid, E)
    ones = mollify(Field(grid, np.ones(grid.shape)), m, E).values
    inside = _translates_inside(grid, E, m)
    assert inside.sum() > 0
    assert np.abs(ones[inside] - 1.0).max() <= 1e-12

    rho = bump_field(grid, E, radius=0.7, normalize=True)
    out = mollify(rho, m, E)
    assert abs(out.integral() - rho.integral()) <= 1e-12
    assert out.values.max() <= rho.values.max()
    assert out.values.min() >= 0.0


# ---------------------------------------------------------------------------
# time regularity
# ---------------------------------------------------------------------------

def test_holder_stationary_is_degenerate():
    grid = cgrid.default_grid(nodes=21)
    rho = bump_field(grid, G, radius=1.0, normalize=True)
    traj = Trajectory(times=(0.0, 0.05, 0.1), fields=(rho, rho, rho))
    rep = holder_in_time(traj, G, coarsen=2)
    assert rep.verdict == "degenerate"


def test_holder_heat_flow_exponent():
    from carnotlab.fokker_planck import DriftField, fp_solve

    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    traj = fp_solve(rho0, DriftField.none(), 0.25, 0.1, G, store_every=1)
    rep = holder_in_time(traj, G, coarsen=2)
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
    traj = Trajectory(times=times, fields=tuple(snapshot(t) for t in times))
    rep = holder_in_time(traj, G, coarsen=2)
    assert rep.verdict == "fitted"
    assert rep.exponent >= 0.9
