"""Frame calculus: symbolic oracles first, the exact polynomial calculus
against them, then the grid stencils."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from carnotlab import preset
from carnotlab.grid import Field, GridSpec, constant_field, default_grid, node_coordinates, node_points
from carnotlab import _stencils, verify
from carnotlab.groups import apply_field, poly_sub, quasi_distance
from conftest import (
    apply_field_analytic,
    commutator_apply,
    coordinate_field,
    coordinate_symbols,
    divergence_analytic,
    poly_to_sympy,
    stratonovich_correction,
)
from carnotlab.vfields import (
    horizontal_gradient,
    horizontal_laplacian,
    left_invariant_fields,
    right_invariant_fields,
)

H1 = preset("heisenberg1")
LEFT = left_invariant_fields(H1)
RIGHT = right_invariant_fields(H1)
X1, X2, X3 = coordinate_symbols(3)


def horizontal_divergence(vf, F: Field) -> Field:
    """sum_i X_i F_i for an m-vector field, by centered differences."""
    assert F.is_vector and F.values.shape[0] == vf.count
    grid = F.grid
    h = grid.spacings
    tables = _stencils.frame_tables(grid, vf)
    out = np.zeros(grid.shape)
    for i, row in enumerate(tables.coef):
        for l, c in enumerate(row):
            if c is not None:
                out += _stencils.times(c, np.gradient(F.values[i], h[l], axis=l, edge_order=2))
    return Field(grid, out, F.t)


def holder_seminorm(f: Field, alpha: float, group, *, rng: np.random.Generator) -> float:
    """Sampled-pair estimate of sup |f(x)-f(y)| / rho(x,y)^alpha: every
    axis-neighbor pair, then 20000 random long-range pairs."""
    grid = f.grid
    vals = f.values.reshape(-1)
    pts = node_points(grid)
    idx = np.arange(grid.num_nodes).reshape(grid.shape)
    pairs = [(np.moveaxis(idx, ax, 0)[:-1].reshape(-1), np.moveaxis(idx, ax, 0)[1:].reshape(-1))
             for ax in range(grid.dim)]
    a = rng.integers(0, grid.num_nodes, size=20000)
    b = rng.integers(0, grid.num_nodes, size=20000)
    pairs.append((a[a != b], b[a != b]))
    best = 0.0
    for a, b in pairs:
        ratio = np.abs(vals[a] - vals[b]) / quasi_distance(group, pts[a], pts[b]) ** alpha
        if ratio.size:
            best = max(best, float(ratio.max()))
    return best


def test_left_frame_on_center_coordinate():
    assert sp.simplify(apply_field_analytic(LEFT, 0, X3) + X2 / 2) == 0
    assert sp.simplify(apply_field_analytic(LEFT, 1, X3) - X1 / 2) == 0


def test_right_frame_on_center_coordinate():
    assert sp.simplify(apply_field_analytic(RIGHT, 0, X3) - X2 / 2) == 0
    assert sp.simplify(apply_field_analytic(RIGHT, 1, X3) + X1 / 2) == 0


def test_hoermander_bracket():
    # [X1, X2] acts as the missing vertical derivative
    assert sp.simplify(commutator_apply(LEFT, 0, LEFT, 1, X3) - 1) == 0
    assert sp.simplify(commutator_apply(LEFT, 0, LEFT, 1, X1)) == 0
    assert sp.simplify(commutator_apply(LEFT, 0, LEFT, 1, X2)) == 0


def _monomials_up_to(deg):
    for powers in itertools.product(range(deg + 1), repeat=3):
        if 0 < sum(powers) <= deg:
            yield X1 ** powers[0] * X2 ** powers[1] * X3 ** powers[2]


def test_left_right_fields_commute():
    for f in _monomials_up_to(4):
        for i in range(2):
            for j in range(2):
                assert sp.simplify(commutator_apply(LEFT, i, RIGHT, j, f)) == 0


def test_left_fields_divergence_free():
    for i in range(2):
        assert divergence_analytic(LEFT, i) == 0
        assert divergence_analytic(RIGHT, i) == 0


def test_stratonovich_correction_vanishes():
    # justifies using the plain Euler-Maruyama drift in the particle scheme
    corr = stratonovich_correction(LEFT)
    assert all(sp.simplify(c) == 0 for c in corr)


@pytest.mark.parametrize("name", ["heisenberg1", "engel"])
@pytest.mark.parametrize("frame", [left_invariant_fields, right_invariant_fields])
def test_polynomial_calculus_matches_sympy(name, frame):
    # X_i f and [X_i, X_j] f on every monomial through degree 4, the
    # divergence and the Ito correction: the same polynomials by both routes
    vf = frame(preset(name))
    xs = coordinate_symbols(vf.dim)

    def same(poly, expr):
        return sp.expand(poly_to_sympy(poly, xs) - expr) == 0

    fields = vf.coefficients
    for exps in itertools.product(range(5), repeat=vf.dim):
        if not 0 < sum(exps) <= 4:
            continue
        f = ((Fraction(1), exps),)
        f_sym = poly_to_sympy(f, xs)
        for i, a in enumerate(fields):
            assert same(apply_field(a, f), apply_field_analytic(vf, i, f_sym))
            for j, b in enumerate(fields):
                got = poly_sub(apply_field(a, apply_field(b, f)), apply_field(b, apply_field(a, f)))
                assert same(got, commutator_apply(vf, i, vf, j, f_sym))
    for i, a in enumerate(fields):
        assert same(verify.frame_divergence(a), divergence_analytic(vf, i))
    for got, want in zip(verify.ito_correction(vf), stratonovich_correction(vf), strict=True):
        assert same(got, want)


def test_swapped_frames_fail_the_bracket_by_both_routes():
    # [Y_1, Y_2] = -d_3, so the 20 monomials that hold x3 fail [X_1, X_2] = d_3;
    # left and right fields still commute
    assert verify.bracket_failures(RIGHT, LEFT) == (20, 0, 34)
    assert verify.bracket_failures(LEFT, RIGHT) == (0, 0, 34)
    oracle = sum(sp.expand(commutator_apply(RIGHT, 0, RIGHT, 1, f) - sp.diff(f, X3)) != 0
                 for f in _monomials_up_to(4))
    assert oracle == 20


def test_gradient_of_constant_is_zero():
    grid = default_grid(nodes=11)
    g = horizontal_gradient(LEFT, constant_field(grid, 4.2))
    assert np.all(g.values == 0.0)


def test_gradient_exact_on_linear():
    grid = default_grid(nodes=11)
    xs, ys, zs = node_coordinates(grid)
    g = horizontal_gradient(LEFT, Field(grid, xs.copy()))
    assert np.allclose(g.values[0], 1.0, atol=1e-13)
    assert np.allclose(g.values[1], 0.0, atol=1e-13)


def test_gradient_exact_on_center_coordinate():
    grid = default_grid(nodes=11)
    xs, ys, zs = node_coordinates(grid)
    g = horizontal_gradient(LEFT, Field(grid, zs.copy()))
    assert np.abs(g.values[0] + ys / 2).max() <= 1e-13
    assert np.abs(g.values[1] - xs / 2).max() <= 1e-13


def _telescopes(lap: np.ndarray) -> bool:
    # zero flux through the box edge: the node sum of the flux form is 0
    return abs(float(lap.sum())) <= 1e-12 * float(np.abs(lap).sum())


def test_laplacian_exact_cases():
    grid = default_grid(nodes=11)
    xs, ys, zs = node_coordinates(grid)
    inner = (slice(1, -1),) * 3
    lap_x2 = horizontal_laplacian(LEFT, Field(grid, xs**2)).values
    assert np.allclose(lap_x2[inner], 2.0, atol=1e-12)
    lap_z = horizontal_laplacian(LEFT, Field(grid, zs.copy())).values
    assert np.abs(lap_z[inner]).max() <= 1e-12
    assert _telescopes(lap_x2) and _telescopes(lap_z)
    assert np.all(horizontal_laplacian(LEFT, constant_field(grid, -3.0)).values == 0.0)


@pytest.mark.parametrize("frame", [left_invariant_fields, right_invariant_fields])
def test_laplacian_first_order_term_on_engel(frame):
    # Engel's frames carry c_4 = sum_ik a_ik d_k a_i4 = x2/6, and on the
    # linear x4 div(A grad x4) = sum_k d_k A_k4 is c_4 alone
    grid = GridSpec((-2.0,) * 4, (2.0,) * 4, (9,) * 4)
    coords = node_coordinates(grid)
    lap = horizontal_laplacian(frame(preset("engel")), Field(grid, coords[3])).values
    inner = (slice(1, -1),) * 4
    assert np.abs(lap - coords[1] / 6)[inner].max() <= 1e-12
    assert _telescopes(lap)


def test_divergence_trivial_cases():
    grid = default_grid(nodes=11)
    xs, ys, zs = node_coordinates(grid)
    const = Field(grid, np.stack([np.full(grid.shape, 2.0), np.full(grid.shape, -1.0)]))
    assert np.abs(horizontal_divergence(LEFT, const).values).max() <= 1e-13
    rot = Field(grid, np.stack([ys.copy(), -xs.copy()]))
    # X1 x2 + X2 (-x1) = 0
    assert np.abs(horizontal_divergence(LEFT, rot).values).max() <= 1e-12


def test_divergence_of_gradient_consistent_with_laplacian():
    # degree-4 data: the composed first-difference route and the face-flux
    # route commit different O(h^2) errors, which must shrink at second
    # order together
    f = lambda x, y, z: x**4 + y**4 + x * z**2
    errs = []
    for nodes in (21, 41):
        grid = default_grid(nodes=nodes)
        xs, ys, zs = node_coordinates(grid)
        fld = Field(grid, f(xs, ys, zs))
        via_div = horizontal_divergence(LEFT, horizontal_gradient(LEFT, fld))
        direct = horizontal_laplacian(LEFT, fld)
        sl = (slice(3, -3),) * 3
        errs.append(np.abs(via_div.values - direct.values)[sl].max())
    assert errs[0] > 1e-8  # genuinely inexact data, the order test is live
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_laplacian_stencil_order():
    # degree-4 family; interior error must drop at second order under refinement
    polys = [
        lambda x, y, z: x**4 + y**4,
        lambda x, y, z: x**2 * y**2 + z * x,
        lambda x, y, z: z**2 + x * y * z,
        lambda x, y, z: x**3 * y - y**2 * z,
    ]
    lap = {}
    for name, p in enumerate(polys):
        f = p(X1, X2, X3)
        exact = sp.expand(
            sp.diff(f, X1, 2)
            + sp.diff(f, X2, 2)
            + (X1**2 + X2**2) / 4 * sp.diff(f, X3, 2)
            + X1 * sp.diff(f, X2, X3)
            - X2 * sp.diff(f, X1, X3)
        )
        lap[name] = sp.lambdify((X1, X2, X3), exact, "numpy")
    for name, p in enumerate(polys):
        errs = []
        for nodes in (21, 41):
            grid = default_grid(nodes=nodes)
            xs, ys, zs = node_coordinates(grid)
            got = horizontal_laplacian(LEFT, Field(grid, p(xs, ys, zs))).values
            want = np.broadcast_to(lap[name](xs, ys, zs), grid.shape)
            sl = (slice(2, -2),) * 3
            errs.append(np.abs(got - want)[sl].max())
        if errs[0] <= 1e-11:
            assert errs[1] <= 1e-10  # stencil exact on this entry
        else:
            assert np.log2(errs[0] / errs[1]) >= 1.9


def test_grid_commutator_matches_vertical_derivative():
    # stencil commutator [X1, X2] recovers the vertical derivative on
    # cubic data, to second order or better
    f = lambda x, y, z: x**2 * y + z * y + x**3 * z
    df3 = lambda x, y, z: y + x**3
    errs = []
    for nodes in (21, 41):
        grid = default_grid(nodes=nodes)
        xs, ys, zs = node_coordinates(grid)
        fld = Field(grid, f(xs, ys, zs))
        g1 = horizontal_gradient(LEFT, fld)
        x1x2 = horizontal_gradient(LEFT, Field(grid, g1.values[1])).values[0]
        x2x1 = horizontal_gradient(LEFT, Field(grid, g1.values[0])).values[1]
        comm = x1x2 - x2x1
        # fixed comparison region so the two resolutions see the same points
        core = (np.abs(xs) <= 1.0) & (np.abs(ys) <= 1.0) & (np.abs(zs) <= 1.0)
        errs.append(np.abs(comm - df3(xs, ys, zs))[core].max())
    assert errs[1] <= 1e-8 or np.log2(errs[0] / errs[1]) >= 1.9


def test_coordinate_field_is_plain_derivative():
    vf = coordinate_field(3, 0)
    assert sp.simplify(apply_field_analytic(vf, 0, X1**2 + X3) - 2 * X1) == 0
    # does not commute with the left frame: the bracket with X2 survives
    assert sp.simplify(commutator_apply(vf, 0, LEFT, 1, X3)) != 0


def test_holder_seminorm_constant():
    grid = default_grid(nodes=9)
    assert holder_seminorm(constant_field(grid, 1.0), 0.5, H1, rng=np.random.default_rng(0)) == 0.0


def test_holder_seminorm_norm_function():
    grid = default_grid(nodes=21)
    xs, ys, zs = node_coordinates(grid)
    from carnotlab.groups import hom_norm

    pts = np.stack([xs, ys, zs], axis=-1)
    fld = Field(grid, hom_norm(H1, pts))
    h = grid.spacings[0]
    s = holder_seminorm(fld, 1.0, H1, rng=np.random.default_rng(1))
    assert s >= 1.0 - h
    assert np.isfinite(s)


def test_holder_seminorm_ramp_monotone_in_sharpness():
    grid = default_grid(nodes=21)
    xs, _, _ = node_coordinates(grid)
    vals = []
    for sharp in (2.0, 8.0):
        fld = Field(grid, np.tanh(sharp * xs))
        vals.append(holder_seminorm(fld, 0.5, H1, rng=np.random.default_rng(2)))
    assert vals[1] > vals[0]
