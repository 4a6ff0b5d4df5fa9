"""Heat flow: conservation, contraction, degeneracy signature, gradient decay."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from carnotlab import _stencils, preset
from carnotlab.fokker_planck import DriftField, fp_solve
from carnotlab.grid import (CFL_SAFETY, CFLViolation, Field, GridSpec, bump_field, constant_field,
                            default_grid, max_stable_dt, node_coordinates)
from carnotlab.groups import hom_norm
from carnotlab.heat import evolve, heat_step, measure_gradient_decay
from carnotlab.report import json_text
from carnotlab.vfields import horizontal_gradient, horizontal_laplacian, left_invariant_fields

H1 = preset("heisenberg1")


def _indicator(grid):
    pts = np.stack(node_coordinates(grid), axis=-1)
    return Field(grid, (hom_norm(H1, pts) < 1.0).astype(float))


def test_zero_step_is_identity():
    grid = default_grid(nodes=9)
    f = bump_field(grid, H1, radius=1.0)
    assert heat_step(f, 0.25, 0.0, H1) is f


def test_constant_is_fixed_point():
    grid = default_grid(nodes=15)
    c = constant_field(grid, 3.7)
    dt = CFL_SAFETY * max_stable_dt(grid, H1, 0.25)
    out = heat_step(c, 0.25, dt, H1)
    assert np.array_equal(out.values, c.values)


def test_cfl_violation_refused():
    grid = default_grid(nodes=21)
    f = bump_field(grid, H1, radius=1.0)
    with pytest.raises(CFLViolation):
        heat_step(f, 0.25, 1.0, H1)


def test_oversized_dt_and_non_finite_steps_raise_cfl_violation():
    grid = default_grid(nodes=15)
    f = bump_field(grid, H1, radius=1.0)
    limit = max_stable_dt(grid, H1, 0.25)
    with pytest.raises(CFLViolation, match="exceeds stability bound"):
        fp_solve(f, DriftField.none(), 0.25, 10 * limit, H1, steps=5)
    # finite data whose step overflows
    huge = Field(grid, 1e308 * f.values)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(CFLViolation, match="non-finite"):
        heat_step(huge, 0.25, limit, H1)


@pytest.mark.parametrize("group, nodes", [("heisenberg1", 15), ("engel", 9)])
def test_heat_step_is_forward_euler_on_the_certified_laplacian(group, nodes):
    # the calculus suite certifies horizontal_laplacian: the heat step must
    # step with that operator at every node, box edges included
    G = preset(group)
    grid = GridSpec((-2.0,) * G.dim, (2.0,) * G.dim, (nodes,) * G.dim)
    f = Field(grid, np.random.default_rng(7).standard_normal(grid.shape))
    sigma = 0.25
    dt = CFL_SAFETY * max_stable_dt(grid, G, sigma)
    lap = horizontal_laplacian(left_invariant_fields(G), f).values
    got = heat_step(f, sigma, dt, G).values
    assert np.abs(got - (f.values + dt * sigma * lap)).max() <= 1e-14 * np.abs(f.values).max()


def test_mass_conserved():
    grid = default_grid(nodes=21)
    f0 = bump_field(grid, H1, radius=1.2, normalize=True)
    f1 = evolve(f0, 0.25, 0.05, H1)
    assert abs(f1.integral() - f0.integral()) <= 1e-8 * abs(f0.integral())


def test_sup_norm_contraction():
    grid = default_grid(nodes=21)
    f0 = bump_field(grid, H1, radius=1.2)
    sup0 = f0.sup_norm()
    f = f0
    for t in (0.01, 0.02, 0.05):
        f = evolve(f, 0.25, t, H1)
        assert f.sup_norm() <= sup0 * (1 + 1e-3)


def test_semigroup_composition():
    grid = default_grid(nodes=15)
    f0 = bump_field(grid, H1, radius=1.2)
    dt = 2.0**-10
    none = DriftField.none()
    first = fp_solve(f0, none, 0.25, 8 * dt, H1, steps=8, store_every=0).final
    two_leg = fp_solve(first, none, 0.25, 12 * dt, H1, steps=4, store_every=0).final
    one_leg = fp_solve(f0, none, 0.25, 12 * dt, H1, steps=12, store_every=0).final
    assert np.abs(two_leg.values - one_leg.values).max() <= 1e-10


def test_vertical_diffusion_degenerates_on_axis():
    # data varying only in x3: the generator reduces to A33 d33, and A33 = 0
    # on the x1 = x2 = 0 axis, so the first update vanishes exactly there
    grid = default_grid(nodes=21)
    _, _, zs = node_coordinates(grid)
    f = Field(grid, np.sin(zs))
    dt = CFL_SAFETY * max_stable_dt(grid, H1, 0.25)
    out = heat_step(f, 0.25, dt, H1)
    mid = grid.shape[0] // 2
    update = out.values - f.values
    assert np.abs(update[mid, mid, :]).max() == 0.0
    assert np.abs(update).max() > 1e-4


def test_comparison_principle_with_tolerance():
    grid = default_grid(nodes=21)
    f1 = bump_field(grid, H1, radius=1.0)
    f2 = Field(grid, f1.values + 0.3 * bump_field(grid, H1, radius=1.5).values)
    assert np.all(f1.values <= f2.values)
    g1 = evolve(f1, 0.25, 0.05, H1)
    g2 = evolve(f2, 0.25, 0.05, H1)
    assert np.all(g1.values <= g2.values + 1e-3 * f2.sup_norm())


def _mehler_heat_h1(s: float, grid, w: float, v: float) -> np.ndarray:
    """The exact heat flow e^{s lap_G} u0 on H^1 for u0 = exp(-|x|^2/w^2 - z^2/v^2).

    The Fourier transform in z (frequency lam) turns X_1^2 + X_2^2 on
    functions of |x| into the oscillator lap_x - (lam^2/4)|x|^2, which maps
    the Gaussian c exp(-a|x|^2) to a Gaussian (Mehler's formula; Hulanicki,
    Studia Math. 56, 1976; Gaveau, Acta Math. 139, 1977):

        u = (1/pi) int_0^inf cos(lam z) F0(lam) y^-1 exp(-a|x|^2) dlam,
        F0 = v sqrt(pi) exp(-lam^2 v^2/4),  y = cosh(lam s) + 4 a0 sinh(lam s)/lam,
        a = (lam sinh(lam s) + 4 a0 cosh(lam s)) / (4 y),  a0 = 1/w^2,

    taken by the trapezoid rule on 201 nodes of [0, 24].  The integrand
    splits into a radial and a vertical factor, so one matrix product
    evaluates every node.
    """
    lam = np.linspace(0.0, 24.0, 201)
    weight = np.full(lam.size, lam[1] - lam[0])
    weight[[0, -1]] /= 2
    a0 = 1.0 / w**2
    safe = np.where(lam > 0, lam, 1.0)
    sinh_over_lam = np.where(lam > 0, np.sinh(lam * s) / safe, s)
    y = np.cosh(lam * s) + 4 * a0 * sinh_over_lam
    a = (lam * np.sinh(lam * s) + 4 * a0 * np.cosh(lam * s)) / (4 * y)
    f0 = v * np.sqrt(np.pi) * np.exp(-(lam * v) ** 2 / 4)
    xs, ys, zs = grid.axes()
    r2 = (xs[:, None] ** 2 + ys[None, :] ** 2).reshape(-1, 1)
    radial = weight * f0 / (np.pi * y) * np.exp(-a * r2)
    return (radial @ np.cos(np.outer(lam, zs))).reshape(grid.shape)


def test_heat_flow_matches_mehlers_formula_at_second_order():
    # the Gaussian datum keeps face values near 7e-6 up to T, so the
    # zero-flux box edge costs far less than the scheme's own error
    sigma, t_end, w, v = 0.25, 0.1, 0.5, 0.5
    errors = []
    for nodes in (21, 41):
        grid = default_grid(nodes=nodes)
        x, y, z = node_coordinates(grid)
        u0 = np.exp(-(x**2 + y**2) / w**2 - z**2 / v**2)
        assert np.abs(_mehler_heat_h1(0.0, grid, w, v) - u0).max() <= 1e-14
        got = evolve(Field(grid, u0), sigma, t_end, H1).values
        errors.append(float(np.abs(got - _mehler_heat_h1(sigma * t_end, grid, w, v)).max()))
    coarse, fine = errors
    assert fine <= 3.5e-4, errors
    assert coarse / fine >= 3.8, errors


def test_gradient_decay_exponent_rough_data():
    grid = default_grid(nodes=41)
    rep = measure_gradient_decay(_indicator(grid), 0.25, 0.2, H1)
    assert -0.65 <= rep.slope <= -0.35
    assert rep.constant > 0
    payload = json_text(rep)
    assert '"slope"' in payload


def test_gradient_no_blowup_smooth_data():
    grid = default_grid(nodes=21)
    f0 = bump_field(grid, H1, radius=1.5)
    vf = left_invariant_fields(H1)
    g0 = horizontal_gradient(vf, f0)
    sup0 = float(np.sqrt((g0.values**2).sum(axis=0)).max())
    rep = measure_gradient_decay(f0, 0.25, 0.1, H1)
    assert max(rep.grad_sup) <= sup0 * (1 + 1e-2)


def test_gradient_of_constant_stays_zero():
    grid = default_grid(nodes=15)
    rep = measure_gradient_decay(constant_field(grid, 1.0), 0.25, 0.5, H1)
    assert all(s == 0.0 for s in rep.grad_sup)


def test_decay_report_json_is_strict_on_a_constant_datum():
    grid = default_grid(nodes=21)
    rep = measure_gradient_decay(constant_field(grid, 1.0), 0.25, 0.5, H1)
    assert np.isnan(rep.slope)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(json_text(rep), parse_constant=reject)
    assert doc["slope"] is None


def test_face_geometry_is_cached_by_law_not_by_name():
    # twice the bracket under the same name must not reuse cached faces
    one = Fraction(1)
    doubled = dataclasses.replace(H1, law=((), (), ((one, (1, 0, 0), (0, 1, 0)),
                                                    (-one, (0, 1, 0), (1, 0, 0)))))
    grid = default_grid(nodes=15)
    f = bump_field(grid, H1, radius=1.0)
    _stencils.frame_tables.cache_clear()
    evolve(f, 0.25, 0.05, H1)
    warm = evolve(f, 0.25, 0.05, doubled)
    _stencils.frame_tables.cache_clear()
    cold = evolve(f, 0.25, 0.05, doubled)
    assert np.array_equal(warm.values, cold.values)
