"""Heat flow: conservation, contraction, degeneracy signature, gradient decay."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from carnotlab import _stencils, preset
from carnotlab.grid import Field, bump_field, constant_field, default_grid, node_coordinates
from carnotlab.groups import hom_norm
from carnotlab.heat import CFLViolation, evolve, heat_step, measure_gradient_decay, stable_dt
from carnotlab.vfields import horizontal_gradient, left_invariant_fields

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
    dt = stable_dt(grid, H1, 0.25)
    out = heat_step(c, 0.25, dt, H1)
    assert np.array_equal(out.values, c.values)


def test_cfl_violation_refused():
    grid = default_grid(nodes=21)
    f = bump_field(grid, H1, radius=1.0)
    with pytest.raises(CFLViolation):
        heat_step(f, 0.25, 1.0, H1)


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
    two_leg = evolve(evolve(f0, 0.25, 8 * dt, H1, dt=dt), 0.25, 12 * dt, H1, dt=dt)
    one_leg = evolve(f0, 0.25, 12 * dt, H1, dt=dt)
    assert np.abs(two_leg.values - one_leg.values).max() <= 1e-10


def test_vertical_diffusion_degenerates_on_axis():
    # data varying only in x3: the generator reduces to A33 d33, and A33 = 0
    # on the x1 = x2 = 0 axis, so the first update vanishes exactly there
    grid = default_grid(nodes=21)
    _, _, zs = node_coordinates(grid)
    f = Field(grid, np.sin(zs))
    dt = stable_dt(grid, H1, 0.25)
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


def test_gradient_decay_exponent_rough_data():
    grid = default_grid(nodes=41)
    rep = measure_gradient_decay(_indicator(grid), 0.25, 0.2, H1)
    assert -0.65 <= rep.slope <= -0.35
    assert rep.constant > 0
    payload = rep.to_json()
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


def test_face_geometry_is_cached_by_law_not_by_name(monkeypatch):
    # twice the bracket under the same name must not reuse cached faces
    one = Fraction(1)
    doubled = dataclasses.replace(H1, law=((), (), ((one, (1, 0, 0), (0, 1, 0)),
                                                    (-one, (0, 1, 0), (1, 0, 0)))))
    grid = default_grid(nodes=15)
    f = bump_field(grid, H1, radius=1.0)
    monkeypatch.setattr(_stencils, "_GEOM_CACHE", {})
    evolve(f, 0.25, 0.05, H1)
    warm = evolve(f, 0.25, 0.05, doubled)
    monkeypatch.setattr(_stencils, "_GEOM_CACHE", {})
    cold = evolve(f, 0.25, 0.05, doubled)
    assert np.array_equal(warm.values, cold.values)
