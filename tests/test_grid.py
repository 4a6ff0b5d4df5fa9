import json
import math
import os

import numpy as np
import pytest

from carnotlab import preset
from carnotlab.grid import (
    Field,
    GridSpec,
    bump_field,
    constant_field,
    default_grid,
    dump_field_csv,
    make_ball_mask,
    Trajectory,
    march,
    max_stable_dt,
    node_coordinates,
    step_count,
    write_points_csv,
)
from conftest import ball_boundary_layer

H1 = preset("heisenberg1")


def load_field_csv(path) -> Field:
    """Read back what dump_field_csv wrote, by float() of each value."""
    path = os.fspath(path)
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    g = sidecar["grid"]
    grid = GridSpec(lower=tuple(g["lower"]), upper=tuple(g["upper"]), shape=tuple(g["shape"]))
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    vals = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    return Field(grid, vals.reshape(grid.shape), t=float(sidecar["t"]))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0,), (1.0,), (2,))  # fewer than 3 nodes
    with pytest.raises(ValueError):
        GridSpec((0.0, 0.0), (1.0,), (3, 3))
    g = GridSpec((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (5, 5, 5))
    assert g.spacings == (0.5, 0.5, 0.5)
    assert g.num_nodes == 125


def test_default_grid_shape():
    g = default_grid()
    assert g.shape == (41, 41, 41)
    assert g.lower == (-2.0, -2.0, -2.0)
    assert g.upper == (2.0, 2.0, 2.0)


def test_field_validation():
    grid = default_grid(nodes=5)
    with pytest.raises(ValueError):
        Field(grid, np.zeros((4, 5, 5)))
    with pytest.raises(ValueError):
        Field(grid, np.full((5, 5, 5), np.nan))
    f = Field(grid, np.zeros((2, 5, 5, 5)))
    assert f.is_vector


def test_step_count_and_march():
    assert step_count(1.0, 0.1) == 10
    assert step_count(1.0, 0.3) == 4
    assert step_count(1.0, 2.0, least=2) == 2
    assert step_count(1.0, math.inf, least=2) == 2
    # an overflowing drift's bound is NaN or zero: no step count covers it
    for limit in (math.nan, 0.0):
        with pytest.raises(ValueError, match="not a positive number"):
            step_count(1.0, limit)

    def add(f, h):
        return Field(f.grid, f.values + h, f.t + h)

    f0 = constant_field(default_grid(nodes=3), 0.0)
    for store_every, kept in ((2, [0, 2, 4, 5]), (0, [0, 5]), (1, [0, 1, 2, 3, 4, 5])):
        traj = march(f0, 5, 1.0, add, store_every)
        assert traj.times == tuple(map(float, kept))
        assert [float(f.values.max()) for f in traj.fields] == kept
    assert march(f0, 0, 1.0, add).times == (0.0,)


def test_trajectory_times_are_its_stamps():
    g = default_grid(nodes=3)
    traj = Trajectory(tuple(constant_field(g, 1.0, t) for t in (0.0, 0.25, 0.5)))
    assert traj.times == (0.0, 0.25, 0.5)
    assert traj.final.t == 0.5
    assert traj.reflected((1.0, 2.0, 3.0)).times == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="at least one"):
        Trajectory(())
    for stamps in ((0.0, 0.0), (0.5, 0.25)):
        with pytest.raises(ValueError, match="increase"):
            Trajectory(tuple(constant_field(g, 1.0, t) for t in stamps))


def test_ball_mask_extremes():
    grid = default_grid(nodes=9)
    big = make_ball_mask(grid, H1, 100.0)
    assert big.all()
    # even node count: no node at the identity, so a tiny ball is empty
    off_origin = default_grid(nodes=10)
    with pytest.raises(ValueError):
        make_ball_mask(off_origin, H1, 1e-9)


def test_ball_mask_vertical_threshold():
    # x3 axis carries weight 2: the unit ball cuts it at |x3| = 1
    grid = GridSpec((-0.1, -0.1, 0.97), (0.1, 0.1, 1.03), (3, 3, 4))
    mask = make_ball_mask(grid, H1, 1.0)
    axis3 = grid.axes()[2]
    i99 = int(np.argmin(np.abs(axis3 - 0.99)))
    i101 = int(np.argmin(np.abs(axis3 - 1.01)))
    assert mask[1, 1, i99]
    assert not mask[1, 1, i101]


def test_ball_mask_monotone_in_radius():
    grid = default_grid(nodes=21)
    radii = [0.4, 0.8, 1.2, 1.6]
    masks = [make_ball_mask(grid, H1, r) for r in radii]
    for small, large in zip(masks, masks[1:]):
        assert np.all(large[small])
        assert large.sum() > small.sum()


def test_ball_mask_boundary_layer_inside():
    grid = default_grid(nodes=21)
    mask = make_ball_mask(grid, H1, 1.0)
    assert ball_boundary_layer(mask).any()
    assert np.all(mask[ball_boundary_layer(mask)])


def test_max_stable_dt_unconstrained():
    grid = default_grid(nodes=9)
    assert max_stable_dt(grid, H1, 0.0, None) == math.inf


def test_max_stable_dt_h_squared_scaling():
    coarse = default_grid(nodes=11)
    fine = GridSpec(coarse.lower, coarse.upper, (21, 21, 21))
    dt_c = max_stable_dt(coarse, H1, 0.25, None)
    dt_f = max_stable_dt(fine, H1, 0.25, None)
    assert np.isclose(dt_c / dt_f, 4.0, rtol=1e-12)


def test_max_stable_dt_reference_value():
    grid = default_grid(nodes=41)  # h = 0.1 on [-2,2]
    dt = max_stable_dt(grid, H1, 0.25, None)
    assert 0 < dt < 1
    # drift shrinks the bound
    b = np.array([1.0, -2.0])
    dt_b = max_stable_dt(grid, H1, 0.25, b)
    assert dt_b < dt


def test_field_csv_round_trip(tmp_path):
    grid = default_grid(nodes=7)
    rng = np.random.default_rng(42)
    f = Field(grid, rng.normal(size=grid.shape) * 1e3, t=0.125)
    base = tmp_path / "field"
    dump_field_csv(f, base)
    back = load_field_csv(base)
    assert back.grid == f.grid
    assert back.t == f.t
    assert np.array_equal(back.values, f.values)  # bit-exact


def test_field_csv_golden_text(tmp_path):
    # shortest round-trip reprs, one row per node, one final newline
    grid = GridSpec((0.0,), (1.5,), (4,))
    f = Field(grid, np.array([-0.0, 1e-300, 0.1 + 0.2, 7]), t=0.5)
    base = tmp_path / "field"
    dump_field_csv(f, base)
    assert base.read_text() == "x1,value\n0.0,-0.0\n0.5,1e-300\n1.0,0.30000000000000004\n1.5,7.0\n"
    assert load_field_csv(base).values.tobytes() == f.values.tobytes()
    # an integer array is written as floats
    write_points_csv(tmp_path / "ints", np.array([[1, -2], [0, 3]]), np.array([4, 5]), "weight")
    assert (tmp_path / "ints").read_text() == "x1,x2,weight\n1.0,-2.0,4.0\n0.0,3.0,5.0\n"


def test_bump_field_normalized():
    grid = default_grid(nodes=21)
    f = bump_field(grid, H1, radius=1.2, normalize=True)
    assert np.isclose(f.integral(), 1.0, rtol=1e-13)
    assert f.values.min() >= 0.0
    xs, ys, zs = node_coordinates(grid)
    from carnotlab.groups import hom_norm

    pts = np.stack([xs, ys, zs], axis=-1)
    assert np.all(f.values[hom_norm(H1, pts) >= 1.2] == 0.0)


def test_constant_field_integral():
    # uniform node weights: the conserved discrete mass is sum * h^d
    grid = default_grid(nodes=9)
    c = constant_field(grid, 2.0)
    expected = 2.0 * grid.cell_volume * grid.num_nodes
    assert np.isclose(c.integral(), expected, rtol=1e-12)


def test_node_coordinates_belong_to_the_caller():
    grid = default_grid(nodes=5)
    xs, _, _ = node_coordinates(grid)
    xs[...] = 7.0
    again, _, _ = node_coordinates(grid)
    assert np.array_equal(again[:, 0, 0], grid.axes()[0])
