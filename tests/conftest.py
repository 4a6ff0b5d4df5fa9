"""Test doubles and reference helpers shared by the test modules."""

from fractions import Fraction

import pytest
from scipy import ndimage

from carnotlab.grid import Field, bump_shape, node_points
from carnotlab.groups import dilate, gauge_power
from carnotlab.vfields import VectorFieldSet


def coordinate_field(dim: int, axis: int) -> VectorFieldSet:
    """The plain Euclidean partial d/dx_axis, as a one-field set."""
    one = ((Fraction(1), tuple(0 for _ in range(dim))),)
    comps = tuple(one if l == axis else () for l in range(dim))
    return VectorFieldSet(kind="coordinate", dim=dim, coefficients=(comps,))


def kernel_scale(m) -> float:
    """C of the scaling (C / eps^Q) xi(delta_{1/eps} x) of m, from its offsets."""
    group = m.group
    raw = bump_shape(gauge_power(group, dilate(group, 1.0 / m.eps, m.offsets)))
    return m.eps**group.homogeneous_dimension / (raw.sum() * m.grid.cell_volume)


def kernel_field(m) -> Field:
    """The scaled kernel (C / eps^Q) xi(delta_{1/eps} x) sampled on the grid
    and for the group the MollifierSpec m was built for."""
    grid, group = m.grid, m.group
    s = gauge_power(group, dilate(group, 1.0 / m.eps, node_points(grid)))
    vals = kernel_scale(m) / m.eps**group.homogeneous_dimension * bump_shape(s)
    return Field(grid, vals.reshape(grid.shape))


def ball_boundary_layer(inside):
    """The nodes of the ball mask inside with an axis neighbour outside the
    ball; a neighbour beyond the box edge counts as inside."""
    axes = ndimage.generate_binary_structure(inside.ndim, 1)
    return inside & ~ndimage.binary_erosion(inside, axes, border_value=1)


@pytest.fixture
def serial_pool():
    """A ProcessPoolExecutor stand-in that maps in this process and records
    the max_workers of every pool made, so a test starts no process."""

    class SerialPool:
        sizes: list = []

        def __init__(self, max_workers=None):
            SerialPool.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return SerialPool
