"""Numerical laboratory for diffusion, transport, and control problems
driven by families of non-commuting vector fields.

The package builds homogeneous-group structure (dilations, a homogeneous
norm, left and right invariant frames) from a polynomial product law and
runs the associated degenerate PDE flows on a box grid: the horizontal
heat flow, divergence-form transport with drift, a Hamilton-Jacobi
equation with gradient nonlinearity, and the coupled fixed-point system
pairing the two.  A flat-norm metric on signed measures, a mollification
routine adapted to the group translations, and particle simulations give
independent cross-checks for the grid solvers.
"""

from .grid import Field, GridSpec, bump_field, constant_field, default_grid, make_ball_mask
from .groups import GroupSpec, preset
from .vfields import VectorFieldSet, left_invariant_fields, right_invariant_fields

__version__ = "0.1.0"

__all__ = [
    "Field",
    "GridSpec",
    "GroupSpec",
    "VectorFieldSet",
    "bump_field",
    "constant_field",
    "default_grid",
    "left_invariant_fields",
    "make_ball_mask",
    "preset",
    "right_invariant_fields",
    "__version__",
]
