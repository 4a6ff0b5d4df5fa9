"""Test doubles and reference helpers shared by the test modules."""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from scipy import ndimage

from carnotlab.grid import Field, bump_shape, node_points
from carnotlab.groups import GroupSpec, Poly, dilate, gauge_power
from carnotlab.vfields import VectorFieldSet, left_invariant_fields


def coordinate_field(dim: int, axis: int) -> VectorFieldSet:
    """The plain Euclidean partial d/dx_axis, as a one-field set."""
    one = ((Fraction(1), tuple(0 for _ in range(dim))),)
    comps = tuple(one if l == axis else () for l in range(dim))
    return VectorFieldSet(kind="coordinate", coefficients=(comps,))


# ---------------------------------------------------------------------------
# the sympy oracle of the exact frame calculus
# ---------------------------------------------------------------------------

def coordinate_symbols(dim: int) -> tuple[sp.Symbol, ...]:
    return sp.symbols(f"x1:{dim + 1}", real=True)


def poly_to_sympy(poly: Poly, xs: tuple[sp.Symbol, ...]) -> sp.Expr:
    expr = sp.Integer(0)
    for coeff, exps in poly:
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for x, e in zip(xs, exps):
            if e:
                term *= x**e
        expr += term
    return sp.expand(expr)


def apply_field_analytic(vf: VectorFieldSet, i: int, f: sp.Expr) -> sp.Expr:
    """Exact X_i f for a symbolic expression f in the coordinates x1..xd."""
    xs = coordinate_symbols(vf.dim)
    out = sp.Integer(0)
    for l in range(vf.dim):
        coeff = poly_to_sympy(vf.coefficients[i][l], xs)
        if coeff != 0:
            out += coeff * sp.diff(f, xs[l])
    return sp.expand(out)


def commutator_apply(vf_a: VectorFieldSet, i: int, vf_b: VectorFieldSet, j: int, f: sp.Expr) -> sp.Expr:
    """[A_i, B_j] f computed symbolically."""
    return sp.expand(
        apply_field_analytic(vf_a, i, apply_field_analytic(vf_b, j, f))
        - apply_field_analytic(vf_b, j, apply_field_analytic(vf_a, i, f))
    )


def divergence_analytic(vf: VectorFieldSet, i: int) -> sp.Expr:
    xs = coordinate_symbols(vf.dim)
    out = sp.Integer(0)
    for l in range(vf.dim):
        out += sp.diff(poly_to_sympy(vf.coefficients[i][l], xs), xs[l])
    return sp.expand(out)


def stratonovich_correction(vf: VectorFieldSet) -> list[sp.Expr]:
    """sum_i (Da_i) a_i per coordinate; the Ito drift correction of the frame."""
    xs = coordinate_symbols(vf.dim)
    out = [sp.Integer(0) for _ in range(vf.dim)]
    for i in range(vf.count):
        comps = [poly_to_sympy(vf.coefficients[i][l], xs) for l in range(vf.dim)]
        for l in range(vf.dim):
            for k in range(vf.dim):
                out[l] += sp.diff(comps[l], xs[k]) * comps[k]
    return [sp.expand(e) for e in out]


def gauge_gradient(group: GroupSpec):
    """(frame, coordinate symbols, N2 = ||x||_G^2, grad_G N2), with N2 built
    from |x_k| as the norm is defined."""
    vf = left_invariant_fields(group)
    xs = coordinate_symbols(group.dim)
    r = group.norm_root
    n_pow = sum(sp.Abs(xs[i]) ** sp.Rational(r, w) for i, w in enumerate(group.weights))
    N2 = n_pow ** sp.Rational(2, r)
    return vf, xs, N2, [apply_field_analytic(vf, i, N2) for i in range(vf.count)]


def barrier_lhs(group: GroupSpec, b_coeffs, sigma: float):
    """The LHS of the barrier inequality in sympy, lambdified over
    (x1..xd, t, bbar, beta1, tau0).

    Phi = exp(-(beta1 + bbar (t - tau0)) (N2 + 1)) with N2 = ||x||_G^2;
    LHS = d_t Phi + sigma lap_G Phi + B . grad_G Phi + (div_G B) Phi.
    """
    vf, xs, N2, grad_n2 = gauge_gradient(group)
    t, bbar, beta1, tau0 = sp.symbols("t bbar beta1 tau0", real=True)
    a = beta1 + bbar * (t - tau0)
    lap_n2 = sum(apply_field_analytic(vf, i, g) for i, g in enumerate(grad_n2))
    grad_sq = sum(g**2 for g in grad_n2)
    # Phi-normalized form; multiply by Phi at the end
    core = -bbar * (N2 + 1) + sigma * (a**2 * grad_sq - a * lap_n2)
    if b_coeffs is not None:
        # constant frame coefficients: div_G B = sum X_i b_i = 0, so the
        # (div_G B) Phi term drops out
        bs = [sp.Float(c) for c in np.asarray(b_coeffs, dtype=float)]
        core += sum(bi * (-a * gi) for bi, gi in zip(bs, grad_n2))
    lhs = core * sp.exp(-a * (N2 + 1))
    return sp.lambdify(tuple(xs) + (t, bbar, beta1, tau0), lhs, "numpy")


# ---------------------------------------------------------------------------
# mollifier references
# ---------------------------------------------------------------------------

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
