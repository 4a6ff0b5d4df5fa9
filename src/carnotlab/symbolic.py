"""Exact frame calculus in sympy, the oracle of the numerical checks.

The one module of the package that imports sympy; no solver needs it, so
a scenario run never loads it.  It applies polynomial frames to
expressions in x1..xd and builds the barrier operator that
``fokker_planck.subsolution_check`` samples.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np
import sympy as sp

from .groups import GroupSpec, Poly
from .vfields import VectorFieldSet, left_invariant_fields


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
    """sum_i (Da_i) a_i per coordinate; the Ito drift correction of the frame.

    The particle scheme may drop the correction only when this is
    identically zero, so verify before trusting it.
    """
    xs = coordinate_symbols(vf.dim)
    out = [sp.Integer(0) for _ in range(vf.dim)]
    for i in range(vf.count):
        comps = [poly_to_sympy(vf.coefficients[i][l], xs) for l in range(vf.dim)]
        for l in range(vf.dim):
            for k in range(vf.dim):
                out[l] += sp.diff(comps[l], xs[k]) * comps[k]
    return [sp.expand(e) for e in out]


def horizontal_laplacian_symbolic(vf: VectorFieldSet, f: sp.Expr) -> sp.Expr:
    out = sp.Integer(0)
    for i in range(vf.count):
        out += apply_field_analytic(vf, i, apply_field_analytic(vf, i, f))
    return sp.expand(out)


def bracket_failures(left: VectorFieldSet, right: VectorFieldSet, degree: int) -> tuple[int, int, int]:
    """Counts of monomials f of degree 1..degree in x1..x3 with [X_1, X_2] f != d_3 f,
    and of (f, i <= 2, j <= 2) with [X_i, Y_j] f != 0; then the number of monomials."""
    xs = coordinate_symbols(3)
    monomials = [
        xs[0] ** a * xs[1] ** b * xs[2] ** c
        for a, b, c in itertools.product(range(degree + 1), repeat=3)
        if 0 < a + b + c <= degree
    ]
    bracket_bad = commute_bad = 0
    for f in monomials:
        if sp.simplify(commutator_apply(left, 0, left, 1, f) - sp.diff(f, xs[2])) != 0:
            bracket_bad += 1
        for i, j in itertools.product(range(2), repeat=2):
            if sp.simplify(commutator_apply(left, i, right, j, f)) != 0:
                commute_bad += 1
    return bracket_bad, commute_bad, len(monomials)


def laplacian_function(vf: VectorFieldSet, poly: Callable) -> Callable:
    """Exact lap_G of the polynomial poly(x1, ..., xd), as a numpy function."""
    xs = coordinate_symbols(vf.dim)
    return sp.lambdify(xs, sp.expand(horizontal_laplacian_symbolic(vf, poly(*xs))), "numpy")


def _gauge_gradient(group: GroupSpec):
    """(frame, coordinate symbols, N2 = ||x||_G^2, grad_G N2)."""
    vf = left_invariant_fields(group)
    xs = coordinate_symbols(group.dim)
    r = group.norm_root
    n_pow = sum(sp.Abs(xs[i]) ** sp.Rational(r, w) for i, w in enumerate(group.weights))
    N2 = n_pow ** sp.Rational(2, r)
    return vf, xs, N2, [apply_field_analytic(vf, i, N2) for i in range(vf.count)]


def barrier_lhs(group: GroupSpec, b_coeffs, sigma: float) -> Callable:
    """Symbolic LHS of the barrier inequality, lambdified over
    (x1..xd, t, bbar) with beta1, tau0 left as parameters too.

    Phi = exp(-(beta1 + bbar (t - tau0)) (N2 + 1)) with N2 = ||x||_G^2;
    LHS = d_t Phi + sigma lap_G Phi + B . grad_G Phi + (div_G B) Phi.
    """
    vf, xs, N2, grad_n2 = _gauge_gradient(group)
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
    phi = sp.exp(-a * (N2 + 1))
    lhs = core * phi
    return sp.lambdify(tuple(xs) + (t, bbar, beta1, tau0), lhs, "numpy")

