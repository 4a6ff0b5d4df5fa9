"""Exact algebra of homogeneous nilpotent Lie groups in exponential coordinates.

A group of step k on R^d is described by integer weights w_1 <= ... <= w_d
(w_i <= k) and a polynomial correction table for the product

    (x * y)_l = x_l + y_l + sum_terms  c * x^p * y^q,

where every correction term is jointly homogeneous of degree w_l under the
anisotropic dilations  delta_lam(x)_i = lam^{w_i} x_i.  In exponential
coordinates of the first kind the inverse is coordinate negation and the
homogeneous norm

    ||x||_G = ( sum_i |x_i|^{2k!/w_i} )^{1/(2k!)}

satisfies ||delta_lam x||_G = lam ||x||_G (``gauge_power`` is the sum
inside the root).  The quasi-distance used across
the package is the left-invariant  rho(x, y) = ||y^{-1} * x||_G.

Coefficients are stored as exact rationals, and the polynomial calculus
here (sum, product, partial derivative, a frame field applied to a
polynomial) is exact too, so bracket relations are verified without
rounding; numeric evaluation converts to float once and is vectorized over
trailing batch axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

# A polynomial is a tuple of (coefficient, exponent-multi-index) monomials.
PolyTerm = tuple[Fraction, tuple[int, ...]]
Poly = tuple[PolyTerm, ...]
# A product-law term couples a monomial in x with a monomial in y.
LawTerm = tuple[Fraction, tuple[int, ...], tuple[int, ...]]


def _monomial(coords: Sequence[np.ndarray], exponents: tuple[int, ...]) -> np.ndarray | float:
    out: np.ndarray | float = 1.0
    for c, e in zip(coords, exponents):
        if e == 1:
            out = out * c
        elif e > 1:
            out = out * c**e
    return out


def eval_poly(poly: Poly, coords: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a monomial-table polynomial on broadcastable coordinate arrays."""
    acc = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in coords)))
    for coeff, exps in poly:
        acc = acc + float(coeff) * _monomial(coords, exps)
    return acc


def poly_is_zero(poly: Poly) -> bool:
    return all(c == 0 for c, _ in poly)


def poly_normalize(terms: Iterable[PolyTerm]) -> Poly:
    """Like terms merged and zero terms dropped, in exponent order: equal
    polynomials have equal tables, and zero is the empty one."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for coeff, exps in terms:
        acc[exps] = acc.get(exps, 0) + coeff
    return tuple((c, e) for e, c in sorted(acc.items()) if c != 0)


def poly_add(*polys: Poly) -> Poly:
    return poly_normalize(t for p in polys for t in p)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_normalize(p + tuple((-c, e) for c, e in q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    return poly_normalize((a * b, tuple(i + j for i, j in zip(ea, eb))) for a, ea in p for b, eb in q)


def poly_partial(poly: Poly, l: int) -> Poly:
    """d poly / d x_l."""
    return poly_normalize((c * e[l], e[:l] + (e[l] - 1,) + e[l + 1:]) for c, e in poly if e[l])


def apply_field(field: Sequence[Poly], poly: Poly) -> Poly:
    """X f = sum_l a_l d_l f for the field whose component l is field[l],
    such as a row of a frame table."""
    return poly_add(*(poly_mul(a, poly_partial(poly, l)) for l, a in enumerate(field)))


def _hash_once(spec) -> int:
    """The field hash of a frozen record, computed once per object: the law
    and the frame polynomials are deep tuples of Fractions."""
    if "_hash" not in spec.__dict__:
        object.__setattr__(spec, "_hash", hash(tuple(getattr(spec, f.name) for f in fields(spec))))
    return spec.__dict__["_hash"]


def _state_without_hash(spec) -> dict:
    # str hashes are salted per process, so an unpickled copy hashes anew
    return {k: v for k, v in spec.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class GroupSpec:
    """Immutable description of one homogeneous group.

    law[l] holds the correction terms of coordinate l of the product (the
    linear part x_l + y_l is implicit).  The left/right invariant frame
    tables are derived from the law, so the law is the single source of
    truth for the whole calculus.
    """

    name: str
    dim: int
    horizontal_dim: int
    step: int
    weights: tuple[int, ...]
    law: tuple[tuple[LawTerm, ...], ...]

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    def __post_init__(self) -> None:
        if self.dim != len(self.weights):
            raise ValueError("weights length must equal dim")
        if self.dim != len(self.law):
            raise ValueError("law table must list every coordinate")
        if any(w < 1 or w > self.step for w in self.weights):
            raise ValueError("weights must lie in 1..step")
        if list(self.weights) != sorted(self.weights):
            raise ValueError("weights must be nondecreasing")
        if self.horizontal_dim != sum(1 for w in self.weights if w == 1):
            raise ValueError("horizontal_dim must count the weight-1 coordinates")

    @property
    def homogeneous_dimension(self) -> int:
        return int(sum(self.weights))

    @property
    def norm_root(self) -> int:
        # 2 k!; every exponent 2k!/w_i is an even integer
        return 2 * math.factorial(self.step)

    # -- derived vector-field coefficient tables -------------------------
    def left_field_table(self) -> tuple[tuple[Poly, ...], ...]:
        """Coefficients of the left-invariant horizontal frame.

        Field i is d/dt|_0 of x * (t e_i): component l equals
        delta_{li} plus the law terms of coordinate l whose y-monomial
        is exactly y_i.
        """
        return self._frame(slot=1)

    def right_field_table(self) -> tuple[tuple[Poly, ...], ...]:
        """Coefficients of the right-invariant horizontal frame (d/dt|_0 of (t e_i) * x)."""
        return self._frame(slot=0)

    def _frame(self, slot: int) -> tuple[tuple[Poly, ...], ...]:
        fields = []
        for i in range(self.horizontal_dim):
            unit = tuple(1 if a == i else 0 for a in range(self.dim))
            comps: list[Poly] = []
            for l in range(self.dim):
                terms: list[PolyTerm] = [(Fraction(1), tuple(0 for _ in range(self.dim)))] if l == i else []
                for coeff, px, py in self.law[l]:
                    probe, keep = (px, py) if slot == 0 else (py, px)
                    if probe == unit:
                        terms.append((coeff, keep))
                comps.append(tuple(terms))
            fields.append(tuple(comps))
        return tuple(fields)


# ---------------------------------------------------------------------------
# core operations (vectorized over trailing batch shape (..., dim))
# ---------------------------------------------------------------------------

def multiply(spec: GroupSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Group product x * y, batched over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != spec.dim or y.shape[-1] != spec.dim:
        raise ValueError(f"expected trailing axis of size {spec.dim}")
    out = x + y
    xs = [x[..., l] for l in range(spec.dim)]
    ys = [y[..., l] for l in range(spec.dim)]
    for l, terms in enumerate(spec.law):
        for coeff, px, py in terms:
            out[..., l] += float(coeff) * _monomial(xs, px) * _monomial(ys, py)
    return out


def inverse(spec: GroupSpec, x: np.ndarray) -> np.ndarray:
    """Inverse is coordinate negation in exponential coordinates of the first kind."""
    return -np.asarray(x, dtype=float)


def dilate(spec: GroupSpec, lam, x: np.ndarray) -> np.ndarray:
    """Anisotropic dilation delta_lam; lam must be positive.

    lam may be a scalar or an array broadcastable against a single
    coordinate of x (batched dilations).
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("dilation parameter must be positive")
    x = np.asarray(x, dtype=float)
    return np.stack(
        [x[..., i] * lam ** w for i, w in enumerate(spec.weights)], axis=-1
    )


def gauge_power(spec: GroupSpec, x: np.ndarray) -> np.ndarray:
    """||x||_G^{2k!} = sum_i |x_i|^{2k!/w_i} over the trailing axis."""
    x = np.asarray(x, dtype=float)
    r = spec.norm_root
    acc = np.zeros(x.shape[:-1])
    for i, w in enumerate(spec.weights):
        acc = acc + np.abs(x[..., i]) ** (r // w)
    return acc


def hom_norm(spec: GroupSpec, x: np.ndarray) -> np.ndarray:
    """Homogeneous norm (sum_i |x_i|^{2k!/w_i})^{1/(2k!)}."""
    return gauge_power(spec, x) ** (1.0 / spec.norm_root)


def quasi_distance(spec: GroupSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Left-invariant quasi-distance ||y^{-1} * x||_G."""
    return hom_norm(spec, multiply(spec, inverse(spec, y), x))


# ---------------------------------------------------------------------------
# shipped presets
# ---------------------------------------------------------------------------

def _h1() -> GroupSpec:
    half = Fraction(1, 2)
    z3 = (
        (half, (1, 0, 0), (0, 1, 0)),
        (-half, (0, 1, 0), (1, 0, 0)),
    )
    return GroupSpec(
        name="heisenberg1",
        dim=3,
        horizontal_dim=2,
        step=2,
        weights=(1, 1, 2),
        law=((), (), z3),
    )


def _engel() -> GroupSpec:
    half = Fraction(1, 2)
    tw = Fraction(1, 12)
    z3 = (
        (half, (1, 0, 0, 0), (0, 1, 0, 0)),
        (-half, (0, 1, 0, 0), (1, 0, 0, 0)),
    )
    # z4 = (x1 y3 - x3 y1)/2 + (x1 - y1)(x1 y2 - x2 y1)/12
    z4 = (
        (half, (1, 0, 0, 0), (0, 0, 1, 0)),
        (-half, (0, 0, 1, 0), (1, 0, 0, 0)),
        (tw, (2, 0, 0, 0), (0, 1, 0, 0)),
        (-tw, (1, 1, 0, 0), (1, 0, 0, 0)),
        (-tw, (1, 0, 0, 0), (1, 1, 0, 0)),
        (tw, (0, 1, 0, 0), (2, 0, 0, 0)),
    )
    return GroupSpec(
        name="engel",
        dim=4,
        horizontal_dim=2,
        step=3,
        weights=(1, 1, 2, 3),
        law=((), (), z3, z4),
    )


PRESETS: dict[str, Callable[[], GroupSpec]] = {
    "heisenberg1": _h1,
    "engel": _engel,
}


def preset(name: str) -> GroupSpec:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown group preset {name!r}; available: {sorted(PRESETS)}") from None

