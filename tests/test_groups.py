"""Group algebra checks against an independent matrix representation.

The multiply oracle below realizes the step-2 group as 3x3 upper
unipotent matrices; exponential coordinates are read back off the
matrix product.  None of the oracle code touches the package's law
table, so agreement pins the coefficient convention.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from carnotlab import preset
from carnotlab.groups import (
    GroupSpec,
    dilate,
    hom_norm,
    inverse,
    multiply,
    quasi_distance,
)
from carnotlab.report import json_text

H1 = preset("heisenberg1")
ENGEL = preset("engel")


def identity(spec: GroupSpec) -> np.ndarray:
    return np.zeros(spec.dim)


def to_text(spec: GroupSpec) -> str:
    doc = {
        "name": spec.name,
        "dim": spec.dim,
        "horizontal_dim": spec.horizontal_dim,
        "step": spec.step,
        "weights": spec.weights,
        "law": [[[str(coeff), px, py] for coeff, px, py in terms] for terms in spec.law],
    }
    return json_text(doc)


def from_text(text: str) -> GroupSpec:
    doc = json.loads(text)
    law = tuple(
        tuple((Fraction(c), tuple(px), tuple(py)) for c, px, py in terms)
        for terms in doc["law"]
    )
    return GroupSpec(
        name=doc["name"],
        dim=int(doc["dim"]),
        horizontal_dim=int(doc["horizontal_dim"]),
        step=int(doc["step"]),
        weights=tuple(int(w) for w in doc["weights"]),
        law=law,
    )


@dataclass(frozen=True)
class HomogeneousBoundReport:
    ok: bool
    sphere_max: float
    worst_ratio: float
    samples: int


def check_homogeneous_bound(spec: GroupSpec, g, c: float, *,
                            rng: np.random.Generator) -> HomogeneousBoundReport:
    """Audit |g(x)| <= c ||x||_G for a degree-1 homogeneous g.

    The unit sphere {||x||_G = 1} is sampled by dilating 2000 random
    points of the box [-2, 2]^d to norm one; if the bound holds there it
    holds everywhere by homogeneity, which 2000 more box points
    double-check.
    """
    raw = rng.uniform(-2.0, 2.0, size=(2000, spec.dim))
    norms = hom_norm(spec, raw)
    keep = norms > 1e-9
    raw, norms = raw[keep], norms[keep]
    sphere = np.stack([dilate(spec, 1.0 / n, p) for p, n in zip(raw, norms)])
    sphere_vals = np.abs(np.asarray(g(sphere)))
    sphere_max = float(sphere_vals.max())
    if sphere_max > c + 1e-12:
        raise ValueError(f"bound constant too small on the unit sphere: {sphere_max} > {c}")

    pts = rng.uniform(-2.0, 2.0, size=(2000, spec.dim))
    nrm = hom_norm(spec, pts)
    keep = nrm > 1e-9
    ratio = np.abs(np.asarray(g(pts[keep]))) / (c * nrm[keep])
    worst = float(ratio.max())
    return HomogeneousBoundReport(ok=worst <= 1.0 + 1e-12, sphere_max=sphere_max, worst_ratio=worst, samples=int(keep.sum()))


def equivalence_ratio_report(spec: GroupSpec, *, rng: np.random.Generator) -> dict[str, float]:
    """Empirical spread of quasi-distance against the Euclidean metric,
    over 4000 random point pairs of the box [-2, 2]^d.

    The two are topologically equivalent but not metrically so; the report
    gives the observed ratio range, no certified constants.
    """
    x = rng.uniform(-2.0, 2.0, size=(4000, spec.dim))
    y = rng.uniform(-2.0, 2.0, size=(4000, spec.dim))
    qd = quasi_distance(spec, x, y)
    eu = np.linalg.norm(x - y, axis=-1)
    keep = eu > 1e-9
    r = qd[keep] / eu[keep]
    return {
        "ratio_min": float(r.min()),
        "ratio_max": float(r.max()),
        "ratio_median": float(np.median(r)),
        "samples": float(keep.sum()),
    }


def _h1_matrix(p):
    return np.array(
        [
            [1.0, p[0], p[2] + p[0] * p[1] / 2],
            [0.0, 1.0, p[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def _h1_coords(M):
    return np.array([M[0, 1], M[1, 2], M[0, 2] - M[0, 1] * M[1, 2] / 2])


def test_multiply_matches_matrix_representation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = rng.normal(size=3), rng.normal(size=3)
        got = multiply(H1, x, y)
        expected = _h1_coords(_h1_matrix(x) @ _h1_matrix(y))
        assert np.allclose(got, expected, atol=1e-12)


def test_multiply_basis_pair():
    out = multiply(H1, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(out, [1.0, 1.0, 0.5])


def test_multiply_inverse_cancels():
    p = np.array([0.3, -1.2, 2.0])
    assert np.array_equal(multiply(H1, p, -p), [0.0, 0.0, 0.0])


def test_identity_neutral():
    e = identity(H1)
    x = np.array([0.5, 0.25, -1.0])
    assert np.array_equal(multiply(H1, e, x), x)
    assert np.array_equal(multiply(H1, x, e), x)
    assert np.array_equal(inverse(H1, e), e)


def test_inverse_is_negation():
    assert np.array_equal(inverse(H1, np.array([1.0, 2.0, 3.0])), [-1.0, -2.0, -3.0])


def test_inverse_norm_residual():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(500, 3))
    res = hom_norm(H1, multiply(H1, x, inverse(H1, x)))
    assert res.max() <= 1e-12


def test_associativity():
    rng = np.random.default_rng(3)
    x, y, z = rng.normal(size=(3, 1000, 3)) * 2
    lhs = multiply(H1, multiply(H1, x, y), z)
    rhs = multiply(H1, x, multiply(H1, y, z))
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_dilation_weights():
    assert np.array_equal(dilate(H1, 2.0, np.array([1.0, 1.0, 1.0])), [2.0, 2.0, 4.0])
    x = np.array([0.2, -0.7, 1.4])
    assert np.array_equal(dilate(H1, 1.0, x), x)
    assert np.allclose(dilate(H1, 3.0, dilate(H1, 1 / 3.0, x)), x, atol=1e-15)


def test_dilation_rejects_nonpositive():
    with pytest.raises(ValueError):
        dilate(H1, 0.0, identity(H1))
    with pytest.raises(ValueError):
        dilate(H1, -1.0, identity(H1))


def test_dilation_automorphism():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 1000, 3))
    lam = rng.uniform(0.1, 4.0, size=(1000,))
    lhs = dilate(H1, lam, multiply(H1, x, y))
    rhs = multiply(H1, dilate(H1, lam, x), dilate(H1, lam, y))
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_norm_unit_points():
    assert hom_norm(H1, np.array([0.0, 0.0, 1.0])) == 1.0
    assert hom_norm(H1, np.array([1.0, 0.0, 0.0])) == 1.0
    assert hom_norm(H1, identity(H1)) == 0.0


def test_norm_homogeneity():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(300, 3)) * 3
    n1 = hom_norm(H1, dilate(H1, 3.0, x))
    n0 = hom_norm(H1, x)
    assert np.abs(n1 - 3.0 * n0).max() <= 1e-12 * np.abs(3.0 * n0).max()


def test_homogeneous_dimension():
    assert H1.homogeneous_dimension == 4
    assert ENGEL.homogeneous_dimension == 7


def test_quasi_distance_identity_and_scaling():
    x = np.array([0.4, -0.2, 0.9])
    assert quasi_distance(H1, x, x) == 0.0
    h = 0.37
    assert np.isclose(
        quasi_distance(H1, identity(H1), np.array([0.0, 0.0, h])), h**0.5, rtol=1e-14
    )
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(2, 100, 3))
    lam = 2.5
    d0 = quasi_distance(H1, a, b)
    d1 = quasi_distance(H1, dilate(H1, lam, a), dilate(H1, lam, b))
    assert np.abs(d1 - lam * d0).max() <= 1e-10


def test_quasi_distance_left_invariant():
    rng = np.random.default_rng(19)
    z, x, y = rng.normal(size=(3, 200, 3))
    d0 = quasi_distance(H1, x, y)
    d1 = quasi_distance(H1, multiply(H1, z, x), multiply(H1, z, y))
    assert np.abs(d1 - d0).max() <= 1e-10


def test_homogeneous_bound_norm_itself():
    rep = check_homogeneous_bound(
        H1, lambda p: hom_norm(H1, p), 1.0, rng=np.random.default_rng(0)
    )
    assert rep.ok
    assert abs(rep.worst_ratio - 1.0) <= 1e-10


def test_homogeneous_bound_coordinate():
    rep = check_homogeneous_bound(
        H1, lambda p: p[..., 0], 1.0, rng=np.random.default_rng(1)
    )
    assert rep.ok
    assert rep.worst_ratio <= 1.0 + 1e-12


def test_homogeneous_bound_negative_control():
    with pytest.raises(ValueError):
        check_homogeneous_bound(
            H1, lambda p: 2.0 * hom_norm(H1, p), 1.0, rng=np.random.default_rng(2)
        )


def test_serialization_round_trip():
    for spec in (H1, ENGEL):
        doc = to_text(spec)
        back = from_text(doc)
        assert back == spec
        # document is structured text, keys stable
        parsed = json.loads(doc)
        assert parsed["name"] == spec.name


def test_engel_group_law():
    rng = np.random.default_rng(23)
    x, y, z = rng.normal(size=(3, 400, 4))
    lhs = multiply(ENGEL, multiply(ENGEL, x, y), z)
    rhs = multiply(ENGEL, x, multiply(ENGEL, y, z))
    assert np.abs(lhs - rhs).max() <= 1e-10
    # coordinate residual: the step-3 norm takes a 12th root, which would
    # blow machine-epsilon products up to ~1e-6
    res = multiply(ENGEL, x, inverse(ENGEL, x))
    assert np.abs(res).max() <= 1e-12


def test_engel_dilation_automorphism():
    rng = np.random.default_rng(29)
    x, y = rng.normal(size=(2, 400, 4))
    lam = rng.uniform(0.2, 3.0, size=(400,))
    lhs = dilate(ENGEL, lam, multiply(ENGEL, x, y))
    rhs = multiply(ENGEL, dilate(ENGEL, lam, x), dilate(ENGEL, lam, y))
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_equivalence_ratios_reported_not_certified():
    rep = equivalence_ratio_report(H1, rng=np.random.default_rng(31))
    assert rep["ratio_max"] > rep["ratio_min"] > 0
