"""Shared frame tables: the O(N) stability bound and the stepping kernels
against the formulas they replace."""

import ast
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import carnotlab
from carnotlab import _stencils, preset, vfields
from carnotlab import hamilton_jacobi as hj
from carnotlab.grid import Field, GridSpec, default_grid, max_stable_dt, node_coordinates
from carnotlab.groups import eval_poly, poly_is_zero
from carnotlab.vfields import VectorFieldSet, left_invariant_fields

H1 = preset("heisenberg1")
ENGEL = preset("engel")
_ONE = Fraction(1)
# twice the Heisenberg bracket, under the same name
DOUBLED = dataclasses.replace(H1, law=((), (), ((_ONE, (1, 0, 0), (0, 1, 0)),
                                                (-_ONE, (0, 1, 0), (1, 0, 0)))))


def _reference_max_stable_dt(grid, group, vf, sigma, b=None):
    """The bound as the node loop computed it before the shared tables."""
    coords = node_coordinates(grid)
    h = grid.spacings
    d = grid.dim
    table = vf.coefficients if vf is not None else group.left_field_table()
    a = [[eval_poly(table[i][l], coords) for l in range(d)] for i in range(len(table))]
    denom = np.zeros(grid.shape)
    if sigma > 0:
        for k in range(d):
            for l in range(d):
                akl = sum(a[i][k] * a[i][l] for i in range(len(table)))
                if k == l:
                    denom += sigma * akl / h[k] ** 2
                else:
                    denom += sigma * np.abs(akl) / (2.0 * h[k] * h[l])
    if b is not None:
        bv = b.values if isinstance(b, Field) else np.asarray(b, dtype=float)
        if bv.ndim == 1:
            bv = bv.reshape((-1,) + (1,) * d)
        for k in range(d):
            btk = sum(bv[i] * a[i][k] for i in range(len(table)))
            denom += np.abs(btk) / h[k]
    m = float(denom.max())
    if m <= 0.0:
        return math.inf
    return 1.0 / m


def _full_tables(grid, vf):
    """a[i][l] on the nodes, and A[k][l] and a_face[k][i] on the k-faces
    (axis k one node shorter, shifted by h_k/2), as full eval_poly arrays,
    None where the polynomial is 0.  A sums its products in field order from
    the first one, as the kernel does, so a -0.0 keeps its sign."""
    def evaluate(coords):
        return [[None if poly_is_zero(p) else eval_poly(p, coords) for p in field]
                for field in vf.coefficients]

    def product_sum(af, k, l):
        terms = [ai[k] * ai[l] for ai in af if ai[k] is not None and ai[l] is not None]
        return sum(terms[1:], terms[0]) if terms else None

    faces = []
    for k in range(grid.dim):
        axes = list(grid.axes())
        axes[k] = axes[k][:-1] + 0.5 * grid.spacings[k]
        faces.append(evaluate(np.meshgrid(*axes, indexing="ij")))
    A = [[product_sum(af, k, l) for l in range(grid.dim)] for k, af in enumerate(faces)]
    a_face = [[ai[k] for ai in af] for k, af in enumerate(faces)]
    return evaluate(node_coordinates(grid)), A, a_face


def _reference_flux_divergence(values, grid, vf, sigma, b_values=None):
    """The kernel as it was written with np.pad before the scatter."""
    _, A, a_face = _full_tables(grid, vf)
    d = grid.dim
    h = grid.spacings
    node_grads = None
    if sigma > 0:
        node_grads = [np.gradient(values, h[l], axis=l, edge_order=2) for l in range(d)]
    out = np.zeros_like(values)
    for k in range(d):
        lo = tuple(slice(None, -1) if ax == k else slice(None) for ax in range(d))
        hi = tuple(slice(1, None) if ax == k else slice(None) for ax in range(d))
        flux = None
        if sigma > 0:
            for l in range(d):
                Akl = A[k][l]
                if Akl is None:
                    continue
                if l == k:
                    dval = (values[hi] - values[lo]) / h[k]
                else:
                    dval = 0.5 * (node_grads[l][lo] + node_grads[l][hi])
                term = sigma * Akl * dval
                flux = term if flux is None else flux + term
        if b_values is not None:
            bt = None
            for i, aik in enumerate(a_face[k]):
                if aik is None:
                    continue
                bi = b_values[i]
                bi_face = bi if np.ndim(bi) == 0 else 0.5 * (bi[lo] + bi[hi])
                term = bi_face * aik
                bt = term if bt is None else bt + term
            if bt is not None:
                adv = np.where(bt > 0, values[hi], values[lo]) * bt
                flux = adv if flux is None else flux + adv
        if flux is None:
            continue
        pad = [(0, 0)] * d
        pad[k] = (1, 1)
        padded = np.pad(flux, pad)
        out += (padded[hi] - padded[lo]) / h[k]
    return out


def _reference_godunov_gradient(u, a):
    """godunov_gradient as written on the full coefficient arrays a[i][l]."""
    values = u.values
    h = u.grid.spacings
    minus, plus = [], []
    for ax in range(values.ndim):
        dm = np.zeros_like(values)
        dp = np.zeros_like(values)
        sl_hi = [slice(None)] * values.ndim
        sl_lo = [slice(None)] * values.ndim
        sl_hi[ax] = slice(1, None)
        sl_lo[ax] = slice(None, -1)
        diff = (values[tuple(sl_hi)] - values[tuple(sl_lo)]) / h[ax]
        dm[tuple(sl_hi)] = diff
        dp[tuple(sl_lo)] = diff
        minus.append(dm)
        plus.append(dp)
    total = np.zeros(u.grid.shape)
    for ai in a:
        d_minus = np.zeros(u.grid.shape)
        d_plus = np.zeros(u.grid.shape)
        for l, ail in enumerate(ai):
            if ail is None:
                continue
            pos = ail > 0
            am, ap = ail * minus[l], ail * plus[l]
            d_minus += np.where(pos, am, ap)
            d_plus += np.where(pos, ap, am)
        s = np.maximum(np.maximum(d_minus, 0.0), np.maximum(-d_plus, 0.0))
        total += s * s
    return np.sqrt(total)


def _reference_horizontal_gradient(a, f):
    """vfields.horizontal_gradient as written on the full coefficient arrays."""
    h = f.grid.spacings
    partials = [np.gradient(f.values, h[l], axis=l, edge_order=2) for l in range(f.grid.dim)]
    comps = []
    for ai in a:
        acc = np.zeros(f.grid.shape)
        for l, ail in enumerate(ai):
            if ail is not None:
                acc = acc + ail * partials[l]
        comps.append(acc)
    return np.stack(comps)


CASES = [
    ("heisenberg1", H1, default_grid(2.0, 15)),
    ("engel", ENGEL, GridSpec((-1.5,) * 4, (1.5,) * 4, (11,) * 4)),
    ("doubled bracket named heisenberg1", DOUBLED, default_grid(2.0, 15)),
]


def _drifts(grid, m, rng):
    return {
        "none": None,
        "constant": rng.normal(size=m),
        "nodal": rng.normal(size=(m,) + grid.shape),
    }


@pytest.mark.parametrize("label,group,grid", CASES, ids=[c[0] for c in CASES])
def test_cached_bound_matches_the_node_loop(label, group, grid):
    rng = np.random.default_rng(3)
    vf = left_invariant_fields(group)
    for name, b in _drifts(grid, vf.count, rng).items():
        for sigma in (0.25, 0.0):
            want = _reference_max_stable_dt(grid, group, vf, sigma, b)
            got = max_stable_dt(grid, group, sigma, b)
            if math.isinf(want):
                assert got == want, (name, sigma)
            else:
                assert abs(got - want) <= 1e-14 * want, (name, sigma, got, want)
        nodal_field = Field(grid, rng.normal(size=(vf.count,) + grid.shape))
        assert max_stable_dt(grid, group, 0.25, nodal_field) == pytest.approx(
            _reference_max_stable_dt(grid, group, None, 0.25, nodal_field), rel=1e-14)


def test_cached_tables_are_read_only_and_keyed_by_value():
    _stencils.frame_tables.cache_clear()
    grid = default_grid(2.0, 9)
    tables = _stencils.frame_tables(grid, left_invariant_fields(H1))

    def arrays(x):
        if isinstance(x, (list, tuple)):
            return [arr for y in x for arr in arrays(y)]
        return [x] if isinstance(x, np.ndarray) else []

    # coef, both halves of upwind, the array entries of diag, cross and drift, diffusion
    found = arrays([getattr(tables, f.name) for f in dataclasses.fields(tables)])
    assert len(found) > 1 and not any(arr.flags.writeable for arr in found)
    with pytest.raises(ValueError):
        tables.diffusion[0, 0, 0] = 2.0
    assert _stencils.frame_tables(grid, left_invariant_fields(H1)) is tables
    assert _stencils.frame_tables(grid, left_invariant_fields(DOUBLED)) is not tables
    assert left_invariant_fields(DOUBLED).coefficients != left_invariant_fields(H1).coefficients
    assert max_stable_dt(grid, DOUBLED, 0.25) < max_stable_dt(grid, H1, 0.25)


@pytest.mark.parametrize("label,group,grid", CASES[:2], ids=[c[0] for c in CASES[:2]])
def test_flux_kernel_matches_the_padded_kernel(label, group, grid):
    rng = np.random.default_rng(5)
    vf = left_invariant_fields(group)
    geom = _stencils.frame_tables(grid, vf)
    for trial in range(3):
        values = rng.normal(size=grid.shape)
        for name, b in _drifts(grid, vf.count, rng).items():
            for sigma in (0.25, 0.0):
                want = _reference_flux_divergence(values, grid, vf, sigma, b)
                got = _stencils.flux_divergence(values, geom, sigma, b)
                scale = max(float(np.abs(want).max()), 1.0)
                assert float(np.abs(got - want).max()) <= 1e-13 * scale, (name, sigma)
                # interior fluxes telescope: the divergence sums to rounding
                assert abs(float(got.sum())) <= 1e-12 * max(float(np.abs(got).sum()), 1.0)


def _poly(*terms):
    return tuple((Fraction(c), exps) for c, exps in terms)


# constant slots 2 and -1 (not 1), next to array slots of both signs
HAND = VectorFieldSet(kind="hand", coefficients=(
    (_poly((2, (0, 0, 0))), (), _poly((1, (0, 1, 0)))),
    ((), _poly((-1, (0, 0, 0))), _poly((Fraction(-1, 2), (1, 0, 0)))),
))
FRAMES = [(label, left_invariant_fields(group), grid) for label, group, grid in CASES]
FRAMES.append(("hand-built, constant slots 2 and -1", HAND, default_grid(2.0, 15)))


@pytest.mark.parametrize("label,vf,grid", FRAMES, ids=[f[0] for f in FRAMES])
def test_stepping_kernels_match_the_full_array_kernels(label, vf, grid, monkeypatch):
    """godunov_gradient bit for bit, horizontal_gradient and feedback_drift
    within 1e-13 relative, against the kernels on the full arrays."""
    monkeypatch.setattr(vfields, "left_invariant_fields", lambda group: vf)
    a, _, _ = _full_tables(grid, vf)
    rng = np.random.default_rng(11)
    coords = node_coordinates(grid)
    smooth = np.exp(-sum(c**2 for c in coords)) * (1.0 + coords[0] - 0.5 * coords[-1])
    for values in (rng.normal(size=grid.shape), smooth):
        u = Field(grid, values)
        assert hj.godunov_gradient(u, None).tobytes() == _reference_godunov_gradient(u, a).tobytes()
        want = _reference_horizontal_gradient(a, u)
        got = vfields.horizontal_gradient(vf, u).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        for gamma in (2.0, 3.0):
            mag = np.sqrt((want**2).sum(axis=0))
            drift = gamma * mag ** (gamma - 2.0) * want
            got = hj.feedback_drift(u, gamma, None)
            assert np.abs(got - drift).max() <= 1e-13 * np.abs(drift).max(), gamma


def _face_slices(k, d):
    lo = tuple(slice(None, -1) if ax == k else slice(None) for ax in range(d))
    hi = tuple(slice(1, None) if ax == k else slice(None) for ax in range(d))
    return lo, hi


def _face_tables(grid, vf):
    """diag, cross and drift on face-shaped k-face arrays, built from the
    face arrays A and a_face with the kernel's scalings."""
    h = grid.spacings
    d = grid.dim
    _, A, a_face = _full_tables(grid, vf)
    diag = [None if A[k][k] is None else A[k][k] * (1.0 / h[k] ** 2) for k in range(d)]
    cross = [[(l, A[k][l] * (1.0 / (4.0 * h[k] * h[l])))
              for l in range(d) if l != k and A[k][l] is not None] for k in range(d)]
    drift = [[(i, a * (1.0 / h[k])) for i, a in enumerate(a_face[k]) if a is not None]
             for k in range(d)]
    return diag, cross, drift


def _face_shaped_flux_divergence(values, grid, vf, sigma, b_values=None):
    """flux_divergence as it was written on face-shaped tables and views."""
    diags, crosses, drifts = _face_tables(grid, vf)
    d = values.ndim
    out = np.zeros_like(values)
    work = np.empty((3, values.size))
    for k in range(d):
        lo, hi = _face_slices(k, d)
        v_lo, v_hi = values[lo], values[hi]
        flux, tmp, s = (row[: v_lo.size].reshape(v_lo.shape) for row in work)
        diag = diags[k] if sigma > 0 else None
        cross = crosses[k] if sigma > 0 else ()
        drift = drifts[k] if b_values is not None else ()
        if diag is None and not cross and not drift:
            continue
        if diag is not None:
            np.subtract(v_hi, v_lo, out=flux)
            flux *= diag
        else:
            flux.fill(0.0)
        if cross:
            np.add(v_lo, v_hi, out=s)
            for l, c in cross:
                v, o = np.moveaxis(s, l, 0), np.moveaxis(tmp, l, 0)
                np.subtract(v[2:], v[:-2], out=o[1:-1])
                o[0] = 3.0 * (v[1] - v[0]) - (v[2] - v[1])
                o[-1] = 3.0 * (v[-1] - v[-2]) - (v[-2] - v[-3])
                tmp *= c
                flux += tmp
        if diag is not None or cross:
            flux *= sigma
        if drift:
            s.fill(0.0)
            for i, c in drift:
                bi = b_values[i]
                if np.ndim(bi) == 0:
                    np.multiply(c, bi, out=tmp)
                else:
                    np.add(bi[lo], bi[hi], out=tmp)
                    tmp *= 0.5
                    tmp *= c
                s += tmp
            np.copyto(tmp, v_lo)
            np.copyto(tmp, v_hi, where=s > 0)
            tmp *= s
            flux += tmp
        out[lo] += flux
        out[hi] -= flux
    return out


def _face_shaped_godunov_gradient(u, tables):
    """godunov_gradient as it was written on face-shaped differences."""
    values = u.values
    h = u.grid.spacings
    d = u.grid.dim
    diffs = {}
    total = np.zeros(u.grid.shape)
    d_minus, d_plus, pick = (np.empty(u.grid.shape) for _ in range(3))
    for coef, split in zip(tables.coef, tables.upwind):
        d_minus.fill(0.0)
        d_plus.fill(0.0)
        for l, c in enumerate(coef):
            if c is None:
                continue
            lo, hi = _face_slices(l, d)
            D = diffs.get(l)
            if D is None:
                D = diffs[l] = np.subtract(values[hi], values[lo])
                D /= h[l]
            if isinstance(c, float):
                cD = _stencils.times(c, D)
                d_minus[hi if c > 0 else lo] += cD
                d_plus[lo if c > 0 else hi] += cD
                continue
            p = np.moveaxis(pick, l, 0)
            Dl = np.moveaxis(D, l, 0)
            for acc, backward in zip((d_minus, d_plus), split[l]):
                bw = np.moveaxis(backward, l, 0)
                p[:-1] = Dl
                p[-1] = 0.0
                np.copyto(p[1:], Dl, where=bw[1:])
                np.copyto(p[0], 0.0, where=bw[0])
                pick *= c
                acc += pick
        np.maximum(d_minus, 0.0, out=d_minus)
        np.negative(d_plus, out=d_plus)
        np.maximum(d_plus, 0.0, out=d_plus)
        np.maximum(d_minus, d_plus, out=d_minus)
        d_minus *= d_minus
        total += d_minus
    return np.sqrt(total, out=total)


def _axis_partial(values, h, l):
    """np.gradient's centred interior along axis l; each edge row is the
    one-sided numerator -3 f0 + 4 f1 - f2 written as differences, over 2h."""
    out = np.gradient(values, h, axis=l)
    v, o = np.moveaxis(values, l, 0), np.moveaxis(out, l, 0)
    o[0] = (3.0 * (v[1] - v[0]) - (v[2] - v[1])) / (2.0 * h)
    o[-1] = (3.0 * (v[-1] - v[-2]) - (v[-2] - v[-3])) / (2.0 * h)
    return out


def _per_axis_horizontal_gradient(tables, f):
    """horizontal_gradient written with one axis partial per axis."""
    h = f.grid.spacings
    partials = [_axis_partial(f.values, h[l], l) for l in range(f.grid.dim)]
    out = np.zeros((len(tables.coef),) + f.grid.shape)
    for comp, row in zip(out, tables.coef):
        for l, c in enumerate(row):
            if c is not None:
                comp += _stencils.times(c, partials[l])
    return out


OFF_CENTRE = GridSpec((-2.0, -1.5, -1.0), (1.5, 2.5, 3.0), (9, 12, 15))
SHIFT_CASES = [
    ("heisenberg1 on 9x12x15 off centre", left_invariant_fields(H1), OFF_CENTRE),
    ("engel", left_invariant_fields(ENGEL), GridSpec((-1.5,) * 4, (1.5,) * 4, (11,) * 4)),
    ("hand-built on 9x12x15 off centre", HAND, OFF_CENTRE),
]


@pytest.mark.parametrize("label,vf,grid", SHIFT_CASES, ids=[c[0] for c in SHIFT_CASES])
def test_flat_shift_kernels_equal_the_face_shaped_kernels_bit_for_bit(label, vf, grid, monkeypatch):
    """Every face pass is a shift of the flat node array; outputs stay the
    bits of the face-shaped kernels, for a transposed view too."""
    monkeypatch.setattr(vfields, "left_invariant_fields", lambda group: vf)
    geom = _stencils.frame_tables(grid, vf)
    rng = np.random.default_rng(17)
    m = vf.count
    contiguous = rng.normal(size=grid.shape)
    # same shape, C order reversed: a flat reshape of it would be a copy
    transposed = rng.normal(size=grid.shape[::-1]).T
    assert not transposed.flags.c_contiguous
    for values in (contiguous, transposed):
        nodal = rng.normal(size=(m,) + grid.shape)
        if values is transposed:
            nodal = rng.normal(size=grid.shape[::-1] + (m,)).T
        for name, b in (("none", None), ("constant", rng.normal(size=m)), ("nodal", nodal)):
            for sigma in (0.0, 0.25):
                want = _face_shaped_flux_divergence(values, grid, vf, sigma, b)
                got = _stencils.flux_divergence(values, geom, sigma, b)
                assert got.tobytes() == want.tobytes(), (name, sigma)
        u = Field(grid, values)
        want = _face_shaped_godunov_gradient(u, geom)
        assert hj.godunov_gradient(u, None).tobytes() == want.tobytes()
        want = _per_axis_horizontal_gradient(geom, u)
        assert vfields.horizontal_gradient(vf, u).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("label,group,grid", CASES, ids=[c[0] for c in CASES])
def test_flux_of_a_constant_is_exactly_zero(label, group, grid):
    geom = _stencils.frame_tables(grid, left_invariant_fields(group))
    for c in (1.0, 0.1, 1.0 / 3.0, -7.25e3):
        got = _stencils.flux_divergence(np.full(grid.shape, c), geom, 0.25)
        assert not got.any(), (c, float(np.abs(got).max()))


@pytest.mark.parametrize("fill", [np.nan, np.inf])
@pytest.mark.parametrize("label,group,grid", CASES, ids=[c[0] for c in CASES])
def test_flux_kernel_reads_no_unwritten_scratch(label, group, grid, fill, monkeypatch):
    """The scratch comes from np.empty: with every buffer of the kernel
    filled with NaN, an unwritten entry that reached a node would show in
    the bits; filled with inf, arithmetic on one raises (inf - inf), which
    is how the face-sum tail past the last face shows, since only the wrap
    layer reads it."""
    vf = left_invariant_fields(group)
    geom = _stencils.frame_tables(grid, vf)
    rng = np.random.default_rng(19)
    values = rng.normal(size=grid.shape)
    cases = [(name, b, sigma) for name, b in _drifts(grid, vf.count, rng).items()
             for sigma in (0.0, 0.25)]
    want = [_face_shaped_flux_divergence(values, grid, vf, sigma, b) for _, b, sigma in cases]
    empty = np.empty

    def filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(fill)
        return out

    monkeypatch.setattr(np, "empty", filled)
    with np.errstate(all="raise"):
        for (name, b, sigma), w in zip(cases, want):
            got = _stencils.flux_divergence(values, geom, sigma, b)
            assert got.tobytes() == w.tobytes(), (name, sigma)


@pytest.mark.parametrize("label,group,grid", CASES[:2], ids=[c[0] for c in CASES[:2]])
def test_tables_hold_the_c_order_strides(label, group, grid):
    strides = _stencils.frame_tables(grid, left_invariant_fields(group)).strides
    assert strides == tuple(np.array(np.empty(grid.shape).strides) // 8)


def test_left_frame_is_built_once_per_value_of_the_group():
    assert left_invariant_fields(H1) is left_invariant_fields(H1)


@pytest.mark.parametrize("spec", [preset("engel"), left_invariant_fields(DOUBLED)],
                         ids=["group", "frame"])
def test_a_frozen_spec_hashes_once_and_pickles_without_its_hash(spec):
    assert hash(spec) == hash(tuple(getattr(spec, f.name) for f in dataclasses.fields(spec)))
    assert spec.__dict__["_hash"] == hash(spec)
    # str hashes are salted per process: a copy sent to a spawned worker hashes anew
    fresh = pickle.loads(pickle.dumps(spec))
    assert "_hash" not in fresh.__dict__
    assert fresh == spec and hash(fresh) == hash(spec)


def _loaded_libraries(code: str, names=("scipy", "sympy")) -> set[str]:
    """Which of the modules names a fresh interpreter holds after running code."""
    code += f"\nimport sys\nprint(sorted(set(sys.modules) & {set(names)!r}))\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(carnotlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return set(ast.literal_eval(out.stdout.strip().splitlines()[-1]))


def test_stepping_modules_import_no_scipy():
    stepping = "import carnotlab.heat, carnotlab.fokker_planck, carnotlab.hamilton_jacobi"
    assert _loaded_libraries(stepping) == set()
    # the package, the front end and the coupled solver: no sympy
    assert "sympy" not in _loaded_libraries(
        stepping + "\nimport carnotlab, carnotlab.cli, carnotlab.mfg")
    # `carnotlab schema` prints a table: neither library
    assert _loaded_libraries("from carnotlab import cli\ncli.main(['schema'])") == set()
    # `verify` loads a library only for the suites that use it
    assert _loaded_libraries("import carnotlab.verify") == set()
    assert _loaded_libraries("from carnotlab import cli\ncli.main(['verify', 'group_algebra'])") == set()
    # the exact frame calculus and the barrier run on the package's own
    # rational polynomials
    for suite in ("calculus", "uniqueness_barrier"):
        assert _loaded_libraries(f"from carnotlab import cli\ncli.main(['verify', '{suite}'])") == set()
    # no module of the package imports sympy
    package = os.path.dirname(os.path.abspath(carnotlab.__file__))
    importers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "sympy" for m in mods):
                importers.add(name)
    assert importers == set()


def test_the_coupled_kind_loads_no_lp_stack(tmp_path):
    # the coupled run smooths through scipy.sparse but solves no LP
    cfg = tmp_path / "tiny_mfg.cfg"
    cfg.write_text("[scenario]\nkind = mfg\n\n[grid]\nnodes = 11\n\n"
                   "[dynamics]\neps = 1.3\nt_end = 0.02\n")
    run = (f"import carnotlab.mfg\nfrom carnotlab import cli\n"
           f"assert cli.main(['run', {str(cfg)!r}, '--output-dir', {str(tmp_path / 'runs')!r}]) == 0")
    assert _loaded_libraries(run, ("scipy.optimize", "scipy.spatial")) == set()
