"""The group mollifier: kernel mass, support and scaling, the operator
against a per-offset loop and the group law, and its memoized and
rebuilt row blocks."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from carnotlab import grid as cgrid
from carnotlab import groups, mfg, mollifier, vfields
from carnotlab.grid import Field, GridSpec, bump_field, node_coordinates
from carnotlab.groups import hom_norm, multiply
from carnotlab.mollifier import MollifierSpec, mollify
from conftest import kernel_field, kernel_scale

G = groups.preset("heisenberg1")


def test_mollifier_requires_resolvable_eps():
    grid = cgrid.default_grid(nodes=41)
    with pytest.raises(ValueError):
        MollifierSpec.build(0.2, grid, G)  # h = 0.1, need eps >= 0.3


def test_kernel_mass_and_support():
    grid = cgrid.default_grid(nodes=41)
    m = MollifierSpec.build(0.4, grid, G)
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    kf = kernel_field(m)
    assert abs(kf.integral() - 1.0) <= 1e-10
    pts = np.stack(node_coordinates(grid), axis=-1).reshape(-1, 3)
    norms = hom_norm(G, pts).reshape(grid.shape)
    assert np.all(kf.values[norms >= m.eps] == 0.0)


def test_mollify_dirac_returns_kernel():
    grid = cgrid.default_grid(nodes=41)
    m = MollifierSpec.build(0.4, grid, G)
    vals = np.zeros(grid.shape)
    vals[20, 20, 20] = 1.0 / grid.cell_volume
    smoothed = mollify(Field(grid, vals), m)
    kf = kernel_field(m)
    assert np.abs(smoothed.values - kf.values).max() <= 1e-10 * kf.values.max()


def test_mollify_preserves_mass_and_sup():
    grid = cgrid.default_grid(nodes=41)
    rho = bump_field(grid, G, radius=1.0, normalize=True)
    for eps in (0.4, 0.8):
        m = MollifierSpec.build(eps, grid, G)
        out = mollify(rho, m)
        assert abs(out.integral() - rho.integral()) <= 1e-8
        assert out.values.max() <= rho.values.max() * (1 + 1e-6)
        assert out.values.min() >= -1e-15


def test_kernel_gradient_scaling_chain():
    # sup |grad(kernel_eps)| scales like eps^-(Q+1); compare the measured
    # finite-difference sups at eps 0.4 and 0.8 with the homogeneity
    # prediction (up to the small discrete-normalization drift in C)
    grid = GridSpec((-1.0,) * 3, (1.0,) * 3, (121,) * 3)
    vf = vfields.left_invariant_fields(G)

    def grad_sup(field):
        g = vfields.horizontal_gradient(vf, field)
        return float(np.sqrt((g.values**2).sum(axis=0)).max())

    m04 = MollifierSpec.build(0.4, grid, G)
    m08 = MollifierSpec.build(0.8, grid, G)
    s04 = grad_sup(kernel_field(m04))
    s08 = grad_sup(kernel_field(m08))
    q = G.homogeneous_dimension
    predicted = (0.8 / 0.4) ** (q + 1) * kernel_scale(m04) / kernel_scale(m08)
    assert abs(s04 / s08 / predicted - 1.0) <= 0.05


def test_mollify_sup_error_for_lipschitz_data():
    # ||phi - phi_eps||_inf <= (1 + 1e-1) eps for 1-Lipschitz phi
    grid = cgrid.default_grid(nodes=41)
    pts = np.stack(node_coordinates(grid), axis=-1)
    norms = hom_norm(G, pts.reshape(-1, 3)).reshape(grid.shape)
    family = {
        "norm": norms,
        "x1": pts[..., 0],
        "tanh_x2": np.tanh(pts[..., 1]),
    }
    stack = Field(grid, np.stack(list(family.values())))
    for eps in (0.4, 0.8):
        m = MollifierSpec.build(eps, grid, G)
        pad = int(np.ceil(eps / grid.spacings[0])) + 1
        interior = (slice(pad, -pad),) * 3
        # one product per row block smooths every field of the stack
        for (name, vals), out in zip(family.items(), mollify(stack, m).values):
            err = np.abs(out[interior] - vals[interior]).max()
            assert err <= (1 + 1e-1) * eps, f"{name} at eps={eps}: {err}"
    # above the budget the row blocks are built again on every call
    assert m._blocks == []


def _loop_mollify(rho, m, group):
    """The per-offset loop with the heisenberg1 vertical term written out
    by hand; the operator must reproduce it on that law."""
    grid = rho.grid
    h1, h2, h3 = grid.spacings
    X, Y, _ = node_coordinates(grid)
    n3 = grid.shape[2]
    out = np.zeros_like(rho.values)
    base_idx = np.arange(n3)
    for (u1, u2, u3), w in zip(m.offsets, m.weights):
        i_off = int(round(u1 / h1))
        j_off = int(round(u2 / h2))
        shifted = np.zeros_like(rho.values)
        src_i = slice(max(0, i_off), grid.shape[0] + min(0, i_off))
        dst_i = slice(max(0, -i_off), grid.shape[0] - max(0, i_off))
        src_j = slice(max(0, j_off), grid.shape[1] + min(0, j_off))
        dst_j = slice(max(0, -j_off), grid.shape[1] - max(0, j_off))
        shifted[dst_i, dst_j, :] = rho.values[src_i, src_j, :]
        s = u3 + 0.5 * (X[:, :, 0] * u2 - Y[:, :, 0] * u1)
        steps = s / h3
        lo = np.floor(steps).astype(int)
        frac = steps - lo
        k_lo = base_idx[None, None, :] + lo[:, :, None]
        k_hi = k_lo + 1
        v_lo = np.where((k_lo >= 0) & (k_lo < n3), np.take_along_axis(shifted, k_lo.clip(0, n3 - 1), axis=2), 0.0)
        v_hi = np.where((k_hi >= 0) & (k_hi < n3), np.take_along_axis(shifted, k_hi.clip(0, n3 - 1), axis=2), 0.0)
        out += w * ((1 - frac[:, :, None]) * v_lo + frac[:, :, None] * v_hi)
    return out


def _doubled_bracket():
    """A 3-d law under heisenberg1's name with twice its bracket."""
    one = Fraction(1)
    return dataclasses.replace(G, law=((), (), ((one, (1, 0, 0), (0, 1, 0)),
                                                 (-one, (0, 1, 0), (1, 0, 0)))))


def _translates_inside(grid, group, m):
    """Nodes x whose translates x * u stay in the box for every offset u."""
    pts = cgrid.node_points(grid)
    lo, hi = np.array(grid.lower), np.array(grid.upper)
    ok = np.ones(pts.shape[0], dtype=bool)
    for u in m.offsets:
        y = multiply(group, pts, u)
        ok &= np.all((y >= lo) & (y <= hi), axis=1)
    return ok.reshape(grid.shape)


def test_mollify_memoized_and_rebuilt_blocks_match_the_loop(monkeypatch):
    grid = cgrid.default_grid(nodes=21)
    rng = np.random.default_rng(3)
    stack = np.stack([bump_field(grid, G, radius=1.0, normalize=True).values,
                      rng.uniform(-1.0, 1.0, grid.shape)])
    stored = MollifierSpec.build(0.8, grid, G)
    want = np.stack([_loop_mollify(Field(grid, v), stored, G) for v in stack])
    memoized = mollify(Field(grid, stack), stored).values
    assert np.abs(memoized - want).max() <= 1e-12
    assert np.abs(mollify(Field(grid, stack[1]), stored).values - want[1]).max() <= 1e-12
    assert stored._blocks

    monkeypatch.setattr(mollifier, "_OPERATOR_BUDGET_BYTES", 0)
    rebuilt = MollifierSpec.build(0.8, grid, G)
    got = mollify(Field(grid, stack), rebuilt).values
    assert np.abs(got - want).max() <= 1e-12
    # every row sums its taps in the same order on both paths
    assert np.array_equal(got, memoized)
    assert rebuilt._blocks == []


def test_mollify_refuses_a_grid_or_law_it_was_not_built_for():
    grid = cgrid.default_grid(nodes=21)
    m = MollifierSpec.build(0.8, grid, G)
    coarse = cgrid.default_grid(nodes=11)
    with pytest.raises(ValueError):
        MollifierSpec.build(0.8, coarse, G)
    with pytest.raises(ValueError):
        mollify(bump_field(coarse, G, radius=1.0), m)
    # m holds its law, and the coupled run, the one path that pairs a
    # mollifier with a group, refuses another law
    rho0 = bump_field(grid, G, radius=1.4, normalize=True)
    with pytest.raises(ValueError, match="group"):
        mfg.mfg_picard(bump_field(grid, G, radius=1.2), rho0, mfg.CouplingSpec(mollifier=m),
                       0.25, 0.01, _doubled_bracket())
    assert m._blocks == []


def test_mollify_follows_the_group_law():
    # phi is affine in x3 on every vertical column, so interpolation is
    # exact and mollify must equal sum_u w_u phi(x * u) wherever the
    # translates stay in the box; the hand-written heisenberg1 term
    # reads the wrong columns on this law
    law = _doubled_bracket()
    grid = cgrid.default_grid(nodes=21)
    m = MollifierSpec.build(0.8, grid, law)

    def phi(x):
        return (1.0 + x[..., 0] - 0.5 * x[..., 1]) * x[..., 2] + x[..., 0] ** 2

    pts = cgrid.node_points(grid)
    want = sum(w * phi(multiply(law, pts, u)) for u, w in zip(m.offsets, m.weights))
    want = want.reshape(grid.shape)
    inside = _translates_inside(grid, law, m)
    assert inside.sum() > 100
    data = Field(grid, phi(pts).reshape(grid.shape))
    got = mollify(data, m).values
    assert np.abs(got - want)[inside].max() <= 1e-12
    assert np.abs(_loop_mollify(data, m, law) - want)[inside].max() > 1e-2


def test_mollifier_operator_is_stored_under_budget_and_keyed_by_value():
    small = cgrid.default_grid(nodes=21)
    m = MollifierSpec.build(0.8, small, G)
    rho = bump_field(small, G, radius=1.0, normalize=True)
    mollify(rho, m)
    blocks = list(m._blocks)
    assert sum(b.nnz for b in blocks) == 2_339_428
    # the nonzero taps of every row come in strictly increasing column
    # order, so the blocks are assembled without a sort
    cols, wts = mollifier._shift_entries(m, 0, small.shape[0])
    rows, _ = np.nonzero(wts)
    assert np.diff(cols[wts != 0])[rows[1:] == rows[:-1]].min() > 0
    same = Field(cgrid.default_grid(nodes=21), rho.values)
    mollify(same, m)
    assert len(m._blocks) == len(blocks)
    assert all(a is b for a, b in zip(m._blocks, blocks))
    # nothing is memoized at 41^3, eps 0.8: see test_mollify_sup_error_for_lipschitz_data


def test_mollify_on_engel_keeps_mass_and_sup(monkeypatch):
    E = groups.preset("engel")
    grid = GridSpec((-1.5,) * 4, (1.5,) * 4, (11,) * 4)
    m = MollifierSpec.build(0.9, grid, E)
    ones = mollify(Field(grid, np.ones(grid.shape)), m).values
    assert m._blocks == []
    inside = _translates_inside(grid, E, m)
    assert inside.sum() > 0
    assert np.abs(ones[inside] - 1.0).max() <= 1e-12

    rho = bump_field(grid, E, radius=0.7, normalize=True)
    out = mollify(rho, m)
    assert abs(out.integral() - rho.integral()) <= 1e-12
    assert out.values.max() <= rho.values.max()
    assert out.values.min() >= 0.0

    # the memoized blocks, whose runs of taps meet a column more than
    # once, are the rebuilt ones
    monkeypatch.setattr(mollifier, "_OPERATOR_BUDGET_BYTES", 1 << 40)
    stored = MollifierSpec.build(0.9, grid, E)
    assert np.array_equal(mollify(rho, stored).values, out.values)
    assert stored._blocks
