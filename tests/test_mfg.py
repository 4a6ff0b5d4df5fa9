"""Coupled value/density iteration and its coupling operator."""

import json
import math

import numpy as np
import pytest

from carnotlab import cli, fokker_planck, grid, groups, mfg, vfields
from carnotlab import hamilton_jacobi as hj
from carnotlab.flat_metric import DiscreteMeasure, MollifierSpec, flat_distance
from carnotlab.report import json_text
from conftest import kernel_field

G = groups.preset("heisenberg1")
SIGMA = 0.25


def c1_norm(f: grid.Field) -> float:
    """||f||_inf + ||grad_G f||_inf on the grid."""
    return f.sup_norm() + vfields.gradient_sup(vfields.left_invariant_fields(G), f)


def box(n):
    return grid.GridSpec((-2.0,) * 3, (2.0,) * 3, (n,) * 3)


@pytest.fixture(scope="module")
def coupling21():
    gs = box(21)
    return gs, mfg.CouplingSpec(mollifier=MollifierSpec.build(0.8, gs, G), gain=1.0)


@pytest.fixture(scope="module")
def coupling15():
    gs = box(15)
    return gs, mfg.CouplingSpec(mollifier=MollifierSpec.build(0.9, gs, G), gain=1.0)


@pytest.fixture(scope="module")
def headline(coupling21):
    """T=0.1 run with the default bumps; the package's reference scenario."""
    gs, c = coupling21
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.4, normalize=True)
    return mfg.mfg_picard(u_T, rho0, c, SIGMA, 0.1, G)


# ---------------------------------------------------------------------------
# coupling operator
# ---------------------------------------------------------------------------

def test_coupling_preserves_mass_and_sup(coupling21):
    gs, c = coupling21
    X, Y, Z = grid.node_coordinates(gs)
    inside = (np.abs(X) <= 0.8) & (np.abs(Y) <= 0.8) & (np.abs(Z) <= 0.8)
    vals = inside / (inside.sum() * gs.cell_volume)
    rho = grid.Field(gs, vals, 0.0)
    out = mfg.coupling_eval(rho, c, G)
    assert out.integral() == pytest.approx(rho.integral(), abs=1e-8)
    assert out.sup_norm() <= rho.sup_norm() * (1 + 1e-12)


def test_coupling_gain_scales_linearly(coupling21):
    gs, c = coupling21
    rho = grid.bump_field(gs, G, radius=1.0, normalize=True)
    base = mfg.coupling_eval(rho, c, G)
    scaled = mfg.coupling_eval(rho, mfg.CouplingSpec(mollifier=c.mollifier, gain=2.5), G)
    assert np.allclose(scaled.values, 2.5 * base.values, rtol=0, atol=1e-14)


def test_coupling_dirac_is_extremal(coupling21):
    # a unit point mass comes back as the kernel itself, whose C1 size is
    # the uniform bound every probability density must respect
    gs, c = coupling21
    vals = np.zeros(gs.shape)
    vals[10, 10, 10] = 1.0 / gs.cell_volume
    dirac = grid.Field(gs, vals, 0.0)
    out = mfg.coupling_eval(dirac, c, G)
    ref = kernel_field(c.mollifier)
    assert np.abs(out.values - ref.values).max() <= 1e-12 * ref.sup_norm()
    bound = c1_norm(out)
    rng = np.random.default_rng(5)
    for _ in range(4):
        ctr = tuple(rng.uniform(-0.35, 0.35, size=3))
        rho = grid.bump_field(gs, G, center=ctr, radius=1.0, normalize=True)
        assert c1_norm(mfg.coupling_eval(rho, c, G)) <= bound * (1 + 1e-9)


def test_coupling_lipschitz_in_flat_distance(coupling21):
    # empirical Lipschitz ratio over horizontal translates of one profile;
    # vertical shifts would mix in the square-root scaling of the
    # quasi-distance, so the homogeneous family keeps shifts horizontal
    gs, c = coupling21
    rng = np.random.default_rng(42)
    ratios = []
    for _ in range(10):
        c1 = (*rng.uniform(-0.4, 0.4, size=2), 0.0)
        c2 = (*rng.uniform(-0.4, 0.4, size=2), 0.0)
        r1 = grid.bump_field(gs, G, center=c1, radius=1.0, normalize=True)
        r2 = grid.bump_field(gs, G, center=c2, radius=1.0, normalize=True)
        f1 = mfg.coupling_eval(r1, c, G)
        f2 = mfg.coupling_eval(r2, c, G)
        dn = c1_norm(grid.Field(gs, f1.values - f2.values, 0.0))
        mu = DiscreteMeasure.from_field(r1, coarsen=2)
        nu = DiscreteMeasure.from_field(r2, coarsen=2)
        res = flat_distance(mu, nu, G)
        assert res.ok
        ratios.append(dn / res.value)
    ratios = np.asarray(ratios)
    mean = ratios.mean()
    assert ratios.max() <= 1.2 * mean
    assert ratios.min() >= 0.8 * mean


# ---------------------------------------------------------------------------
# rotation helper
# ---------------------------------------------------------------------------

def test_rotation_image_is_a_quarter_turn():
    gs = box(9)
    X, _, _ = grid.node_coordinates(gs)
    f = grid.Field(gs, X.copy(), 0.0)
    r1 = mfg.rotation_image(f)
    # x1 pulls back to x2 under the turn
    assert np.abs(r1.values - grid.node_coordinates(gs)[1]).max() < 1e-12
    r4 = mfg.rotation_image(mfg.rotation_image(mfg.rotation_image(r1)))
    assert np.array_equal(r4.values, f.values)


def test_rotation_needs_square_axes():
    gs = grid.GridSpec((-2.0, -2.0, -1.0), (2.0, 2.0, 1.0), (9, 7, 5))
    with pytest.raises(ValueError):
        mfg.rotation_image(grid.constant_field(gs, 1.0))


# ---------------------------------------------------------------------------
# picard iteration
# ---------------------------------------------------------------------------

def test_picard_validates_inputs(coupling15):
    gs, c = coupling15
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.0, normalize=True)
    with pytest.raises(ValueError):
        mfg.mfg_picard(u_T, rho0, c, SIGMA, 0.1, G, theta=0.0)
    with pytest.raises(ValueError):
        mfg.mfg_picard(u_T, rho0, c, SIGMA, 0.1, G, theta=1.5)
    with pytest.raises(ValueError):
        mfg.mfg_picard(u_T, grid.bump_field(gs, G, radius=1.0), c, SIGMA, 0.1, G)
    with pytest.raises(ValueError):
        mfg.mfg_picard(u_T, rho0, c, SIGMA, -0.1, G)
    bad = grid.Field(gs, rho0.values - 2e-3, 0.0)
    with pytest.raises(ValueError):
        mfg.mfg_picard(u_T, bad, c, SIGMA, 0.1, G)


def test_picard_refuses_a_density_not_stamped_zero():
    # every solve runs over [0, T]: a density stamped 0.05 would be carried
    # on stamps 0.05..0.1 and paired with value snapshots of other times
    gs = box(11)
    c = mfg.CouplingSpec(mollifier=MollifierSpec.build(1.3, gs, G), gain=1.0)
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.0, normalize=True)
    late = grid.Field(gs, rho0.values, 0.05)
    with pytest.raises(ValueError, match="stamped"):
        mfg.mfg_picard(u_T, late, c, SIGMA, 0.1, G)


def test_picard_headline_converges(headline):
    st = headline
    assert st.converged
    assert st.iterations <= 50
    assert st.residuals_u[-1] <= 1e-5
    assert st.residuals_rho[-1] <= 1e-4
    # residual histories align with the iteration count and start with the
    # sentinel for the undefined first density change
    assert len(st.residuals_u) == len(st.residuals_rho) == st.iterations
    assert math.isinf(st.residuals_rho[0])


def test_picard_headline_residuals_decrease(headline):
    st = headline
    tail = st.residuals_u[1:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_picard_headline_certifies_flat_distance(headline):
    st = headline
    assert len(st.d0_certified) == 2
    for t, v in st.d0_certified:
        assert 0 <= v <= 1e-4
        assert 0 <= t <= 0.1 + 1e-12
    # each value is the L1 change at one snapshot, so it is at most the
    # largest over the snapshots, the change that stopped the run
    assert max(v for _, v in st.d0_certified) <= st.residuals_rho[-1]


def test_picard_headline_certified_values_bound_the_flat_distance(headline, coupling21):
    st = headline
    gs, c = coupling21
    # the same run stopped one sweep earlier holds the previous density iterate
    before = mfg.mfg_picard(st.u_terminal, st.rho_initial, c, SIGMA, 0.1, G,
                            max_iters=st.iterations - 1)
    assert not before.converged and before.iterations == st.iterations - 1
    stamps = st.rho_traj.times
    for t, v in st.d0_certified:
        k = stamps.index(t)
        cur, prev = st.rho_traj.fields[k], before.rho_traj.fields[k]
        assert v == pytest.approx(np.abs(cur.values - prev.values).sum() * gs.cell_volume,
                                  rel=1e-12)
        # every test function of d0 has |f| <= 1, so the L1 value bounds d0
        res = flat_distance(DiscreteMeasure.from_field(prev, coarsen=2),
                            DiscreteMeasure.from_field(cur, coarsen=2), G)
        assert res.status == "optimal"
        assert 0.0 < res.value <= v


def test_picard_headline_report(headline):
    rep = mfg.mfg_residual_report(headline)
    assert rep.ok
    assert rep.mass_error <= 1e-6
    assert rep.min_density >= -1e-3 * max(f.sup_norm() for f in headline.rho_traj.fields)
    assert rep.duality_residual <= rep.duality_bound
    assert rep.sup_bounds_ok
    d = json.loads(json_text(rep))
    assert d["verdict"] == "converged"
    assert d["residuals_rho"][0] is None
    assert len(d["d0_certified"]) == 2


# the datum centre of seed 1 of the benchmark's mfg_coupled workload
SEED1_CENTRE = (0.042628470716874756, -0.08591586636271323, 0.027814558950511742)


@pytest.fixture(scope="module")
def off_centre(coupling21):
    """The bundled mfg_small_T run with both bumps centred at SEED1_CENTRE,
    and its audit."""
    gs, c = coupling21
    u_T = grid.bump_field(gs, G, center=SEED1_CENTRE, radius=1.2)
    rho0 = grid.bump_field(gs, G, center=SEED1_CENTRE, radius=1.4, normalize=True)
    state = mfg.mfg_picard(u_T, rho0, c, SIGMA, 0.1, G)
    return state, mfg.mfg_residual_report(state)


def test_picard_off_centre_keeps_mass_pairing_and_sup_bounds(off_centre):
    state, rep = off_centre
    assert state.converged
    assert rep.mass_error <= 1e-6
    assert rep.duality_residual <= rep.duality_bound
    assert rep.sup_bounds_ok


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the centred cross flux undershoots "
                                       "the audit's density floor (min -1.118e-4, floor -1.108e-4)")
def test_picard_off_centre_keeps_the_density_floor(off_centre):
    state, rep = off_centre
    assert rep.min_density >= -1e-3 * max(f.sup_norm() for f in state.rho_traj.fields)
    assert rep.ok


def test_picard_headline_is_a_fixed_point(headline):
    gap = mfg.fixed_point_residual(headline)
    assert gap <= 2.0 * headline.tol_u


def test_picard_decoupled_stops_after_confirming_sweep(coupling15):
    # with no feedback the first sweep already solves the system; the
    # plain iteration needs exactly one more sweep to see nothing move
    gs, c = coupling15
    c0 = mfg.CouplingSpec(mollifier=c.mollifier, gain=0.0)
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.0, normalize=True)
    st = mfg.mfg_picard(u_T, rho0, c0, SIGMA, 0.1, G, theta=1.0)
    assert st.converged
    assert st.iterations == 2
    assert st.residuals_u[0] <= 1e-12
    assert st.residuals_rho[1] <= 1e-12


@pytest.fixture(scope="module")
def damping_family(coupling15):
    """The 15^3, T = 0.1 runs at theta 0.3, 0.5 and 0.8, keyed by theta."""
    gs, c = coupling15
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.0, normalize=True)
    return {theta: mfg.mfg_picard(u_T, rho0, c, SIGMA, 0.1, G, theta=theta)
            for theta in (0.3, 0.5, 0.8)}


def test_picard_limit_does_not_depend_on_damping(damping_family):
    assert all(st.converged for st in damping_family.values())
    pairs = [(0.3, 0.5), (0.3, 0.8), (0.5, 0.8)]
    for a, b in pairs:
        gap = max(
            np.abs(fa.values - fb.values).max()
            for fa, fb in zip(damping_family[a].u_traj.fields, damping_family[b].u_traj.fields)
        )
        assert gap <= 5.0 * 1e-5


def theta_picard(u_T, rho0, c, t_end, theta, max_iters=50):
    """Plain theta-damped Picard under mfg_picard's stop rule, with no secant
    step; returns the limit's u-trajectory and the sweeps it took."""
    seed = hj.HamiltonianSpec(u0=u_T)
    n = mfg.picard_steps(seed, SIGMA, t_end, G)
    v0 = hj.hj_solve(seed, SIGMA, t_end, G, steps=n, store_every=1)
    u, rho_prev = v0.reflected(v0.times), None
    for sweep in range(1, max_iters + 1):
        rho = hj.feedback_transport(u, rho0, SIGMA, 2.0, G, t_end)
        cand, _, _ = mfg._backward_value(rho, u_T, c, SIGMA, 2.0, G, t_end)
        u_next = grid.Trajectory(tuple(
            grid.Field(a.grid, (1.0 - theta) * a.values + theta * b.values, a.t)
            for a, b in zip(u.fields, cand.fields)))
        res_u = mfg._traj_sup_distance(u_next, u)
        res_rho = math.inf if rho_prev is None else mfg._traj_l1_distance(rho, rho_prev)
        u, rho_prev = u_next, rho
        if res_u <= 1e-5 and res_rho <= 1e-4:
            return u, sweep
    raise AssertionError(f"theta-Picard did not converge in {max_iters} sweeps")


@pytest.mark.parametrize("gain, t_end, theta", [(1.0, 0.1, 0.3), (1.0, 0.1, 0.8),
                                                (8.0, 0.5, 0.5)])
def test_secant_step_reaches_the_theta_picard_limit_in_fewer_sweeps(
        coupling15, damping_family, gain, t_end, theta):
    # theta-Picard needs 20, 6 and 15 sweeps here; in the gain-8 case the
    # undamped map contracts by only about 0.2 per sweep
    gs, base = coupling15
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.0, normalize=True)
    c = mfg.CouplingSpec(mollifier=base.mollifier, gain=gain)
    if gain == 1.0 and t_end == 0.1:
        st = damping_family[theta]
    else:
        st = mfg.mfg_picard(u_T, rho0, c, SIGMA, t_end, G, theta=theta)
    limit, sweeps = theta_picard(u_T, rho0, c, t_end, theta)
    assert st.converged
    # the damping_family_limit_gap budget of the mfg suite
    assert mfg._traj_sup_distance(st.u_traj, limit) <= 5e-5
    assert st.iterations < sweeps


def test_picard_preserves_rotation_symmetry(coupling15):
    gs, c = coupling15
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.0, normalize=True)
    st = mfg.mfg_picard(u_T, rho0, c, SIGMA, 0.1, G, max_iters=4, tol_u=0.0)
    worst = 0.0
    for traj in (st.u_traj, st.rho_traj):
        for f in traj.fields:
            worst = max(worst, float(np.abs(mfg.rotation_image(f).values - f.values).max()))
    assert worst <= 1e-10


def test_picard_nonconvergence_is_a_verdict(coupling15):
    gs, c = coupling15
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.0, normalize=True)
    st = mfg.mfg_picard(u_T, rho0, c, SIGMA, 0.1, G, max_iters=2)
    assert not st.converged
    assert st.verdict == "no fixed point found at this T"
    assert st.iterations == 2
    rep = mfg.mfg_residual_report(st)
    assert not rep.ok
    assert rep.mass_error <= 1e-6


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: the stop rule records theta * sup|r|, so at "
                          "theta = 1e-300 an iterate that never moved reads as converged")
def test_tiny_damping_does_not_read_as_converged(tmp_path):
    # the run reports "converged after 2 iterations" with value_residual
    # 2.6e-303, yet one more undamped sweep moves u by 2.6e-3
    path = tmp_path / "tiny_theta.cfg"
    path.write_text("[scenario]\nkind = mfg\n\n[grid]\nnodes = 11\n\n"
                    "[dynamics]\neps = 1.3\nt_end = 0.02\ntheta = 1e-300\n")
    cfg, errors = cli.load_config(str(path))
    assert not errors
    data = cli._scenario_data(cfg, G)
    dyn, tol = cfg["dynamics"], cfg["tolerances"]
    coupling = mfg.CouplingSpec(mollifier=data["mollifier"], gain=dyn["gain"])
    st = mfg.mfg_picard(data["u_T"], data["datum"], coupling, dyn["sigma"], dyn["t_end"], G,
                        gamma=dyn["gamma"], theta=dyn["theta"], tol_u=tol["tol_u"],
                        tol_rho=tol["tol_rho"], max_iters=tol["max_iters"])
    assert not st.converged or mfg.fixed_point_residual(st) <= 2 * tol["tol_u"]


def test_paired_runs_sample_drift_and_source_at_their_keys(monkeypatch):
    # every solve of a paired run steps on the producing run's time grid,
    # so each piecewise-constant lookup lands on a key, never just below it
    lookups = []
    real = fokker_planck.piecewise_constant

    def recording(times, values):
        sample, keys = real(times, values), {float(t) for t in times}

        def traced(t):
            lookups.append(t in keys)
            return sample(t)

        return traced

    monkeypatch.setattr(fokker_planck, "piecewise_constant", recording)

    gs = box(11)
    c = mfg.CouplingSpec(mollifier=MollifierSpec.build(1.3, gs, G), gain=1.0)
    u_T = grid.bump_field(gs, G, radius=1.2)
    rho0 = grid.bump_field(gs, G, radius=1.4, normalize=True)
    st = mfg.mfg_picard(u_T, rho0, c, SIGMA, 0.2, G, max_iters=3)
    assert st.iterations == 3 and len(st.u_traj) == 9
    assert len(lookups) == 72 and all(lookups)

    lookups.clear()
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2))
    traj = hj.hj_solve(spec, SIGMA, 0.3, G)
    mu = grid.bump_field(gs, G, radius=1.0, normalize=True)
    hj.duality_report(traj, spec, SIGMA, G, mu)
    assert len(lookups) == 38 and all(lookups)
