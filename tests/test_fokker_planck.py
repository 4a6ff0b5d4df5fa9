"""Transport-diffusion solver contracts: exact heat reduction, conservation,
positivity, energy bounds, weak form, barrier certificates, and the
stochastic particle cross-check."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from carnotlab import fokker_planck as fp_module
from carnotlab import grid as cgrid
from carnotlab import groups, heat
from carnotlab.flat_metric import DiscreteMeasure, flat_distance
from carnotlab.fokker_planck import (
    Coefficient,
    DriftField,
    EnergyReport,
    SubsolutionParams,
    barrier_max_lhs,
    energy_report,
    fp_solve,
    fp_step,
    particle_oracle,
    r_monotonicity_report,
    subsolution_check,
    weak_form_residual,
)
from carnotlab.grid import Field, Trajectory, bump_field, make_ball_mask, node_coordinates
from conftest import ball_boundary_layer, barrier_lhs, gauge_gradient

G = groups.preset("heisenberg1")


def mass(f):
    return float(f.values.sum() * f.grid.cell_volume)


# ---------------------------------------------------------------------------
# drift container
# ---------------------------------------------------------------------------

def test_zero_drift_detection():
    assert DriftField.none().zero
    assert DriftField.constant((0.0, 0.0)).zero
    assert not DriftField.constant((0.5, 0.0)).zero
    assert DriftField.none().at(0.3) is None


def test_constant_drift_values_and_sup():
    d = DriftField.constant((0.5, -0.25))
    assert np.array_equal(d.at(0.0), [0.5, -0.25])
    assert np.array_equal(d.at(10.0), [0.5, -0.25])
    assert d.sup_norm() == 0.5


def test_piecewise_drift_selects_largest_time_not_beyond():
    d = DriftField.from_sequence((0.0, 1.0), (np.array([1.0, 0.0]), np.array([0.0, 2.0])))
    assert np.array_equal(d.at(0.5), [1.0, 0.0])
    assert np.array_equal(d.at(1.0), [0.0, 2.0])
    assert np.array_equal(d.at(5.0), [0.0, 2.0])


def test_coefficient_refuses_bad_input():
    with pytest.raises(ValueError, match="one shape"):
        Coefficient.from_sequence((0.0, 1.0), (np.zeros(2), np.ones((2, 3, 3, 3))))
    c = Coefficient.from_sequence((0.0, 1.0), (np.array([1.0, 0.0]), np.array([np.nan, 0.0])))
    assert np.array_equal(c.at(0.5), [1.0, 0.0])
    with pytest.raises(ValueError, match="not finite"):
        c.at(1.0)
    nodal = Coefficient.constant(np.zeros((2, 5, 5, 5)))
    assert nodal.zero and nodal.at(0.0) is None and nodal.sup_norm() == 0.0


# ---------------------------------------------------------------------------
# reduction to heat and conservation
# ---------------------------------------------------------------------------

def test_zero_drift_step_is_exactly_the_heat_step():
    grid = cgrid.default_grid(nodes=21)
    rho = bump_field(grid, G, radius=1.0, normalize=True)
    dt = 0.5 * cgrid.CFL_SAFETY * cgrid.max_stable_dt(grid, G, 0.25)
    a = fp_step(rho, DriftField.none(), 0.25, dt, G)
    b = heat.heat_step(rho, 0.25, dt, G)
    assert np.array_equal(a.values, b.values)


def test_mass_conservation_on_interior_data():
    grid = cgrid.default_grid(nodes=41)
    rho0 = bump_field(grid, G, radius=0.7, normalize=True)
    mask = make_ball_mask(grid, G, radius=1.8)
    traj = fp_solve(rho0, DriftField.constant((0.3, -0.2)), 0.25, 0.05, G,
                    mask=mask, store_every=10**9)
    final = traj.final
    layer_mass = float(final.values[ball_boundary_layer(mask)].sum() * grid.cell_volume)
    assert layer_mass < 1e-10
    assert abs(mass(final) - 1.0) <= 1e-8


def test_sup_norm_bound():
    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    traj = fp_solve(rho0, DriftField.constant((0.5, 0.25)), 0.25, 0.1, G, store_every=1)
    sup0 = rho0.values.max()
    for f in traj.fields:
        assert f.values.max() <= sup0 * (1 + 1e-3)


def test_negativity_floor_general_drift():
    grid = cgrid.default_grid(nodes=41)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    traj = fp_solve(rho0, DriftField.constant((0.5, 0.25)), 0.25, 0.1, G, store_every=10**9)
    assert traj.final.values.min() >= -1e-3 * rho0.values.max()


def test_negativity_floor_zero_drift_axis_data():
    grid = cgrid.default_grid(nodes=21)
    x = node_coordinates(grid)[0]
    rho0 = Field(grid, np.exp(-x**2))
    traj = fp_solve(rho0, DriftField.none(), 0.25, 0.1, G, store_every=10**9)
    assert traj.final.values.min() >= -1e-10


def test_r_monotonicity():
    # data must sit strictly inside the smaller ball so neither run starts
    # with a truncation cliff; 41^3 resolves the cross-term wiggle below 1e-8
    grid = cgrid.default_grid(nodes=41)
    rho0 = bump_field(grid, G, radius=0.7, normalize=True)
    rep = r_monotonicity_report(rho0, DriftField.constant((0.3, 0.0)), 0.25, 0.05, G,
                                radii=(1.5, 1.9))
    assert rep["worst_increment"] >= -1e-8
    assert rep["mass_big"] >= rep["mass_small"] - 1e-12


# ---------------------------------------------------------------------------
# energy estimates
# ---------------------------------------------------------------------------

def test_energy_bounds_with_drift():
    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    drift = DriftField.constant((0.5, 0.25))
    traj = fp_solve(rho0, drift, 0.25, 0.1, G, store_every=1)
    rep = energy_report(traj, drift, 0.25, G)
    assert isinstance(rep, EnergyReport)
    assert rep.ok
    assert rep.drift_sup == pytest.approx(np.hypot(0.5, 0.25))
    assert rep.l2_peak <= rep.l2_bound
    assert rep.grad_energy <= rep.grad_bound


def test_energy_dissipation_identity_without_drift():
    # at b=0 the gradient-energy ladder collapses to the exact dissipation
    # identity with constant 1/sigma
    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    sigma = 0.25
    traj = fp_solve(rho0, DriftField.none(), sigma, 0.1, G, store_every=1)
    rep = energy_report(traj, DriftField.none(), sigma, G)
    l2_0 = float((rho0.values**2).sum() * grid.cell_volume)
    assert rep.grad_bound == pytest.approx(l2_0 / sigma)
    assert rep.grad_energy <= rep.grad_bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# weak formulation
# ---------------------------------------------------------------------------

def test_weak_form_constant_test_function_reproduces_mass_gap():
    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=0.8, normalize=True)
    drift = DriftField.constant((0.3, 0.1))
    traj = fp_solve(rho0, drift, 0.25, 0.05, G, store_every=1)
    one = Field(grid, np.ones(grid.shape))
    res = weak_form_residual(traj, lambda t: one, drift, 0.25, G)
    gap = mass(traj.final) - mass(traj.fields[0])
    assert abs(res - gap) <= 1e-12


def test_weak_form_refines_toward_zero():
    drift = DriftField.constant((0.4, 0.2))
    residuals = []
    for nodes in (21, 41):
        grid = cgrid.default_grid(nodes=nodes)
        rho0 = bump_field(grid, G, radius=1.0, normalize=True)
        traj = fp_solve(rho0, drift, 0.25, 0.05, G, store_every=1)
        x = node_coordinates(grid)[0]

        def phi(t, grid=grid, x=x):
            return Field(grid, np.cos(x) + 0.5, t)

        residuals.append(abs(weak_form_residual(traj, phi, drift, 0.25, G)))
    assert residuals[0] > 0
    assert residuals[0] / residuals[1] >= 1.7


# ---------------------------------------------------------------------------
# barrier subsolution
# ---------------------------------------------------------------------------

def test_subsolution_threshold_zero_drift():
    rng = np.random.default_rng(5)
    params = SubsolutionParams(beta=0.1, beta1=1.0, tau0=0.0, tau=0.1)
    rep = subsolution_check(G, params, (0.0, 0.0), 0.25, rng=rng)
    assert rep.ok
    assert 0.5 <= rep.threshold <= 1.5
    assert rep.max_lhs_at_double <= 1e-10


def test_subsolution_threshold_with_drift():
    rng = np.random.default_rng(6)
    params = SubsolutionParams(beta=0.1, beta1=1.0, tau0=0.0, tau=0.1)
    rep = subsolution_check(G, params, (0.4, -0.2), 0.25, rng=rng)
    assert rep.ok
    assert rep.threshold > 0.0


def test_subsolution_negative_control_at_zero_rate():
    # with bbar = 0 the time term vanishes and the operator goes positive
    # somewhere: the certificate must not hold
    rng = np.random.default_rng(7)
    params = SubsolutionParams(beta=0.1, beta1=1.0, tau0=0.0, tau=0.1)
    worst = barrier_max_lhs(G, params, (0.0, 0.0), 0.25, rng=rng)(0.0)
    assert worst > 1e-3


@pytest.mark.parametrize("name", ["heisenberg1", "engel"])
@pytest.mark.parametrize("drift", [None, (0.4, -0.2)], ids=["no_drift", "drift"])
def test_barrier_matches_the_sympy_operator(name, drift):
    # the chain rule on the exact gauge polynomial against sympy's operator
    # on sum_k |x_k|^(r/w_k), on the same sample
    group = groups.preset(name)
    params = SubsolutionParams(beta=0.1, beta1=1.0, tau0=0.0, tau=0.1)
    got = barrier_max_lhs(group, params, drift, 0.25, rng=np.random.default_rng(3))
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(400, group.dim))
    cols = [c[:, None] for c in pts[groups.hom_norm(group, pts) > 1e-3].T]
    ts = np.linspace(params.tau0, params.tau, 9)[None, :]
    lhs = barrier_lhs(group, drift, 0.25)
    for bbar in (0.0, 0.25, 2.0, 8.0, 32.0):
        want = float(np.max(lhs(*cols, ts, bbar, params.beta1, params.tau0)))
        assert got(bbar) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                       (1.0, 1.0, 0.0), (0.5, -0.5, 1.0)])
def test_barrier_gradient_vanishes_at_origin(direction):
    # |grad_G ||x||_G^2|^2 along the dilation ray s -> delta_s(direction) tends
    # to 0 as s -> 0+: the squared norm is C^1 but not C^2 at the identity
    _, xs, _, grad_n2 = gauge_gradient(G)
    s = sp.symbols("s", positive=True)
    ray = {xs[i]: sp.Float(direction[i]) * s ** G.weights[i] for i in range(G.dim)}
    assert float(sp.limit(sum(g**2 for g in grad_n2).subs(ray), s, 0, "+")) == 0.0


# ---------------------------------------------------------------------------
# particle oracle
# ---------------------------------------------------------------------------

def test_particle_oracle_is_deterministic():
    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    a = particle_oracle(rho0, DriftField.none(), 0.25, 0.05, G,
                        n_particles=20000, seed=99)
    b = particle_oracle(rho0, DriftField.none(), 0.25, 0.05, G,
                        n_particles=20000, seed=99)
    assert np.array_equal(a.values, b.values)


def test_each_particle_block_draws_its_own_stream():
    grid = cgrid.default_grid(nodes=9)
    cdf = np.cumsum(bump_field(grid, G, radius=1.0).values.reshape(-1))
    cdf /= cdf[-1]

    def block(seed, index):
        return fp_module._simulate_block(seed, index, 2000, cdf, grid.axes(), grid.spacings,
                                         grid.shape, G, None, 0.25, 0.01, 3)

    first, second = block(5, 0), block(5, 1)
    assert first.sum() == second.sum() == 2000
    assert not np.array_equal(first, second)
    assert np.array_equal(second, block(5, 1))
    assert not np.array_equal(first, block(6, 0))
    assert not np.array_equal(second, block(6, 1))


def test_particle_oracle_starts_no_more_workers_than_blocks(monkeypatch, serial_pool):
    # a process pool starts all max_workers processes at its first submit
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
    grid = cgrid.default_grid(nodes=9)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)

    def run(jobs):
        return particle_oracle(rho0, DriftField.none(), 0.25, 0.01, G,
                               n_particles=8193, seed=5, jobs=jobs)

    two_blocks = run(8)
    assert serial_pool.sizes == [2]
    assert np.array_equal(two_blocks.values, run(1).values)


def test_particle_oracle_pure_drift_matches_exact_flow():
    # sigma = 0, constant b: the flow is the right translation by
    # (t b1, t b2, 0); Euler integration of the area term is exact for it
    grid = cgrid.default_grid(nodes=21)
    vals = np.zeros(grid.shape)
    vals[10, 10, 10] = 1.0 / grid.cell_volume
    rho0 = Field(grid, vals)
    out = particle_oracle(rho0, DriftField.constant((0.5, -0.25)), 0.0, 0.2, G,
                          n_particles=64, seed=1)
    m = DiscreteMeasure.from_field(out)
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    # every particle should land in the same cell (deterministic flow,
    # init jitter is sub-cell around a dirac)
    assert (out.values > 0).sum() <= 8


def test_particle_oracle_agrees_with_pde_at_small_scale():
    grid = cgrid.default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    pde = fp_solve(rho0, DriftField.none(), 0.25, 0.2, G, store_every=10**9).final
    emp = particle_oracle(rho0, DriftField.none(), 0.25, 0.2, G,
                          n_particles=40000, seed=11)
    mu = DiscreteMeasure.from_field(emp, coarsen=2)
    nu = DiscreteMeasure.from_field(pde, coarsen=2)
    res = flat_distance(mu, nu, G)
    assert res.status == "optimal"
    assert res.value <= 0.05


def test_particle_block_follows_the_group_law():
    # sigma = 0 and b = (0, 1): each step moves a particle by the horizontal
    # increment (0, -dt), which the law turns into x3 += c x1 (-dt), c the
    # bracket coefficient (1/2 on heisenberg1, 1 on the doubled law), so the
    # mean of x3 moves by -c x1 T from a point mass at x1 = 0.6
    one = Fraction(1)
    doubled = dataclasses.replace(G, law=((), (), ((one, (1, 0, 0), (0, 1, 0)),
                                                   (-one, (0, 1, 0), (1, 0, 0)))))
    grid = cgrid.default_grid(nodes=41)
    vals = np.zeros(grid.shape)
    vals[26, 20, 20] = 1.0 / grid.cell_volume
    rho0 = Field(grid, vals)
    x3 = node_coordinates(grid)[2]
    for group, c in ((G, 0.5), (doubled, 1.0)):
        out = particle_oracle(rho0, DriftField.constant((0.0, 1.0)), 0.0, 0.5, group,
                              n_particles=4096, seed=3)
        assert out.integral() == pytest.approx(1.0, abs=1e-12)
        mean_x3 = float((out.values * x3).sum() * grid.cell_volume)
        assert mean_x3 == pytest.approx(-c * 0.6 * 0.5, abs=0.01)
    # a step-3 law is not a frozen-frame Euler step; refused
    grid4 = cgrid.default_grid(nodes=5, dim=4)
    with pytest.raises(NotImplementedError):
        particle_oracle(Field(grid4, np.ones(grid4.shape)), DriftField.none(), 0.25, 0.1,
                        groups.preset("engel"), n_particles=10, seed=0)


# ---------------------------------------------------------------------------
# trajectory container behavior
# ---------------------------------------------------------------------------

def test_fp_solve_returns_aligned_trajectory():
    grid = cgrid.default_grid(nodes=15)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    traj = fp_solve(rho0, DriftField.none(), 0.25, 0.05, G, store_every=2)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05)
    assert all(f.t == pytest.approx(t) for f, t in zip(traj.fields, traj.times))
    assert isinstance(traj, Trajectory)


# ---------------------------------------------------------------------------
# stability re-checks
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, name):
    """Record the time stamp of the first argument of every call to fp_module.<name>."""
    seen = []
    inner = getattr(fp_module, name)

    def counting(*args, **kwargs):
        seen.append(getattr(args[0], "t", None))
        return inner(*args, **kwargs)

    monkeypatch.setattr(fp_module, name, counting)
    return seen


def test_stronger_drift_segment_is_still_checked(monkeypatch):
    # the step count comes from the weak first segment; the first step of
    # the ten times stronger second segment must refuse to run
    grid = cgrid.default_grid(nodes=15)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    weak = np.array([1.0, 0.5])
    drift = DriftField.from_sequence([0.0, 0.25], [weak, 10 * weak])
    steps = _count_calls(monkeypatch, "fp_step")
    with pytest.raises(cgrid.CFLViolation, match="exceeds stability bound"):
        fp_solve(rho0, drift, 0.01, 0.5, G)
    assert len(steps) >= 3
    assert steps[-2] < 0.25 <= steps[-1]


def test_explicit_step_above_the_bound_raises_on_the_first_step(monkeypatch):
    grid = cgrid.default_grid(nodes=15)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    drift = DriftField.constant((1.0, 0.5))
    limit = cgrid.max_stable_dt(grid, G, 0.25, drift.at(0.0))
    steps = _count_calls(monkeypatch, "fp_step")
    with pytest.raises(cgrid.CFLViolation, match="exceeds stability bound"):
        fp_solve(rho0, drift, 0.25, 20 * limit, G, steps=14)
    assert steps == [0.0]


def test_bound_is_rechecked_only_for_a_new_drift_sample(monkeypatch):
    grid = cgrid.default_grid(nodes=15)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    b = np.array([0.3, -0.2])
    # one check chooses the step count, then one per distinct drift sample
    for drift, checks in ((DriftField.none(), 2),
                          (DriftField.constant(b), 2),
                          (DriftField.from_sequence([0.0, 0.1], [b, -b]), 3)):
        calls = _count_calls(monkeypatch, "max_stable_dt")
        traj = fp_solve(rho0, drift, 0.25, 0.2, G)
        monkeypatch.undo()
        assert len(traj) > 4
        assert len(calls) == checks
