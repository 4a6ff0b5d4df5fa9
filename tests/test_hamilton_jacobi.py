"""Direct and mild-solution solvers for the viscous HJ equation."""

import json

import numpy as np
import pytest

from carnotlab import grid, groups, heat, vfields
from carnotlab.fokker_planck import DriftField, fp_solve
from carnotlab import hamilton_jacobi as hj
from carnotlab.report import json_text
from conftest import coordinate_field

G = groups.preset("heisenberg1")
SIGMA = 0.25


def box(n):
    return grid.GridSpec((-2.0,) * 3, (2.0,) * 3, (n,) * 3)


@pytest.fixture(scope="module")
def headline():
    """T=0.05 fixed-point run on a bump, reused by several tests."""
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2), gamma=2.0)
    traj, rep = hj.hj_fixed_point(spec, SIGMA, 0.05, G)
    return spec, traj, rep


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

def test_spec_rejects_small_gamma():
    gs = box(9)
    with pytest.raises(ValueError):
        hj.HamiltonianSpec(u0=grid.constant_field(gs, 1.0), gamma=1.5)


def test_spec_rejects_negative_datum():
    gs = box(9)
    vals = np.full(gs.shape, 0.1)
    vals[2, 3, 4] = -1e-6
    with pytest.raises(ValueError):
        hj.HamiltonianSpec(u0=grid.Field(gs, vals, 0.0))


def test_source_sequence_lookup():
    gs = box(9)
    values = [np.full(gs.shape, v) for v in (1.0, 2.0, 5.0)]
    src = hj.SourceTerm.from_sequence([0.0, 0.5, 1.0], values)
    assert src.at(0.2)[0, 0, 0] == 1.0
    assert src.at(0.5)[0, 0, 0] == 2.0
    assert src.at(0.7)[0, 0, 0] == 2.0
    assert src.at(3.0)[0, 0, 0] == 5.0
    assert src.at(-1.0)[0, 0, 0] == 1.0
    assert src.bound == 5.0
    assert not src.zero
    assert hj.SourceTerm.none().zero
    assert hj.SourceTerm.none().bound == 0.0


def test_data_scale_combines_datum_and_source():
    gs = box(9)
    spec = hj.HamiltonianSpec(
        u0=grid.constant_field(gs, 2.0),
        source=hj.SourceTerm.constant(grid.constant_field(gs, 3.0).values),
    )
    assert spec.data_scale(0.5) == pytest.approx(2.0 + 0.5 * 3.0)


# ---------------------------------------------------------------------------
# direct scheme exactness
# ---------------------------------------------------------------------------

def test_constant_data_stays_constant_exactly():
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.constant_field(gs, 0.7))
    traj = hj.hj_solve(spec, SIGMA, 0.05, G)
    assert max(np.abs(f.values - 0.7).max() for f in traj.fields) == 0.0


def test_constant_source_gives_linear_ramp_exactly():
    gs = box(21)
    c0 = 1.3
    spec = hj.HamiltonianSpec(
        u0=grid.constant_field(gs, 0.0),
        source=hj.SourceTerm.constant(grid.constant_field(gs, c0).values),
    )
    traj = hj.hj_solve(spec, SIGMA, 0.05, G)
    worst = max(np.abs(f.values - c0 * t).max() for t, f in zip(traj.times, traj.fields))
    assert worst == 0.0


def test_hopf_cole_exact_reference():
    # gamma = 2 and F = 0: u = -sigma log w with w the heat flow of
    # exp(-u0 / sigma) solves the equation exactly (Hopf 1950, Cole 1951),
    # so the direct scheme's gap to it is first order in h
    T = 0.2
    gaps = []
    for n in (11, 21, 41):
        gs = box(n)
        u0 = grid.bump_field(gs, G, radius=1.2, amplitude=0.5)
        u = hj.hj_solve(hj.HamiltonianSpec(u0=u0), SIGMA, T, G).final
        w = heat.evolve(grid.Field(gs, np.exp(-u0.values / SIGMA)), SIGMA, T, G)
        gaps.append(float(np.abs(u.values + SIGMA * np.log(w.values)).max()))
    assert all(a >= 1.9 * b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] <= 1.0e-2, gaps


def test_godunov_gradient_on_linear_data():
    # X_1(x1) = 1 and X_2(x1) = 0, so the magnitude is 1 for either slope
    # sign; one-sided and centered stencils agree away from the edge rows.
    gs = box(21)
    x1 = grid.node_coordinates(gs)[0]
    win = (slice(2, -2),) * 3
    for sgn in (1.0, -1.0):
        f = grid.Field(gs, sgn * x1, 0.0)
        god = hj.godunov_gradient(f, G)
        assert np.abs(god[win] - 1.0).max() < 1e-12


def test_godunov_gradient_zero_on_constants():
    gs = box(15)
    god = hj.godunov_gradient(grid.constant_field(gs, 2.5), G)
    assert np.abs(god).max() == 0.0


def test_godunov_tracks_centered_magnitude_on_smooth_data():
    gs = box(41)
    f = grid.bump_field(gs, G, radius=1.5)
    vf = vfields.left_invariant_fields(G)
    god = hj.godunov_gradient(f, G)
    cen = np.sqrt((vfields.horizontal_gradient(vf, f).values ** 2).sum(axis=0))
    win = (slice(8, 33),) * 3
    rel = np.abs(god[win] - cen[win]).max() / cen.max()
    assert rel < 0.25


def test_step_rejects_oversized_dt():
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2))
    limit = hj.hj_max_stable_dt(spec.u0, spec, SIGMA, G)
    with pytest.raises(grid.CFLViolation):
        hj.hj_step_direct(spec.u0, spec, SIGMA, 2.0 * limit, G)


def test_solution_respects_nonnegativity_floor():
    # comparison keeps u >= 0 for F = 0, u0 >= 0; the scheme may undershoot
    # by the truncation of the steep bump edge, measured at 1.4e-4 here
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.5))
    traj = hj.hj_solve(spec, SIGMA, 0.2, G, store_every=4)
    assert min(float(f.values.min()) for f in traj.fields) >= -1e-3


def test_sup_bounds_report_on_bump():
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.5))
    traj = hj.hj_solve(spec, SIGMA, 0.2, G, store_every=4)
    rep = hj.sup_bounds_report(traj, spec)
    assert rep.ok
    assert rep.max_value <= rep.upper_bound
    assert rep.min_value >= rep.lower_bound
    # gamma = 2 puts the one-sided factor at (gamma+1)/(gamma-1) = 3
    assert rep.lower_bound == pytest.approx(-3.0 * 1.0, rel=2e-3)
    assert rep.upper_bound == pytest.approx(1.0, rel=2e-3)
    assert set(json.loads(json_text(rep))) == {
        "max_value",
        "min_value",
        "upper_bound",
        "lower_bound",
        "ok",
    }


# ---------------------------------------------------------------------------
# mild-solution sweep
# ---------------------------------------------------------------------------

def test_sweep_with_zero_nonlinearity_is_heat_flow():
    # a spatially constant previous iterate has zero gradient, so the
    # sweep must reproduce the heat run of the same count bit for bit,
    # in values and in stamps
    gs = box(21)
    u0 = grid.bump_field(gs, G, radius=1.2)
    spec = hj.HamiltonianSpec(u0=u0)
    n, T = 8, 0.05
    flat = fp_solve(grid.constant_field(gs, 0.3), DriftField.none(), SIGMA, T, G, steps=n)
    phi = hj.duhamel_iterate(flat, spec, SIGMA, G, T)
    heat_run = fp_solve(u0, DriftField.none(), SIGMA, T, G, steps=n, store_every=1)
    assert phi.times == heat_run.times
    assert all(np.array_equal(a.values, b.values) for a, b in zip(phi.fields, heat_run.fields))


def test_fixed_point_is_stamped_like_the_direct_run(headline):
    # a t0 + span k / n ladder would stamp the end of 3 steps 0.05 * 3 / 3,
    # one bit above the marched running sum 0.05
    spec, traj, _ = headline
    assert traj.times == hj.hj_solve(spec, SIGMA, 0.05, G, steps=len(traj) - 1).times


def test_sweep_rejects_unstable_time_grid():
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2))
    prev = grid.Trajectory(tuple(grid.constant_field(gs, 0.0, t) for t in (0.0, 0.5)))
    with pytest.raises(grid.CFLViolation):
        hj.duhamel_iterate(prev, spec, SIGMA, G, 0.5)


def test_sweep_blowup_raises_instead_of_nan(monkeypatch):
    monkeypatch.setattr(hj, "_BLOWUP", 1e-3)
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2))
    n, T = 8, 0.05
    base = fp_solve(spec.u0, DriftField.none(), SIGMA, T, G, steps=n)
    with pytest.raises(hj.DivergenceError):
        hj.duhamel_iterate(base, spec, SIGMA, G, T)


def test_big_data_reports_divergence_verdict(monkeypatch):
    monkeypatch.setattr(hj, "_FIXED_POINT_SWEEPS", 4)
    gs = box(21)
    big = grid.Field(gs, 200.0 * grid.bump_field(gs, G, radius=1.2).values, 0.0)
    spec = hj.HamiltonianSpec(u0=big)
    _, rep = hj.hj_fixed_point(spec, SIGMA, 0.05, G)
    assert rep.verdict == "diverged"
    assert all(np.isfinite(d) for d in rep.distances)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_contracts_at_short_horizon(headline):
    _, _, rep = headline
    assert rep.verdict == "converged"
    assert len(rep.ratios) >= 2
    assert all(r < 1.0 for r in rep.ratios)
    assert all(b < a for a, b in zip(rep.distances, rep.distances[1:]))


def test_fixed_point_is_exact_after_causal_depth(headline):
    # left-endpoint quadrature makes each sweep causal: sweep k settles
    # snapshot k, so K steps reach the exact discrete fixed point and the
    # last recorded distance is literally zero
    _, traj, rep = headline
    n_steps = len(traj.times) - 1
    assert rep.distances[-1] == 0.0
    assert len(rep.distances) <= n_steps + 1


def test_fixed_point_matches_direct_scheme(headline):
    spec, traj, _ = headline
    direct = hj.hj_solve(spec, SIGMA, 0.05, G)
    gap = np.abs(direct.final.values - traj.final.values).max()
    h = max(spec.u0.grid.spacings)
    dt = traj.times[1] - traj.times[0]
    assert gap <= 5.0 * (h + dt) * spec.data_scale(0.05)
    assert gap <= 0.08
    assert abs(direct.times[-1] - traj.times[-1]) < 1e-12


def test_fixed_point_with_a_source_matches_direct_scheme():
    # a static source enters every sweep (f_k = F - |grad u|^gamma) and the
    # error bar through its horizon * ||F|| term
    gs = box(21)
    source = hj.SourceTerm.constant(0.5 * grid.bump_field(gs, G, radius=1.0).values)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2), source=source)
    mild, rep = hj.hj_fixed_point(spec, SIGMA, 0.05, G)
    assert rep.verdict == "converged"
    assert max(rep.ratios) < 1.0
    direct = hj.hj_solve(spec, SIGMA, 0.05, G)
    gap = np.abs(direct.final.values - mild.final.values).max()
    bar = spec.error_bar(mild.times[1] - mild.times[0], 0.05)
    assert bar == 5.0 * (max(gs.spacings) + mild.times[1] - mild.times[0]) * (1.0 + 0.05 * 0.5)
    assert gap <= bar


def test_fixed_point_report_fields(headline):
    _, _, rep = headline
    assert rep.ball_radius > 0.0
    assert rep.horizon == pytest.approx(0.05)
    assert rep.growth_constant > 0.0
    loaded = json.loads(json_text(rep))
    assert set(loaded) == {
        "distances",
        "ratios",
        "ball_radius",
        "horizon",
        "growth_constant",
        "verdict",
    }
    assert loaded["verdict"] == "converged"


def test_fixed_point_handles_cubic_hamiltonian():
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2), gamma=3.0)
    _, rep = hj.hj_fixed_point(spec, SIGMA, 0.05, G)
    assert rep.verdict == "converged"
    assert all(r < 1.0 for r in rep.ratios)


def test_longer_horizons_contract_more_slowly(monkeypatch):
    # the early-sweep ratio degrades with T; log-style check, loose on
    # purpose since only the short-horizon contraction is a contract
    gs = box(21)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2))
    monkeypatch.setattr(hj, "_FIXED_POINT_SWEEPS", 5)
    _, short = hj.hj_fixed_point(spec, SIGMA, 0.05, G)
    _, longer = hj.hj_fixed_point(spec, SIGMA, 0.5, G)
    assert short.ratios[0] < longer.ratios[0] < 1.0


def test_xt_distance_requires_matching_grids(headline):
    _, traj, _ = headline
    shifted = grid.Trajectory(tuple(grid.Field(f.grid, f.values, f.t + 1.0) for f in traj.fields))
    with pytest.raises(ValueError):
        hj.xt_distance(traj, shifted, G)


def test_xt_norm_dominates_sup_norm(headline):
    _, traj, _ = headline
    assert hj.xt_norm(traj, G) >= max(f.sup_norm() for f in traj.fields)


# ---------------------------------------------------------------------------
# duality pairing
# ---------------------------------------------------------------------------

def test_duality_exact_for_spatially_constant_solution():
    gs = box(21)
    spec = hj.HamiltonianSpec(
        u0=grid.constant_field(gs, 0.4),
        source=hj.SourceTerm.constant(grid.constant_field(gs, 0.9).values),
    )
    traj = hj.hj_solve(spec, SIGMA, 0.1, G)
    mu = grid.bump_field(gs, G, radius=1.0, normalize=True)
    rep = hj.duality_report(traj, spec, SIGMA, G, mu)
    assert rep.residual <= 1e-10
    assert rep.gradient_term == 0.0
    assert rep.gap == pytest.approx(rep.source_term)


def test_duality_residual_shrinks_under_refinement():
    # doubling the resolution (the solver shrinks dt with it) should cut
    # the pairing residual by at least 1.7x; measured 1.79 here
    reps = {}
    for n in (21, 41):
        gs = box(n)
        spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2))
        traj = hj.hj_solve(spec, SIGMA, 0.3, G)
        mu = grid.bump_field(gs, G, radius=1.0, normalize=True)
        reps[n] = hj.duality_report(traj, spec, SIGMA, G, mu)
    assert reps[21].residual / reps[41].residual >= 1.7
    # total gradient money spent along the run stays under the a priori cap
    spec41_scale = 1.0
    assert reps[41].gradient_term <= 2.0 * spec41_scale * (1.0 + 1e-2)
    assert reps[41].gradient_term > 0.0


def test_duality_report_json_round_trip():
    gs = box(15)
    spec = hj.HamiltonianSpec(u0=grid.bump_field(gs, G, radius=1.2))
    traj = hj.hj_solve(spec, SIGMA, 0.05, G)
    mu = grid.bump_field(gs, G, radius=1.0, normalize=True)
    rep = hj.duality_report(traj, spec, SIGMA, G, mu)
    loaded = json.loads(json_text(rep))
    assert set(loaded) == {"s", "tau", "gap", "gradient_term", "source_term", "residual"}
    assert loaded["residual"] == rep.residual


# ---------------------------------------------------------------------------
# first-derivative monitor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def skew_trajectory():
    """Solution from data with no x1 dependence at all, at t = 0."""
    gs = box(41)
    Y = grid.node_coordinates(gs)[1]
    Z = grid.node_coordinates(gs)[2]
    r2 = (Y / 1.2) ** 2 + (Z / 1.2) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(r2 < 1.0, np.exp(1.0 / np.minimum(r2 - 1.0, -1e-12) + 1.0), 0.0)
    spec = hj.HamiltonianSpec(u0=grid.Field(gs, vals, 0.0))
    traj = hj.hj_solve(spec, SIGMA, 0.2, G, store_every=4)
    return spec, traj


def test_bernstein_right_frame_stays_bounded(skew_trajectory):
    spec, traj = skew_trajectory
    rep = hj.bernstein_report(traj, spec, G)
    assert rep.ok
    assert rep.frame_kind == "right"
    assert all(o <= i * (1.0 + 5e-2) for o, i in zip(rep.observed, rep.initial))


def test_bernstein_flags_noncommuting_frame(skew_trajectory, monkeypatch):
    # d/dx1 does not commute with the generator; starting from data with
    # no x1 dependence, the diffusion itself manufactures x1 variation,
    # which the commuting-frame bound can never allow
    spec, traj = skew_trajectory
    monkeypatch.setattr(vfields, "right_invariant_fields", lambda group: coordinate_field(3, 0))
    rep = hj.bernstein_report(traj, spec, G)
    assert rep.initial[0] == 0.0
    assert rep.observed[0] > 0.1
    assert not rep.ok


def test_bernstein_report_shapes(skew_trajectory):
    spec, traj = skew_trajectory
    rep = hj.bernstein_report(traj, spec, G)
    assert len(rep.observed) == len(rep.initial) == len(rep.bounds) == 2
    d = json.loads(json_text(rep))
    assert d["frame_kind"] == "right"
    assert len(d["observed"]) == 2
