"""Named end-to-end verification suites.

Each suite re-runs one capability of the package from scratch at a
fixed, documented scale and returns its checks, each carrying the
measured quantity, the budget it was held to, and the outcome, and its
notes; ``run_suite`` names, times and wraps them in a SuiteResult.  The
command line dispatches here (``carnotlab verify <name>``) and the
acceptance tests call the same functions, so both report one verdict.

Suites use fixed seeds throughout; two invocations see identical data.
Each suite imports what only it needs: scipy comes in through
``flat_metric`` for the particle_oracle, flat_metric and mfg suites.  The
calculus suite's exact frame calculus runs on the rational polynomial
tables of ``groups``.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import fokker_planck as fp
from . import grid as cgrid
from . import hamilton_jacobi as hj
from . import heat, vfields
from .grid import Field, bump_field, constant_field, default_grid, make_ball_mask, node_coordinates
from .groups import (Poly, apply_field, dilate, eval_poly, hom_norm, inverse, multiply, poly_add,
                     poly_partial, poly_sub, preset, quasi_distance)
from .report import Check, SuiteResult, json_text

if TYPE_CHECKING:
    from .flat_metric import DiscreteMeasure


# every suite runs on the first Heisenberg group, the diffusive ones at this strength
G = preset("heisenberg1")
SIGMA = 0.25

# what a suite returns: its checks and its notes
Rows = tuple[tuple[Check, ...], tuple[str, ...]]


# ---------------------------------------------------------------------------
# 1. group algebra
# ---------------------------------------------------------------------------

def group_algebra_suite() -> Rows:
    """Group law identities on random samples plus the weighted dimension."""
    rng = np.random.default_rng(2026)
    x, y, z = rng.normal(size=(3, 1000, 3)) * 2.0
    lam = rng.uniform(0.1, 4.0, size=1000)

    assoc = float(np.abs(
        multiply(G, multiply(G, x, y), z) - multiply(G, x, multiply(G, y, z))
    ).max())
    autom = float(np.abs(
        dilate(G, lam, multiply(G, x, y))
        - multiply(G, dilate(G, lam, x), dilate(G, lam, y))
    ).max())
    inv = float(hom_norm(G, multiply(G, x, inverse(G, x))).max())
    n0 = hom_norm(G, x)
    homog = float(np.abs(hom_norm(G, dilate(G, 3.0, x)) - 3.0 * n0).max()
                  / max(float(np.abs(3.0 * n0).max()), 1e-300))
    q = G.homogeneous_dimension

    checks = (
        Check("associativity_residual", assoc, "<= 1e-10", assoc <= 1e-10),
        Check("dilation_automorphism_residual", autom, "<= 1e-10", autom <= 1e-10),
        Check("inverse_cancellation_residual", inv, "<= 1e-10", inv <= 1e-10),
        Check("norm_homogeneity_relative", homog, "<= 1e-10", homog <= 1e-10),
        Check("weighted_dimension", float(q), "== 4", q == 4),
    )
    return checks, ()


# ---------------------------------------------------------------------------
# 2. frame calculus
# ---------------------------------------------------------------------------

def bracket_failures(left: vfields.VectorFieldSet, right: vfields.VectorFieldSet) -> tuple[int, int, int]:
    """Counts of the monomials f of degree 1..4 in x1..x3 with [X_1, X_2] f != d_3 f,
    and of (f, i, j) with [X_i, Y_j] f != 0; then the number of monomials."""
    monomials = [((Fraction(1), e),) for e in itertools.product(range(5), repeat=3) if 0 < sum(e) <= 4]

    def commutator(a, b, f):
        return poly_sub(apply_field(a, apply_field(b, f)), apply_field(b, apply_field(a, f)))

    x1, x2 = left.coefficients
    bracket_bad = sum(commutator(x1, x2, f) != poly_partial(f, 2) for f in monomials)
    commute_bad = sum(commutator(x, y, f) != () for f in monomials
                      for x in left.coefficients for y in right.coefficients)
    return bracket_bad, commute_bad, len(monomials)


def frame_divergence(field: tuple[Poly, ...]) -> Poly:
    """sum_l d_l a_l of one frame field."""
    return poly_add(*(poly_partial(a, l) for l, a in enumerate(field)))


def ito_correction(vf: vfields.VectorFieldSet) -> tuple[Poly, ...]:
    """sum_i (Da_i) a_i per coordinate, the Ito drift correction of the frame;
    its component l is sum_i X_i a_il.  The particle scheme may drop the
    correction only when it is identically zero."""
    return tuple(poly_add(*(apply_field(a, a[l]) for a in vf.coefficients)) for l in range(vf.dim))


def calculus_suite() -> Rows:
    """Exact bracket identities, the divergence-free frames behind the flux
    form div(A grad u) of lap_G, the vanishing Ito correction the particle
    scheme drops, and the order of the flux-form Laplacian the solvers run."""
    left = vfields.left_invariant_fields(G)
    right = vfields.right_invariant_fields(G)
    bracket_bad, commute_bad, n_monomials = bracket_failures(left, right)
    div_bad = sum(frame_divergence(a) != () for vf in (left, right) for a in vf.coefficients)
    ito_bad = sum(c != () for c in ito_correction(left))

    # interior error of the flux-form Laplacian on quartic data must drop
    # at second order; sum_i X_i X_i p, exact on the polynomial, gives the
    # exact values.  entries the stencil reproduces exactly
    # (roundoff-size error) carry no order information and are skipped
    one = Fraction(1)
    orders = []
    for poly in (
        ((one, (4, 0, 0)), (one, (0, 4, 0))),  # x^4 + y^4
        ((one, (2, 2, 0)), (one, (1, 0, 1))),  # x^2 y^2 + z x
        ((one, (0, 0, 2)), (one, (1, 1, 1))),  # z^2 + x y z
        ((one, (3, 1, 0)), (-one, (0, 2, 1))),  # x^3 y - y^2 z
    ):
        exact = poly_add(*(apply_field(a, apply_field(a, poly)) for a in left.coefficients))
        errs = []
        for nodes in (21, 41):
            grid = default_grid(nodes=nodes)
            coords = node_coordinates(grid)
            got = vfields.horizontal_laplacian(left, Field(grid, eval_poly(poly, coords))).values
            want = np.broadcast_to(eval_poly(exact, coords), grid.shape)
            sl = (slice(2, -2),) * 3
            errs.append(np.abs(got - want)[sl].max())
        if errs[0] > 1e-11:
            orders.append(math.log2(errs[0] / errs[1]))
    order = min(orders)

    checks = (
        Check("vertical_bracket_failures", float(bracket_bad), "== 0", bracket_bad == 0),
        Check("left_right_commutator_failures", float(commute_bad), "== 0", commute_bad == 0),
        Check("frame_divergence_failures", float(div_bad), "== 0", div_bad == 0),
        Check("stratonovich_correction_failures", float(ito_bad), "== 0", ito_bad == 0),
        Check("stencil_refinement_order", order, ">= 1.9", order >= 1.9),
    )
    notes = (f"{n_monomials} monomials through degree 4",)
    return checks, notes


# ---------------------------------------------------------------------------
# 3. heat flow
# ---------------------------------------------------------------------------

def heat_flow_suite() -> Rows:
    """Sup-norm non-expansion and gradient decay on rough data."""
    grid = default_grid(nodes=21)
    f0 = bump_field(grid, G, radius=1.2)
    sup0 = f0.sup_norm()
    f = f0
    worst = 0.0
    for t in (0.01, 0.02, 0.05):
        f = heat.evolve(f, SIGMA, t, G)
        worst = max(worst, f.sup_norm() / sup0 - 1.0)

    grid41 = default_grid(nodes=41)
    pts = np.stack(node_coordinates(grid41), axis=-1)
    rough = Field(grid41, (hom_norm(G, pts) < 1.0).astype(float))
    rep = heat.measure_gradient_decay(rough, SIGMA, 0.2, G)

    checks = (
        Check("sup_norm_excess", worst, "<= 1e-3", worst <= 1e-3),
        Check("gradient_decay_slope", rep.slope, "in [-0.65, -0.35]",
              -0.65 <= rep.slope <= -0.35),
        Check("decay_constant_positive", rep.constant, "> 0", rep.constant > 0),
    )
    return checks, ()


# ---------------------------------------------------------------------------
# 4. transport-diffusion solver
# ---------------------------------------------------------------------------

def fokker_planck_suite() -> Rows:
    """Conservation, bounds, ball monotonicity, energy, weak form."""
    grid41 = default_grid(nodes=41)
    rho_int = bump_field(grid41, G, radius=0.7, normalize=True)
    mask = make_ball_mask(grid41, G, radius=1.8)
    traj = fp.fp_solve(rho_int, fp.DriftField.constant((0.3, -0.2)), SIGMA, 0.05, G,
                       mask=mask, store_every=0)
    mass_err = abs(traj.final.integral() - 1.0)

    grid21 = default_grid(nodes=21)
    rho0 = bump_field(grid21, G, radius=1.0, normalize=True)
    traj_b = fp.fp_solve(rho0, fp.DriftField.constant((0.5, 0.25)), SIGMA, 0.1, G,
                         store_every=1)
    sup0 = rho0.sup_norm()
    sup_excess = max(f.values.max() for f in traj_b.fields) / sup0 - 1.0
    rho0_41 = bump_field(grid41, G, radius=1.0, normalize=True)
    traj_f = fp.fp_solve(rho0_41, fp.DriftField.constant((0.5, 0.25)), SIGMA, 0.1, G,
                         store_every=0)
    floor = float(traj_f.final.values.min()) / rho0_41.sup_norm()

    mono = fp.r_monotonicity_report(rho_int, fp.DriftField.constant((0.3, 0.0)),
                                    SIGMA, 0.05, G, radii=(1.5, 1.9))

    energy = fp.energy_report(traj_b, fp.DriftField.constant((0.5, 0.25)), SIGMA, G)

    residuals = []
    for nodes in (21, 41):
        grid = default_grid(nodes=nodes)
        r0 = bump_field(grid, G, radius=1.0, normalize=True)
        tr = fp.fp_solve(r0, fp.DriftField.constant((0.4, 0.2)), SIGMA, 0.05, G,
                         store_every=1)
        x = node_coordinates(grid)[0]

        def phi(t, grid=grid, x=x):
            return Field(grid, np.cos(x) + 0.5, t)

        residuals.append(abs(fp.weak_form_residual(tr, phi, fp.DriftField.constant((0.4, 0.2)),
                                                   SIGMA, G)))
    weak_ratio = residuals[0] / residuals[1]

    checks = (
        Check("mass_drift_interior", mass_err, "<= 1e-8", mass_err <= 1e-8),
        Check("sup_bound_excess", sup_excess, "<= 1e-3", sup_excess <= 1e-3),
        Check("negativity_floor_relative", floor, ">= -1e-3", floor >= -1e-3),
        Check("ball_mass_worst_increment", mono["worst_increment"], ">= -1e-8",
              mono["worst_increment"] >= -1e-8),
        Check("energy_l2_within_bound", energy.l2_peak / energy.l2_bound, "<= 1",
              energy.ok and energy.l2_peak <= energy.l2_bound),
        Check("energy_gradient_within_bound", energy.grad_energy / energy.grad_bound,
              "<= 1", energy.grad_energy <= energy.grad_bound),
        Check("weak_form_refinement_ratio", weak_ratio, ">= 1.7", weak_ratio >= 1.7),
    )
    return checks, ()


# ---------------------------------------------------------------------------
# 5. barrier subsolution certificate
# ---------------------------------------------------------------------------

def uniqueness_barrier_suite() -> Rows:
    """Exponential barrier certificate at twice the bisected rate threshold."""
    params = fp.SubsolutionParams(beta=0.1, beta1=1.0, tau0=0.0, tau=0.1)

    rep0 = fp.subsolution_check(G, params, (0.0, 0.0), SIGMA,
                                rng=np.random.default_rng(5))
    rep_b = fp.subsolution_check(G, params, (0.4, -0.2), SIGMA,
                                 rng=np.random.default_rng(6))
    worst0 = fp.barrier_max_lhs(G, params, (0.0, 0.0), SIGMA, rng=np.random.default_rng(7))(0.0)

    checks = (
        Check("lhs_at_double_rate_zero_drift", rep0.max_lhs_at_double, "<= 1e-10",
              rep0.ok and rep0.max_lhs_at_double <= 1e-10),
        Check("lhs_at_double_rate_with_drift", rep_b.max_lhs_at_double, "<= 1e-10",
              rep_b.ok and rep_b.max_lhs_at_double <= 1e-10),
        Check("threshold_zero_drift", rep0.threshold, "in [0.5, 1.5]",
              0.5 <= rep0.threshold <= 1.5),
        Check("negative_control_rate_zero", worst0, "> 1e-3", worst0 > 1e-3),
    )
    return checks, ()


# ---------------------------------------------------------------------------
# 6. stochastic particle cross-check
# ---------------------------------------------------------------------------

def particle_oracle_suite() -> Rows:
    """Flat distance between the particle law and the grid solution at T=0.5,
    diffusion alone and with drift."""
    from .flat_metric import DiscreteMeasure, flat_distance

    grid = default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=0.8, normalize=True)
    checks = []
    for tag, drift in (("zero_drift", fp.DriftField.none()),
                       ("constant_drift", fp.DriftField.constant((0.2, 0.1)))):
        pde = fp.fp_solve(rho0, drift, SIGMA, 0.5, G, store_every=0).final
        emp = fp.particle_oracle(rho0, drift, SIGMA, 0.5, G, n_particles=100_000, seed=424242)
        res = flat_distance(DiscreteMeasure.from_field(emp, coarsen=2),
                            DiscreteMeasure.from_field(pde, coarsen=2), G)
        if not res.ok:
            raise RuntimeError(f"flat distance failed: {res.status}")
        checks.append(Check(f"particle_vs_grid_d0_{tag}", res.value, "<= 0.05", res.value <= 0.05))
    return tuple(checks), ()


# ---------------------------------------------------------------------------
# 7. flat metric
# ---------------------------------------------------------------------------

def _enumerated_flat_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, group) -> float:
    """Flat distance by exhaustive vertex enumeration (tiny supports only).

    The feasible set in variables (f_1..f_n, alpha, beta) is a polytope;
    the optimum sits at a vertex, i.e. at some choice of n+2 active
    constraints.  Every other row is homogeneous, so a positive optimum
    can be scaled up until alpha + beta <= 1 is active: only the square
    subsystems holding that row, each in ascending row order, are solved,
    and feasible vertices are scanned for the best objective.  Chunked so
    the 5-point case stays within memory.
    """
    pts = np.vstack([mu.points, nu.points])
    delta = np.concatenate([mu.weights, -nu.weights])
    n = len(pts)
    rows, rhs = [], []
    for i in range(n):
        r = np.zeros(n + 2); r[i] = 1.0; r[n] = -1.0; rows.append(r); rhs.append(0.0)
        r = np.zeros(n + 2); r[i] = -1.0; r[n] = -1.0; rows.append(r); rhs.append(0.0)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(quasi_distance(group, pts[i], pts[j]))
            r = np.zeros(n + 2); r[i] = 1.0; r[j] = -1.0; r[n + 1] = -d; rows.append(r); rhs.append(0.0)
            r = np.zeros(n + 2); r[i] = -1.0; r[j] = 1.0; r[n + 1] = -d; rows.append(r); rhs.append(0.0)
    r = np.zeros(n + 2); r[n] = 1.0; r[n + 1] = 1.0; rows.append(r); rhs.append(1.0)
    r = np.zeros(n + 2); r[n] = -1.0; rows.append(r); rhs.append(0.0)
    r = np.zeros(n + 2); r[n + 1] = -1.0; rows.append(r); rhs.append(0.0)
    A, b = np.array(rows), np.array(rhs)
    m, dim = A.shape
    unit = m - 3  # the alpha + beta <= 1 row
    best = -np.inf
    combos = itertools.combinations([i for i in range(m) if i != unit], dim - 1)
    while True:
        chunk = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, 200_000)),
                            dtype=np.intp).reshape(-1, dim - 1)
        if chunk.size == 0:
            break
        idx = np.sort(np.column_stack([chunk, np.full(len(chunk), unit)]), axis=1)
        A_sub, b_sub = A[idx], b[idx]
        good = np.abs(np.linalg.det(A_sub)) > 1e-10
        if not good.any():
            continue
        z = np.linalg.solve(A_sub[good], b_sub[good][..., None])[..., 0]
        feas = np.all(A @ z.T <= b[:, None] + 1e-9, axis=0)
        if feas.any():
            best = max(best, float((z[feas][:, :n] @ delta).max()))
    return best


def flat_metric_suite() -> Rows:
    """LP against closed forms, vertex enumeration, metric axioms, time regularity."""
    from .flat_metric import (DiscreteMeasure, axiom_gaps, flat_distance, holder_in_time,
                              two_dirac_distance)

    origin = (0.0, 0.0, 0.0)
    form_err = 0.0
    for x in ((0.5, 0.0, 0.0), (0.0, 0.0, 1.0), (2.3, 0.0, 0.0), (0.4, -0.3, 0.7)):
        got = flat_distance(DiscreteMeasure.dirac(x), DiscreteMeasure.dirac(origin), G).value
        form_err = max(form_err, abs(got - two_dirac_distance(G, x, origin)))

    rng = np.random.default_rng(7)
    enum_err = 0.0
    for k in range(4):
        n_mu = 3 if k == 0 else 2
        mu = DiscreteMeasure(points=rng.uniform(-1.5, 1.5, (n_mu, 3)),
                             weights=rng.uniform(0.2, 1.0, n_mu))
        nu = DiscreteMeasure(points=rng.uniform(-1.5, 1.5, (2, 3)),
                             weights=rng.uniform(0.2, 1.0, 2))
        lp = flat_distance(mu, nu, G)
        if not lp.ok:
            raise RuntimeError(f"flat distance failed: {lp.status}")
        enum_err = max(enum_err, abs(lp.value - _enumerated_flat_distance(mu, nu, G)))

    tri_worst, sym_worst = axiom_gaps(G, np.random.default_rng(3), 100)

    grid = default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)
    traj = fp.fp_solve(rho0, fp.DriftField.none(), 0.25, 0.1, G, store_every=1)
    hold = holder_in_time(traj, G)

    checks = (
        Check("two_dirac_closed_form_error", form_err, "<= 1e-6", form_err <= 1e-6),
        Check("vertex_enumeration_gap", enum_err, "<= 1e-6", enum_err <= 1e-6),
        Check("triangle_worst_violation", tri_worst, "<= 1e-6", tri_worst <= 1e-6),
        Check("symmetry_worst_gap", sym_worst, "<= 1e-6", sym_worst <= 1e-6),
        Check("time_regularity_exponent", hold.exponent, ">= 0.4",
              hold.verdict == "fitted" and hold.exponent >= 0.4),
    )
    return checks, ()


# ---------------------------------------------------------------------------
# 8. nonlinear value equation
# ---------------------------------------------------------------------------

def hamilton_jacobi_suite() -> Rows:
    """Exactness, bounds, mild-solution fixed point, pairing, derivative monitor."""
    # spatially constant data: every term drops except the source ramp,
    # which must come out bitwise
    gs21 = default_grid(nodes=21)
    c0 = 1.3
    spec_c = hj.HamiltonianSpec(u0=constant_field(gs21, 0.0),
                                source=hj.SourceTerm.constant(constant_field(gs21, c0).values))
    traj_c = hj.hj_solve(spec_c, SIGMA, 0.05, G)
    ramp_err = max(
        float(np.abs(f.values - c0 * t).max())
        for t, f in zip(traj_c.times, traj_c.fields)
    )

    spec_b = hj.HamiltonianSpec(u0=bump_field(gs21, G, radius=1.5))
    traj_sup = hj.hj_solve(spec_b, SIGMA, 0.2, G, store_every=4)
    sup_rep = hj.sup_bounds_report(traj_sup, spec_b)

    spec_h = hj.HamiltonianSpec(u0=bump_field(gs21, G, radius=1.2))
    traj_fp, fp_rep = hj.hj_fixed_point(spec_h, SIGMA, 0.05, G)
    worst_ratio = max(fp_rep.ratios)
    final_dist = fp_rep.distances[-1]

    direct = hj.hj_solve(spec_h, SIGMA, 0.05, G)
    gap = float(np.abs(direct.final.values - traj_fp.final.values).max())
    duhamel_budget = spec_h.error_bar(traj_fp.times[1] - traj_fp.times[0], 0.05)

    reps = {}
    for n in (21, 41):
        gsd = default_grid(nodes=n)
        spec_d = hj.HamiltonianSpec(u0=bump_field(gsd, G, radius=1.2))
        traj_d = hj.hj_solve(spec_d, SIGMA, 0.3, G)
        mu = bump_field(gsd, G, radius=1.0, normalize=True)
        reps[n] = hj.duality_report(traj_d, spec_d, SIGMA, G, mu)
    pairing_ratio = reps[21].residual / reps[41].residual
    # mass-1 adjoint: total gradient cost is capped by twice the data scale
    comb = reps[41].gradient_term / (2.0 * 1.0)

    gs41 = default_grid(nodes=41)
    _, Y, Z = node_coordinates(gs41)
    r2 = (Y / 1.2) ** 2 + (Z / 1.2) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(r2 < 1.0, np.exp(1.0 / np.minimum(r2 - 1.0, -1e-12) + 1.0), 0.0)
    spec_s = hj.HamiltonianSpec(u0=Field(gs41, vals, 0.0))
    traj_s = hj.hj_solve(spec_s, SIGMA, 0.2, G, store_every=4)
    bern = hj.bernstein_report(traj_s, spec_s, G)
    bern_excess = max(o - bd for o, bd in zip(bern.observed, bern.bounds))

    checks = (
        Check("constant_ramp_error", ramp_err, "== 0", ramp_err == 0.0),
        Check("sup_bounds_hold", float(sup_rep.ok), "== 1", sup_rep.ok),
        Check("contraction_worst_ratio", worst_ratio, "< 1", worst_ratio < 1.0),
        Check("fixed_point_residual", final_dist, "<= 1e-6", final_dist <= 1e-6),
        Check("mild_vs_direct_gap", gap, f"<= {duhamel_budget:.3g}", gap <= duhamel_budget),
        Check("pairing_refinement_ratio", pairing_ratio, ">= 1.7", pairing_ratio >= 1.7),
        Check("accumulated_gradient_fraction", comb, "<= 1.01", comb <= 1.01),
        Check("derivative_monitor_excess", bern_excess, "<= 0",
              bern.ok and bern_excess <= 0.0),
    )
    return checks, ()


# ---------------------------------------------------------------------------
# 9. coupled game system
# ---------------------------------------------------------------------------

def mfg_suite() -> Rows:
    """Headline coupled run plus damping stability, symmetry, long horizon."""
    from . import mfg
    from .mollifier import MollifierSpec

    gs21 = default_grid(nodes=21)
    c21 = mfg.CouplingSpec(mollifier=MollifierSpec.build(0.8, gs21, G), gain=1.0)
    u_T = bump_field(gs21, G, radius=1.2)
    rho0 = bump_field(gs21, G, radius=1.4, normalize=True)
    state = mfg.mfg_picard(u_T, rho0, c21, SIGMA, 0.1, G)
    report = mfg.mfg_residual_report(state)
    cert_worst = max((v for _, v in state.d0_certified), default=float("inf"))
    regap = mfg.fixed_point_residual(state) if state.converged else float("inf")

    gs15 = default_grid(nodes=15)
    c15 = mfg.CouplingSpec(mollifier=MollifierSpec.build(0.9, gs15, G), gain=1.0)
    u_T15 = bump_field(gs15, G, radius=1.2)
    rho15 = bump_field(gs15, G, radius=1.0, normalize=True)
    limits = {}
    all_converged = True
    for theta in (0.3, 0.5, 0.8):
        st = mfg.mfg_picard(u_T15, rho15, c15, SIGMA, 0.1, G, theta=theta)
        all_converged = all_converged and st.converged
        limits[theta] = st.u_traj
    theta_gap = max(mfg._traj_sup_distance(limits[a], limits[b])
                    for a, b in ((0.3, 0.5), (0.3, 0.8), (0.5, 0.8)))

    st_sym = mfg.mfg_picard(u_T15, rho15, c15, SIGMA, 0.1, G, max_iters=4, tol_u=0.0)
    sym_worst = 0.0
    for traj in (st_sym.u_traj, st_sym.rho_traj):
        for f in traj.fields:
            sym_worst = max(sym_worst, float(
                np.abs(mfg.rotation_image(f).values - f.values).max()))

    st_long = mfg.mfg_picard(u_T15, rho15, c15, SIGMA, 5.0, G, max_iters=6)
    long_documented = st_long.verdict in ("converged", "no fixed point found at this T")

    checks = (
        Check("picard_iterations", float(state.iterations), "<= 50",
              state.converged and state.iterations <= 50),
        Check("value_residual", state.residuals_u[-1], "<= 1e-5",
              state.residuals_u[-1] <= 1e-5),
        Check("density_residual_certified", cert_worst, "<= 1e-4", cert_worst <= 1e-4),
        Check("pair_consistency_report", float(report.ok), "== 1", report.ok),
        Check("reapplication_gap", regap, "<= 2e-5", regap <= 2.0 * state.tol_u),
        Check("damping_family_limit_gap", theta_gap, "<= 5e-5",
              all_converged and theta_gap <= 5e-5),
        Check("rotation_symmetry_drift", sym_worst, "<= 1e-10", sym_worst <= 1e-10),
        Check("long_horizon_verdict_recorded", float(st_long.iterations), "documented",
              long_documented),
    )
    notes = (
        f"headline verdict: {state.verdict} in {state.iterations} iterations",
        f"T=5 verdict: {st_long.verdict} after {st_long.iterations} iterations "
        f"(residual_u {st_long.residuals_u[-1]:.3g})",
    )
    return checks, notes


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def determinism_suite() -> Rows:
    """Bit-stable reruns: particle law, worker layouts, serialized artifacts."""
    grid = default_grid(nodes=21)
    rho0 = bump_field(grid, G, radius=1.0, normalize=True)

    a = fp.particle_oracle(rho0, fp.DriftField.none(), SIGMA, 0.05, G,
                           n_particles=20000, seed=99)
    b = fp.particle_oracle(rho0, fp.DriftField.none(), SIGMA, 0.05, G,
                           n_particles=20000, seed=99)
    rerun_equal = np.array_equal(a.values, b.values)

    c = fp.particle_oracle(rho0, fp.DriftField.constant((0.3, -0.1)), SIGMA, 0.1, G,
                           n_particles=30000, seed=7, jobs=1)
    d = fp.particle_oracle(rho0, fp.DriftField.constant((0.3, -0.1)), SIGMA, 0.1, G,
                           n_particles=30000, seed=7, jobs=3)
    workers_equal = np.array_equal(c.values, d.values)

    import tempfile
    from pathlib import Path

    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(2):
            spec = hj.HamiltonianSpec(u0=bump_field(grid, G, radius=1.2))
            _, rep = hj.hj_fixed_point(spec, SIGMA, 0.05, G)
            tr = fp.fp_solve(rho0, fp.DriftField.constant((0.2, 0.1)), SIGMA, 0.05, G,
                             store_every=0)
            path = Path(tmp) / f"run{k}.csv"
            cgrid.dump_field_csv(tr.final, str(path))
            docs.append((json_text(rep), path.read_bytes(),
                         (path.parent / (path.name + ".json")).read_bytes()))
    artifacts_equal = docs[0] == docs[1]

    checks = (
        Check("particle_rerun_identical", float(rerun_equal), "== 1", rerun_equal),
        Check("worker_layout_identical", float(workers_equal), "== 1", workers_equal),
        Check("serialized_artifacts_identical", float(artifacts_equal), "== 1",
              artifacts_equal),
    )
    return checks, ()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "group_algebra": group_algebra_suite,
    "calculus": calculus_suite,
    "heat_flow": heat_flow_suite,
    "fokker_planck": fokker_planck_suite,
    "uniqueness_barrier": uniqueness_barrier_suite,
    "particle_oracle": particle_oracle_suite,
    "flat_metric": flat_metric_suite,
    "hamilton_jacobi": hamilton_jacobi_suite,
    "mfg": mfg_suite,
    "determinism": determinism_suite,
}


def run_suite(name: str) -> SuiteResult:
    """Run and time one suite in this process; ``verify --jobs`` calls it in worker processes."""
    if name not in SUITES:
        known = ", ".join(SUITES)
        raise ValueError(f"unknown suite {name!r}; expected one of: {known}")
    t0 = time.perf_counter()
    checks, notes = SUITES[name]()
    return SuiteResult(name, checks, time.perf_counter() - t0, notes)
