"""Coupled mean-field system: backward value function, forward density.

The system pairs the two flows of this package on one time grid:

    -d_t u - sigma lap_G u + |grad_G u|^gamma = F[rho(t)],   u(T) = u_T,
     d_t rho - sigma lap_G rho - div_G(gamma |grad_G u|^{gamma-2} grad_G u rho) = 0,
     rho(0) = rho0,

where the coupling F[rho] regularizes the density through the group
mollifier, scaled by a gain.  By construction F[rho] is bounded in
C^1_G uniformly over probability densities (the dirac is the extremal
case), which is exactly the regularity the fixed-point argument needs.
The coupling is symmetric: its operator M weighs x * u at x as it weighs
x at x * u (to rounding), so the game is a potential game.  M is not
monotone: on heisenberg1's default box its least eigenvalue is -0.119 at
11^3 (eps 1.3), -0.137 at 15^3 (eps 0.9) and -0.101 at 15^3 (eps 1.3).
So the Lasry-Lions uniqueness argument does not cover this coupling, and
the ``mfg`` suite's ``damping_family_limit_gap`` is the only evidence
that the limit does not depend on the iteration.
The mollifier (``mollifier``) is a sparse operator assembled from the
group law as CSR row blocks, memoized on its MollifierSpec on the first
coupling evaluation while it fits the size budget and rebuilt on every
evaluation above it; each backward solve smooths all n+1 density
snapshots with one product per row block.  It needs scipy.sparse only,
so a coupled run loads no LP solver.

``mfg_picard`` runs the damped best-response iteration: given u, push
rho0 forward with its feedback drift (``hamilton_jacobi.feedback_transport``,
the transport the pairing adjoint runs too); feed the mollified density back
into the backward problem solved from u_T; mix the new value function
in with weight theta, corrected by one secant step through the previous
sweep (Anderson acceleration of depth 1; Walker & Ni, SIAM J. Numer.
Anal. 49, 2011).  The backward solve is the forward solver in the
reflected variable r = T - t.  Every solve of a run is handed the same
horizon T and step count n, so every one steps by T / n from 0 and
stamps the same snapshot times.  The drift and source sequences are
piecewise constant in time (``fokker_planck.piecewise_constant``),
keyed by the snapshot times of the run that produced them (the drift
by the value run's, the source by the density run's), so each step
reads the entry of its own time.

Residual bookkeeping: the u-residual is theta times the sup-norm gap
between the best response and the current iterate, the change one plain
damped sweep would make there (the secant step's own length is not what
stops a run); the rho-residual is the largest L1 mass of the change over
the snapshots.  The L1 distance bounds the flat distance d0 from above,
because every test function of d0 has |f| <= 1, so stopping on it is
conservative.  At convergence the L1 distances at the middle and final
snapshots are recorded as the certified bounds on d0.

Non-convergence is an expected outcome for long horizons; the verdict
then reads "no fixed point found at this T" and the whole residual
history stays available.  Solver blow-ups (step bound violations,
iterate escapes) are caught into the same verdict with a note, never
re-raised as NaN fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fokker_planck import DriftField, SourceTerm, fp_solve
from .grid import Field, Trajectory, step_count
from .groups import GroupSpec
from .hamilton_jacobi import (
    CFLViolation,
    DivergenceError,
    HamiltonianSpec,
    duality_report,
    feedback_transport,
    hj_max_stable_dt,
    hj_solve,
    sup_bounds_report,
)
from .mollifier import MollifierSpec, mollify


# The Picard step is fixed once, from the bound at the terminal data, yet
# every sweep's value function and feedback drift move that bound; half
# the share of ``grid.CFL_SAFETY`` keeps the later steps inside it.
PICARD_CFL_SAFETY = 0.4


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingSpec:
    """Mollifier-based density coupling with a scalar gain.

    Raises ValueError on a negative or non-finite gain: the Picard step
    (``PICARD_CFL_SAFETY``) keeps later sweeps stable only for a gain
    >= 0, and at gain -16 a T = 2 run on a 15^3 box stops mid-sweep on it.
    """

    mollifier: MollifierSpec
    gain: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gain) and self.gain >= 0.0):
            raise ValueError(f"coupling gain must be finite and >= 0, got {self.gain!r}")


def coupling_eval(rho: Field, c: CouplingSpec) -> Field:
    """gain * (mollifier kernel convolved with rho), on the mollifier's grid and law.

    rho may stack snapshots along a leading axis; each is smoothed alike.
    """
    out = mollify(rho, c.mollifier)
    return Field(out.grid, c.gain * out.values, out.t)


def rotation_image(f: Field) -> Field:
    """Pull back by the quarter-turn automorphism (x1,x2,x3) -> (-x2,x1,x3).

    The turn is an automorphism of the group that permutes the
    horizontal frame, so every operator in the package commutes with it;
    a symmetric scenario must stay symmetric.  Requires the first two
    axes to share one symmetric node set.
    """
    gs = f.grid
    if gs.shape[0] != gs.shape[1] or gs.lower[0] != gs.lower[1] or gs.upper[0] != gs.upper[1]:
        raise ValueError("rotation needs matching square axes 1 and 2")
    if abs(gs.lower[0] + gs.upper[0]) > 1e-12:
        raise ValueError("rotation needs axes centered at 0")
    new = np.transpose(f.values, (1, 0, 2))[::-1]
    return Field(gs, np.ascontiguousarray(new), f.t)


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MFGState:
    """One Picard run: the current pair, its history, and the verdict.

    v_traj and v_spec are the reflected backward solve fed by rho_traj and
    its data, from the last completed sweep; None when the run stopped
    before any backward solve from rho_traj completed.
    """

    u_traj: Trajectory
    rho_traj: Trajectory
    iterations: int
    residuals_u: tuple[float, ...]
    residuals_rho: tuple[float, ...]
    d0_certified: tuple[tuple[float, float], ...]
    verdict: str
    note: str
    sigma: float
    gamma: float
    coupling: CouplingSpec
    group: GroupSpec
    u_terminal: Field
    rho_initial: Field
    t_end: float
    tol_u: float
    v_traj: Trajectory | None
    v_spec: HamiltonianSpec | None

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def _backward_value(
    rho_traj: Trajectory,
    u_T: Field,
    coupling: CouplingSpec,
    sigma: float,
    gamma: float,
    group: GroupSpec,
    t_end: float,
) -> tuple[Trajectory, Trajectory, HamiltonianSpec]:
    """Solve the reflected problem; returns (forward u, reflected v, its data)."""
    times = rho_traj.times
    # all snapshots, in reflected order, through one coupling product
    stack = Field(u_T.grid, np.stack([f.values for f in reversed(rho_traj.fields)]))
    source = SourceTerm.from_sequence(times, coupling_eval(stack, coupling).values)
    spec_v = HamiltonianSpec(u0=Field(u_T.grid, u_T.values, 0.0), gamma=gamma, source=source)
    v = hj_solve(spec_v, sigma, t_end, group, steps=len(rho_traj) - 1, store_every=1)
    return v.reflected(times), v, spec_v


def _traj_sup_distance(a: Trajectory, b: Trajectory) -> float:
    return max(
        float(np.abs(fa.values - fb.values).max()) for fa, fb in zip(a.fields, b.fields)
    )


def _l1_distance(a: Field, b: Field) -> float:
    return float(np.abs(a.values - b.values).sum()) * a.grid.cell_volume


def _traj_l1_distance(a: Trajectory, b: Trajectory) -> float:
    return max(_l1_distance(fa, fb) for fa, fb in zip(a.fields, b.fields))


def _certify_d0(cur: Trajectory, prev: Trajectory) -> tuple[tuple[float, float], ...]:
    """(t, L1 distance) at the middle and final snapshots: each bounds the flat
    distance d0 there from above, since every test function of d0 has |f| <= 1."""
    n = len(cur) - 1
    return tuple((float(cur.fields[k].t), _l1_distance(cur.fields[k], prev.fields[k]))
                 for k in sorted({n // 2, n}))


def _secant_step(x: np.ndarray, r: np.ndarray, prev: tuple[np.ndarray, np.ndarray] | None,
                 theta: float) -> np.ndarray:
    """The next iterate of ``mfg_picard`` from x, its residual r and the previous
    sweep's (x, r).  einsum, not a BLAS dot, keeps it independent of the thread count."""
    step = theta * r
    if prev is not None:
        dr = (r - prev[1]).ravel()
        drdr = float(np.einsum("i,i", dr, dr))
        if drdr > 0.0:
            g = float(np.einsum("i,i", dr, r.ravel())) / drdr
            step -= g * ((x - prev[0]) + theta * dr.reshape(r.shape))
    return x + step


def picard_steps(seed: HamiltonianSpec, sigma: float, span: float, group: GroupSpec) -> int:
    """Steps of every solve of an ``mfg_picard`` run: the fewest (at least two)
    no longer than ``PICARD_CFL_SAFETY`` times the bound at ``seed.u0``."""
    return step_count(span, PICARD_CFL_SAFETY * hj_max_stable_dt(seed.u0, seed, sigma, group), least=2)


def mfg_picard(
    u_T: Field,
    rho0: Field,
    coupling: CouplingSpec,
    sigma: float,
    t_end: float,
    group: GroupSpec,
    *,
    gamma: float = 2.0,
    theta: float = 0.5,
    tol_u: float = 1e-5,
    tol_rho: float = 1e-4,
    max_iters: int = 50,
) -> MFGState:
    """Damped best-response iteration for the coupled pair, with a secant step.

    Each sweep pushes the density forward under the current value
    function's feedback drift and solves the backward problem fed by the
    mollified density.  With x_k the stacked u-trajectory and r_k the gap
    from x_k to that best response, the next iterate is
    x_k + theta r_k - g (dx + theta dr), where dx and dr are the changes
    of x and r since the previous sweep and g = <dr, r_k> / <dr, dr>
    (Anderson acceleration of depth 1).  The first sweep, or one with
    dr = 0, takes the plain damped step x_k + theta r_k (theta = 1 is the
    undamped iteration).  Stopping needs both residuals below tolerance:
    theta sup |r_k|, the sup change of u under one plain damped sweep, and
    the largest L1 change of rho over the snapshots.  The L1 change bounds
    the flat change d0 from above, because every test function of d0 has
    |f| <= 1; a converged run reports it at the middle and final snapshots
    as ``d0_certified``.

    The step count n is chosen once, by ``picard_steps``, and every
    solve of the run takes n steps over [0, t_end], so rho0 must be
    stamped 0 and carry unit mass; both solvers re-check the bound per step;
    a mid-run violation or iterate escape ends the run with the
    no-fixed-point verdict rather than an exception.  A coupling whose
    mollifier was built for another law than group's is refused at entry.
    """
    if coupling.mollifier.group != group:
        raise ValueError("the coupling's mollifier was built for another group law")
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if float(rho0.values.min()) < 0.0:
        raise ValueError("initial density must be nonnegative")
    mass = rho0.integral()
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"initial density mass {mass:g} is not 1")
    if rho0.t != 0.0:
        raise ValueError(f"initial density stamped t = {rho0.t:g}, not 0")
    span = float(t_end)
    if span <= 0:
        raise ValueError("horizon must be positive")

    seed_spec = HamiltonianSpec(u0=Field(u_T.grid, u_T.values, 0.0), gamma=gamma)
    n = picard_steps(seed_spec, sigma, span, group)

    verdict = "no fixed point found at this T"
    note = ""
    res_u: list[float] = []
    res_rho: list[float] = []
    certified: tuple[tuple[float, float], ...] = ()
    rho_prev: Trajectory | None = None
    rho_cur: Trajectory | None = None
    v_last: Trajectory | None = None
    spec_last: HamiltonianSpec | None = None
    iterations = 0
    try:
        v0 = hj_solve(seed_spec, sigma, span, group, steps=n, store_every=1)
        u_cur = v0.reflected(v0.times)
        x = np.stack([f.values for f in u_cur.fields])
        prev = None
        for it in range(1, max_iters + 1):
            iterations = it
            rho_cur = feedback_transport(u_cur, rho0, sigma, gamma, group, span)
            # a backward solve that stops leaves none paired with rho_cur
            v_last = spec_last = None
            u_cand, v_last, spec_last = _backward_value(rho_cur, u_T, coupling, sigma, gamma,
                                                        group, span)
            r = np.stack([f.values for f in u_cand.fields]) - x
            res_u.append(theta * float(np.abs(r).max()))
            if rho_prev is None:
                res_rho.append(math.inf)
            else:
                res_rho.append(_traj_l1_distance(rho_cur, rho_prev))
            x, prev = _secant_step(x, r, prev, theta), (x, r)
            u_cur = Trajectory(tuple(Field(u_T.grid, xk, f.t) for xk, f in zip(x, u_cur.fields)))
            if res_u[-1] <= tol_u and res_rho[-1] <= tol_rho:
                # keep rho_prev pointing at the previous sweep so the
                # certification below compares genuinely distinct iterates
                verdict = "converged"
                break
            rho_prev = rho_cur
    except (CFLViolation, DivergenceError) as exc:
        note = f"solver stopped: {exc}"
    if rho_cur is None:
        # nothing completed; report the seed pair so the state is usable
        rho_cur = fp_solve(rho0, DriftField.none(), sigma, span, group, steps=n, store_every=1)
    if verdict == "converged" and rho_prev is not None:
        # the L1 changes that stopped the run bound d0, so each is at most tol_rho
        certified = _certify_d0(rho_cur, rho_prev)
    return MFGState(
        u_traj=u_cur,
        rho_traj=rho_cur,
        iterations=iterations,
        residuals_u=tuple(res_u),
        residuals_rho=tuple(res_rho),
        d0_certified=certified,
        verdict=verdict,
        note=note,
        sigma=sigma,
        gamma=gamma,
        coupling=coupling,
        group=group,
        u_terminal=u_T,
        rho_initial=rho0,
        t_end=span,
        tol_u=tol_u,
        v_traj=v_last,
        v_spec=spec_last,
    )


def fixed_point_residual(state: MFGState) -> float:
    """Sup change of u under one more undamped best-response sweep.

    A converged state should move by at most a couple of stopping
    tolerances when the map is applied once more.
    """
    rho = feedback_transport(
        state.u_traj, state.rho_initial, state.sigma, state.gamma, state.group, state.t_end
    )
    u_new, _, _ = _backward_value(
        rho, state.u_terminal, state.coupling, state.sigma, state.gamma, state.group, state.t_end
    )
    return _traj_sup_distance(u_new, state.u_traj)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MFGReport:
    """Audit of a finished run: conservation, bounds, and pairing checks."""

    iterations: int
    verdict: str
    residuals_u: tuple[float, ...]
    residuals_rho: tuple[float, ...]
    d0_certified: tuple[tuple[float, float], ...]
    mass_error: float
    min_density: float
    duality_residual: float
    duality_bound: float
    sup_bounds_ok: bool
    ok: bool


def mfg_residual_report(state: MFGState) -> MFGReport:
    """Cross-checks on the final pair, whatever the verdict.

    The pairing check takes the backward solve the last sweep ran from
    the stored density, with the source rebuilt from it, and runs the
    adjoint integration from rho0; on a converged pair the identity's
    residual stays within the two-method error bar ``HamiltonianSpec.error_bar``.
    A state with no backward solve from its density fails the audit,
    with the pairing residual and bound left NaN.
    """
    rho = state.rho_traj
    mass_error = max(abs(f.integral() - 1.0) for f in rho.fields)
    min_density = min(float(f.values.min()) for f in rho.fields)

    v_traj, spec_v = state.v_traj, state.v_spec
    if v_traj is None:
        residual = bound = math.nan
        sup_ok = False
    else:
        residual = duality_report(v_traj, spec_v, state.sigma, state.group, state.rho_initial).residual
        bound = spec_v.error_bar(state.t_end / (len(v_traj) - 1), state.t_end)
        sup_ok = sup_bounds_report(v_traj, spec_v).ok
    rho_peak = max(f.sup_norm() for f in rho.fields)
    ok = (
        state.converged
        and mass_error <= 1e-6
        and min_density >= -1e-3 * rho_peak
        and residual <= bound
        and sup_ok
    )
    return MFGReport(
        iterations=state.iterations,
        verdict=state.verdict,
        residuals_u=state.residuals_u,
        residuals_rho=state.residuals_rho,
        d0_certified=state.d0_certified,
        mass_error=mass_error,
        min_density=min_density,
        duality_residual=residual,
        duality_bound=bound,
        sup_bounds_ok=sup_ok,
        ok=ok,
    )
