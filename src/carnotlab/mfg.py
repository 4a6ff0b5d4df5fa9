"""Coupled mean-field system: backward value function, forward density.

The system pairs the two flows of this package on one time grid:

    -d_t u - sigma lap_G u + |grad_G u|^gamma = F[rho(t)],   u(T) = u_T,
     d_t rho - sigma lap_G rho - div_G(gamma |grad_G u|^{gamma-2} grad_G u rho) = 0,
     rho(0) = rho0,

where the coupling F[rho] regularizes the density through the group
mollifier, scaled by a gain.  By construction F[rho] is bounded in
C^1_G uniformly over probability densities (the dirac is the extremal
case), which is exactly the regularity the fixed-point argument needs.
The mollifier is a sparse operator assembled from the group law on the
first coupling evaluation and memoized on its MollifierSpec; each
backward solve smooths all n+1 density snapshots with one product.

``mfg_picard`` runs the damped best-response iteration: given u, push
rho0 forward with the feedback drift; feed the mollified density back
into the backward problem solved from u_T; mix the new value function
in with weight theta.  The backward solve is the forward solver in the
reflected variable r = T - t, and the two runs share one uniform step,
so drift and source sequences pair snapshots by index rather than by
floating-point time lookup.

Residual bookkeeping: the u-residual is the sup-norm change per
iteration; the rho-residual is tracked through the L1 mass of the
change, which dominates the flat distance (test functions are bounded
by 1), so stopping on it is conservative.  At convergence the actual
flat distances are certified with the LP metric on a ladder of
snapshot times and recorded next to the bound that stopped the run.

Non-convergence is an expected outcome for long horizons; the verdict
then reads "no fixed point found at this T" and the whole residual
history stays available.  Solver blow-ups (step bound violations,
iterate escapes) are caught into the same verdict with a note, never
re-raised as NaN fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import vfields
from .flat_metric import DiscreteMeasure, MollifierSpec, flat_distance, mollify
from .fokker_planck import DriftField, fp_solve
from .grid import Field, Trajectory
from .groups import GroupSpec
from .hamilton_jacobi import (
    CFLViolation,
    DivergenceError,
    HamiltonianSpec,
    SourceTerm,
    duality_report,
    feedback_drift,
    hj_solve,
    hj_stable_dt,
    sup_bounds_report,
)


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingSpec:
    """Mollifier-based density coupling with a scalar gain."""

    mollifier: MollifierSpec
    gain: float = 1.0


def coupling_eval(rho: Field, c: CouplingSpec, group: GroupSpec) -> Field:
    """gain * (mollifier kernel convolved with rho), on rho's own grid.

    rho may stack snapshots along a leading axis; each is smoothed alike.
    """
    out = mollify(rho, c.mollifier, group)
    if c.gain == 1.0:
        return out
    return Field(out.grid, c.gain * out.values, out.t)


def c1_norm(f: Field, group: GroupSpec) -> float:
    """sup |f| + sup |grad_G f|, the norm the coupling is bounded in."""
    vf = vfields.left_invariant_fields(group)
    g = vfields.horizontal_gradient(vf, f).values
    return f.sup_norm() + float(np.sqrt((g**2).sum(axis=0)).max())


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
    """One Picard run: the current pair, its history, and the verdict."""

    u_traj: Trajectory
    rho_traj: Trajectory
    iterations: int
    residuals_u: tuple[float, ...]
    residuals_rho: tuple[float, ...]
    d0_certified: tuple[tuple[float, float], ...]
    theta: float
    verdict: str
    note: str
    sigma: float
    gamma: float
    coupling: CouplingSpec
    group: GroupSpec
    u_terminal: Field
    rho_initial: Field
    tol_u: float
    tol_rho: float

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"

    @property
    def horizon(self) -> float:
        return self.u_traj.times[-1] - self.u_traj.times[0]


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def _accumulated_times(t0: float, step: float, n: int) -> list[float]:
    # same float additions the steppers perform, so lookups hit keys exactly
    out = [t0]
    t = t0
    for _ in range(n):
        t = t + step
        out.append(t)
    return out


def _forward_density(
    u_traj: Trajectory,
    rho0: Field,
    sigma: float,
    gamma: float,
    group: GroupSpec,
    step: float,
) -> Trajectory:
    times = list(u_traj.times)
    values = [feedback_drift(f, gamma, group) for f in u_traj.fields]
    drift = DriftField.from_sequence(times, values)
    return fp_solve(rho0, drift, sigma, times[-1], group, dt=step, store_every=1)


def _backward_value(
    rho_traj: Trajectory,
    u_T: Field,
    coupling: CouplingSpec,
    sigma: float,
    gamma: float,
    group: GroupSpec,
    step: float,
) -> tuple[Trajectory, Trajectory, SourceTerm]:
    """Solve the reflected problem; returns (forward u, reflected v, source)."""
    n = len(rho_traj) - 1
    span = rho_traj.times[-1] - rho_traj.times[0]
    r_times = _accumulated_times(0.0, step, n)
    # all snapshots, in reflected order, through one coupling product
    stack = Field(u_T.grid, np.stack([f.values for f in reversed(rho_traj.fields)]))
    smoothed = coupling_eval(stack, coupling, group).values
    src_fields = [Field(u_T.grid, smoothed[j], r_times[j]) for j in range(n + 1)]
    source = SourceTerm.from_sequence(r_times, src_fields)
    spec_v = HamiltonianSpec(u0=Field(u_T.grid, u_T.values, 0.0), gamma=gamma, source=source)
    v = hj_solve(spec_v, sigma, span, group, dt=step, store_every=1)
    if len(v) != n + 1:
        raise RuntimeError("value and density runs fell out of step")
    fwd = Trajectory(
        times=rho_traj.times,
        fields=tuple(
            Field(u_T.grid, v.fields[n - k].values, rho_traj.times[k]) for k in range(n + 1)
        ),
    )
    return fwd, v, source


def _traj_sup_distance(a: Trajectory, b: Trajectory) -> float:
    return max(
        float(np.abs(fa.values - fb.values).max()) for fa, fb in zip(a.fields, b.fields)
    )


def _traj_l1_distance(a: Trajectory, b: Trajectory) -> float:
    cell = a.fields[0].grid.cell_volume
    return max(
        float(np.abs(fa.values - fb.values).sum()) * cell for fa, fb in zip(a.fields, b.fields)
    )


def _certify_d0(
    prev: Trajectory,
    cur: Trajectory,
    group: GroupSpec,
    *,
    coarsen: int,
    lp_tol: float,
) -> tuple[tuple[float, float], ...]:
    n = len(cur) - 1
    picks = sorted({n // 2, n})
    out = []
    for k in picks:
        mu = DiscreteMeasure.from_field(prev.fields[k], coarsen=coarsen)
        nu = DiscreteMeasure.from_field(cur.fields[k], coarsen=coarsen)
        res = flat_distance(mu, nu, group, tol=lp_tol)
        if not res.ok:
            raise RuntimeError(f"flat-distance certification failed: {res.status}")
        out.append((float(cur.times[k]), res.value))
    return tuple(out)


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
    dt: float | None = None,
    cfl_safety: float = 0.4,
    coarsen: int = 2,
    lp_tol: float = 1e-8,
) -> MFGState:
    """Damped best-response iteration for the coupled pair.

    Each sweep pushes the density forward under the current value
    function's feedback drift, solves the backward problem fed by the
    mollified density, and mixes the result in with weight theta
    (theta = 1 is the plain iteration).  Stopping needs both residuals
    below tolerance: the sup change of u and the L1 bound on the flat
    change of rho; the latter is then certified with the LP metric.

    The step is chosen once, from the terminal data's bound with a
    conservative safety share, and both solvers re-check it per step;
    a mid-run violation or iterate escape ends the run with the
    no-fixed-point verdict rather than an exception.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if float(rho0.values.min()) < 0.0:
        raise ValueError("initial density must be nonnegative")
    mass = rho0.integral()
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"initial density mass {mass:g} is not 1")
    span = float(t_end)
    if span <= 0:
        raise ValueError("horizon must be positive")

    seed_spec = HamiltonianSpec(u0=Field(u_T.grid, u_T.values, 0.0), gamma=gamma)
    if dt is None:
        limit = hj_stable_dt(seed_spec.u0, seed_spec, sigma, group, cfl_safety=cfl_safety)
        n = max(2, math.ceil(span / limit)) if math.isfinite(limit) else 2
    else:
        n = max(2, math.ceil(span / dt - 1e-12))
    step = span / n
    times = _accumulated_times(0.0, step, n)

    verdict = "no fixed point found at this T"
    note = ""
    res_u: list[float] = []
    res_rho: list[float] = []
    certified: tuple[tuple[float, float], ...] = ()
    rho_prev: Trajectory | None = None
    rho_cur: Trajectory | None = None
    iterations = 0
    try:
        v0 = hj_solve(seed_spec, sigma, span, group, dt=step, store_every=1)
        u_cur = Trajectory(
            times=tuple(times),
            fields=tuple(
                Field(u_T.grid, v0.fields[n - k].values, times[k]) for k in range(n + 1)
            ),
        )
        for it in range(1, max_iters + 1):
            iterations = it
            rho_cur = _forward_density(u_cur, rho0, sigma, gamma, group, step)
            u_cand, _, _ = _backward_value(rho_cur, u_T, coupling, sigma, gamma, group, step)
            u_next = Trajectory(
                times=u_cur.times,
                fields=tuple(
                    Field(
                        u_T.grid,
                        (1.0 - theta) * fa.values + theta * fb.values,
                        fa.t,
                    )
                    for fa, fb in zip(u_cur.fields, u_cand.fields)
                ),
            )
            res_u.append(_traj_sup_distance(u_next, u_cur))
            if rho_prev is None:
                res_rho.append(math.inf)
            else:
                res_rho.append(_traj_l1_distance(rho_cur, rho_prev))
            u_cur = u_next
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
        rho_cur = fp_solve(
            rho0, DriftField.none(2), sigma, span, group, dt=step, store_every=1
        )
    if verdict == "converged" and len(res_rho) >= 2:
        prev_for_cert = rho_prev if rho_prev is not None else rho_cur
        certified = _certify_d0(
            prev_for_cert, rho_cur, group, coarsen=coarsen, lp_tol=lp_tol
        )
        if any(v > tol_rho for _, v in certified):
            verdict = "no fixed point found at this T"
            note = "certified flat distance exceeded tolerance"
    return MFGState(
        u_traj=u_cur,
        rho_traj=rho_cur,
        iterations=iterations,
        residuals_u=tuple(res_u),
        residuals_rho=tuple(res_rho),
        d0_certified=certified,
        theta=theta,
        verdict=verdict,
        note=note,
        sigma=sigma,
        gamma=gamma,
        coupling=coupling,
        group=group,
        u_terminal=u_T,
        rho_initial=rho0,
        tol_u=tol_u,
        tol_rho=tol_rho,
    )


def fixed_point_residual(state: MFGState) -> float:
    """Sup change of u under one more undamped best-response sweep.

    A converged state should move by at most a couple of stopping
    tolerances when the map is applied once more.
    """
    n = len(state.u_traj) - 1
    step = state.horizon / n
    rho = _forward_density(
        state.u_traj, state.rho_initial, state.sigma, state.gamma, state.group, step
    )
    u_new, _, _ = _backward_value(
        rho, state.u_terminal, state.coupling, state.sigma, state.gamma, state.group, step
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

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "verdict": self.verdict,
            "residuals_u": list(self.residuals_u),
            "residuals_rho": [r if math.isfinite(r) else None for r in self.residuals_rho],
            "d0_certified": [[t, v] for t, v in self.d0_certified],
            "mass_error": self.mass_error,
            "min_density": self.min_density,
            "duality_residual": self.duality_residual,
            "duality_bound": self.duality_bound,
            "sup_bounds_ok": self.sup_bounds_ok,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def mfg_residual_report(state: MFGState) -> MFGReport:
    """Cross-checks on the final pair, whatever the verdict.

    The pairing check reflects the value trajectory back into its
    forward variable, rebuilds the source it was solved with from the
    stored density, and runs the adjoint integration from rho0; on a
    converged pair the identity's residual stays within the two-method
    error bar 5 (h + dt) * scale.
    """
    n = len(state.u_traj) - 1
    step = state.horizon / n
    rho = state.rho_traj
    mass_error = max(abs(f.integral() - 1.0) for f in rho.fields)
    min_density = min(float(f.values.min()) for f in rho.fields)

    _, v_traj, source = _backward_value(
        rho, state.u_terminal, state.coupling, state.sigma, state.gamma, state.group, step
    )
    spec_v = HamiltonianSpec(
        u0=Field(state.u_terminal.grid, state.u_terminal.values, 0.0),
        gamma=state.gamma,
        source=source,
    )
    dual = duality_report(
        v_traj,
        spec_v,
        state.sigma,
        state.group,
        state.rho_initial,
        v_traj.times[0],
        v_traj.times[-1],
    )
    h = max(state.u_terminal.grid.spacings)
    scale = spec_v.data_scale(state.horizon)
    bound = 5.0 * (h + step) * scale
    sup_rep = sup_bounds_report(v_traj, spec_v)
    rho_peak = max(f.sup_norm() for f in rho.fields)
    ok = (
        state.converged
        and mass_error <= 1e-6
        and min_density >= -1e-3 * rho_peak
        and dual.residual <= bound
        and sup_rep.ok
    )
    return MFGReport(
        iterations=state.iterations,
        verdict=state.verdict,
        residuals_u=state.residuals_u,
        residuals_rho=state.residuals_rho,
        d0_certified=state.d0_certified,
        mass_error=mass_error,
        min_density=min_density,
        duality_residual=dual.residual,
        duality_bound=bound,
        sup_bounds_ok=sup_rep.ok,
        ok=ok,
    )
