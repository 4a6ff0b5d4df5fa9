"""Viscous Hamilton-Jacobi flow with horizontal gradient nonlinearity.

The equation is

    d_t u - sigma lap_G u + |grad_G u|^gamma = F,    u(0) = u0 >= 0,

with gamma >= 2 and bounded data.  Two independent solvers cross-check
each other:

* ``hj_step_direct`` / ``hj_solve``: explicit finite differences.  The
  gradient term is discretized per horizontal direction by the Godunov
  recipe, taking the larger of (backward difference)^+ and (forward
  difference)^-, so the nonlinearity only ever sees upwind information.
  The step bound adds the local transport speed gamma |grad u|^{gamma-1}
  of the nonlinearity to the usual diffusion count.

* ``duhamel_iterate``: one sweep of the mild-solution map

      Phi(u)(t) = e^{tL} u0 + int_0^t e^{(t-s)L} (F(s) - |grad u(s)|^gamma) ds

  with the semigroup realized by the explicit heat stepper and the
  integral by left-endpoint quadrature.  The discrete semigroup composes
  exactly, so the sweep assembles recursively,
  w_{k+1} = e^{dt L}(w_k + dt f_k), at the cost of one heat step per
  time node.

Iterating Phi from the pure heat baseline contracts for short horizons;
``hj_fixed_point`` records the iterate distances in the norm

    sup_t ( ||u||_inf + ||grad_G u||_inf + max_ij ||X_i X_j u||_inf )

together with the radius of the ball the iterates explored and an
empirical growth constant of the nonlinearity on that ball.  The limit
and the direct solution then bound each other's error: they discretize
the same problem through unrelated operator splittings.

``duality_report`` pairs a solution trajectory with an adjoint density
transported by the feedback drift gamma |grad u|^{gamma-2} grad u.  The
adjoint problem is well posed backward in time, so the density is
``feedback_transport`` of the trajectory reflected into the reversed
variable r = tau - t, read back in reverse; the coupled solve of ``mfg``
carries its density forward by the same ``feedback_transport``.  The
pairing identity

    int u(tau) mu(tau) - int u(s) mu(s)
        = int_s^tau int ((gamma-1) |grad u|^gamma + F) mu

holds exactly in the continuum; the report returns the discrete
residual and both accumulated terms.

``sup_bounds_report`` and ``bernstein_report`` check the one-sided
comparison bounds and the first-derivative bounds along the
right-invariant frame, which commutes with the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import _stencils, vfields
from .grid import CFL_SAFETY, CFLViolation, Field, Trajectory, check_dt, march, max_stable_dt, step_count
from .groups import GroupSpec
from .heat import heat_step
from .fokker_planck import DriftField, SourceTerm, fp_solve


class DivergenceError(RuntimeError):
    """An iterate left the trust region; raised instead of emitting NaN."""


# Sup norm past which a mild-map sweep raises DivergenceError.
_BLOWUP = 1e4
# Sweeps of the mild map a fixed-point run may take.
_FIXED_POINT_SWEEPS = 12
# Relative slack of the first-derivative bounds on the central window.
_BERNSTEIN_SLACK = 5e-2


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianSpec:
    """Data for one initial-value problem: u0 >= 0, power gamma >= 2, source."""

    u0: Field
    gamma: float = 2.0
    source: SourceTerm = SourceTerm()

    def __post_init__(self) -> None:
        if self.gamma < 2.0:
            raise ValueError("gamma must be >= 2")
        if float(self.u0.values.min()) < 0.0:
            raise ValueError("initial datum must be nonnegative")

    def data_scale(self, horizon: float) -> float:
        """||u0||_inf + T ||F||_inf, the natural size of solutions up to T."""
        return self.u0.sup_norm() + horizon * self.source.sup_norm()

    def error_bar(self, dt: float, horizon: float) -> float:
        """5 (h + dt) data_scale(horizon), with h the largest spacing of u0's grid:
        the first-order budget two discretizations of this problem with step
        dt are held to against each other."""
        return 5.0 * (max(self.u0.grid.spacings) + dt) * self.data_scale(horizon)


# ---------------------------------------------------------------------------
# direct scheme
# ---------------------------------------------------------------------------

def godunov_gradient(u: Field, group: GroupSpec) -> np.ndarray:
    """Upwind magnitude of grad_G u, shaped like u.

    Each horizontal direction contributes max((D^- u)^+, (D^+ u)^-),
    where D^{+/-} are the one-sided frame derivatives: along axis l the
    coefficient a_il multiplies the backward difference in D^- and the
    forward one in D^+ where a_il > 0, and the other way round where it
    is not, so both pieces only look in their own direction.  A one-sided
    difference is 0 at its inflow edge (constant extension of the data,
    matching the zero-flux convention of the diffusion stencil).

    The coefficients and their sign split come from the frame tables of
    ``_stencils``: a constant coefficient picks its side once and adds a
    shifted view, an array coefficient picks per node.
    """
    vf = vfields.left_invariant_fields(group)
    grid = u.grid
    tables = _stencils.frame_tables(grid, vf)
    values = np.ascontiguousarray(u.values).reshape(-1)
    n = values.size
    h = grid.spacings
    # per axis l, the forward difference at every node (0 on the row
    # i_l = n_l - 1) behind s_l zeros: the forward differences are [s_l:]
    # and the backward ones [:n], both 0 on their inflow edge row
    diffs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    total = np.zeros(n)
    d_minus, d_plus, pick = (np.empty(n) for _ in range(3))
    for coef, split in zip(tables.coef, tables.upwind):
        d_minus.fill(0.0)
        d_plus.fill(0.0)
        for l, c in enumerate(coef):
            if c is None:
                continue
            if l not in diffs:
                st = tables.strides[l]
                D = np.zeros(n + st)
                np.subtract(values[st:], values[: n - st], out=D[st:n])
                D[st:n] /= h[l]
                D[st:].reshape(grid.shape)[_stencils.layer(l, -1)] = 0.0
                diffs[l] = D[:n], D[st:]
            backward, forward = diffs[l]
            if isinstance(c, float):
                d_minus += _stencils.times(c, backward if c > 0 else forward)
                d_plus += _stencils.times(c, forward if c > 0 else backward)
                continue
            # backward difference where `back` holds, forward elsewhere
            for acc, back in zip((d_minus, d_plus), split[l]):
                np.copyto(pick, forward)
                np.copyto(pick, backward, where=back.reshape(-1))
                pick *= c.reshape(-1)
                acc += pick
        np.maximum(d_minus, 0.0, out=d_minus)
        np.negative(d_plus, out=d_plus)
        np.maximum(d_plus, 0.0, out=d_plus)
        np.maximum(d_minus, d_plus, out=d_minus)
        d_minus *= d_minus
        total += d_minus
    return np.sqrt(total, out=total).reshape(grid.shape)


def gradient_power(vf: vfields.VectorFieldSet, u: Field, gamma: float) -> np.ndarray:
    """|grad_G u|^gamma at the nodes, the Hamiltonian of the equation."""
    g = vfields.horizontal_gradient(vf, u).values
    return ((g**2).sum(axis=0)) ** (gamma / 2.0)


def feedback_drift(u: Field, gamma: float, group: GroupSpec) -> np.ndarray:
    """Frame coefficients of the feedback drift gamma |grad u|^{gamma-2} grad u.

    This is the transport speed the nonlinearity induces, reused by the
    step bound here and by adjoint and coupled runs elsewhere; the
    degenerate-gradient limit is 0 for every gamma >= 2.
    """
    vf = vfields.left_invariant_fields(group)
    g = vfields.horizontal_gradient(vf, u).values
    if gamma == 2.0:
        g *= gamma
        return g
    mag = np.sqrt((g**2).sum(axis=0))
    with np.errstate(divide="ignore"):
        coeff = gamma * np.where(mag > 0, mag ** (gamma - 2.0), 0.0)
    return coeff * g


def feedback_transport(u_traj: Trajectory, rho0: Field, sigma: float, gamma: float,
                       group: GroupSpec, t_end: float) -> Trajectory:
    """rho0 carried to t_end by the feedback drift of u_traj, one step per
    snapshot interval; the drift is keyed by u_traj's times, so each step
    reads the drift of the value snapshot at its own start time."""
    values = [feedback_drift(f, gamma, group) for f in u_traj.fields]
    drift = DriftField.from_sequence(u_traj.times, values)
    return fp_solve(rho0, drift, sigma, t_end, group, steps=len(u_traj) - 1, store_every=1)


def hj_max_stable_dt(u: Field, spec: HamiltonianSpec, sigma: float, group: GroupSpec) -> float:
    """Step bound for the direct scheme at the current state (without a safety share).

    The nonlinearity acts like transport at speed gamma |grad u|^{gamma-1}
    along the gradient, so it enters the bound through the same frame
    channels as a drift with those coefficients.
    """
    b = feedback_drift(u, spec.gamma, group)
    return max_stable_dt(u.grid, group, sigma, b)


def hj_step_direct(
    u: Field,
    spec: HamiltonianSpec,
    sigma: float,
    dt: float,
    group: GroupSpec,
) -> Field:
    """One explicit step of d_t u = sigma lap_G u - |grad_G u|^gamma + F;
    a dt above the stability bound at u raises CFLViolation."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0:
        return u
    vf = vfields.left_invariant_fields(group)
    check_dt(dt, hj_max_stable_dt(u, spec, sigma, group))
    geom = _stencils.frame_tables(u.grid, vf)
    # the new state is allocated last: below the step's temporaries it lets the
    # allocator trim them off the heap top and fault them in again every step
    nonlinear = dt * godunov_gradient(u, group) ** spec.gamma
    flux = _stencils.flux_divergence(u.values, geom, sigma)
    flux *= dt
    new = u.values + flux
    new -= nonlinear
    src = spec.source.at(u.t)
    if src is not None:
        new += dt * src
    if not np.isfinite(new).all():
        raise CFLViolation("direct step produced non-finite values")
    return Field(u.grid, new, u.t + dt)


def hj_solve(
    spec: HamiltonianSpec,
    sigma: float,
    t_end: float,
    group: GroupSpec,
    *,
    steps: int | None = None,
    store_every: int = 1,
) -> Trajectory:
    """March the direct scheme from spec.u0 to t_end in steps equal steps.

    Without a count the fewest steps no longer than ``grid.CFL_SAFETY``
    times the stability bound at the initial state are taken; every
    step re-checks the bound at the current state, because the
    feedback drift in it moves with u, so gradient growth past the
    initial estimate fails loudly rather than drifting into instability.
    The re-check is O(N): the diffusion part and the frame coefficients
    come from the shared tables of ``_stencils``.
    """
    u0 = spec.u0
    span = t_end - u0.t
    if span < 0:
        raise ValueError("t_end before the datum's time stamp")
    if span == 0:
        return Trajectory(times=(u0.t,), fields=(u0,))
    if steps is None:
        steps = step_count(span, CFL_SAFETY * hj_max_stable_dt(u0, spec, sigma, group))
    fields = march(u0, steps, span / steps, lambda u, step: hj_step_direct(u, spec, sigma, step, group), store_every)
    return Trajectory(times=tuple(f.t for f in fields), fields=tuple(fields))


# ---------------------------------------------------------------------------
# mild-solution sweep
# ---------------------------------------------------------------------------

def heat_baseline(spec: HamiltonianSpec, sigma: float, times: Sequence[float], group: GroupSpec) -> Trajectory:
    """The zeroth iterate e^{tL} u0 on the given time grid."""
    ts = tuple(float(t) for t in times)
    grid = spec.u0.grid
    fields = [Field(grid, spec.u0.values, ts[0])]
    for a, b in zip(ts, ts[1:]):
        fields.append(Field(grid, heat_step(fields[-1], sigma, b - a, group).values, b))
    return Trajectory(times=ts, fields=tuple(fields))


def duhamel_iterate(
    prev: Trajectory,
    spec: HamiltonianSpec,
    sigma: float,
    group: GroupSpec,
) -> Trajectory:
    """One sweep of the mild map Phi applied to the previous iterate.

    Left-endpoint quadrature against the discrete semigroup telescopes:
    w_0 = u0 and w_{k+1} = e^{dt_k L}(w_k + dt_k f_k) with
    f_k = F(t_k) - |grad_G prev(t_k)|^gamma reproduces
    e^{t_k L} u0 + sum_{j<k} dt_j e^{(t_k - t_j) L} f_j exactly, because
    the discrete heat steps compose exactly.  With f = 0 the sweep is
    the plain heat trajectory on the same grid, bit for bit.

    Raises DivergenceError as soon as a snapshot's sup norm passes
    _BLOWUP; no NaN ever leaves this function quietly.
    """
    vf = vfields.left_invariant_fields(group)
    grid = spec.u0.grid
    ts = prev.times
    diff_limit = max_stable_dt(grid, group, sigma)
    for a, b in zip(ts, ts[1:]):
        check_dt(b - a, diff_limit)
    fields = [Field(grid, spec.u0.values, ts[0])]
    for k, (a, b) in enumerate(zip(ts, ts[1:])):
        dt = b - a
        f_k = -gradient_power(vf, prev.fields[k], spec.gamma)
        src = spec.source.at(a)
        if src is not None:
            f_k = f_k + src
        try:
            # Field refuses a non-finite push, the heat step a non-finite result
            vals = heat_step(Field(grid, fields[-1].values + dt * f_k, a), sigma, dt, group).values
        except (ValueError, CFLViolation):
            vals = None
        if vals is None or float(np.abs(vals).max()) > _BLOWUP:
            raise DivergenceError(f"iterate norm passed {_BLOWUP:g} at t={b:g}")
        fields.append(Field(grid, vals, b))
    return Trajectory(times=ts, fields=tuple(fields))


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def xt_norm(traj: Trajectory, group: GroupSpec) -> float:
    """sup_t (||u|| + ||grad_G u|| + max_ij ||X_i X_j u||), all sup norms.

    Discrete stand-in for the solution-space norm used to measure
    contraction; the second-order part uses composed first-order
    stencils.
    """
    vf = vfields.left_invariant_fields(group)
    worst = 0.0
    for f in traj.fields:
        total = f.sup_norm() + vfields.gradient_sup(vf, f)
        total += vfields.second_gradient_sup(vf, f)
        worst = max(worst, total)
    return worst


def xt_distance(a: Trajectory, b: Trajectory, group: GroupSpec) -> float:
    """xt_norm of the snapshot-wise difference; time grids must agree."""
    if len(a) != len(b) or any(abs(s - t) > 1e-12 for s, t in zip(a.times, b.times)):
        raise ValueError("trajectories live on different time grids")
    diff = Trajectory(
        times=a.times,
        fields=tuple(
            Field(fa.grid, fa.values - fb.values, fa.t) for fa, fb in zip(a.fields, b.fields)
        ),
    )
    return xt_norm(diff, group)


@dataclass(frozen=True)
class FixedPointReport:
    """Record of one Picard run of the mild map."""

    distances: tuple[float, ...]
    ratios: tuple[float, ...]
    ball_radius: float
    horizon: float
    growth_constant: float
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "converged"


def hj_fixed_point(
    spec: HamiltonianSpec,
    sigma: float,
    t_end: float,
    group: GroupSpec,
) -> tuple[Trajectory, FixedPointReport]:
    """Iterate the mild map from the heat baseline until the sweep stalls.

    The time grid has the fewest equal steps n, at least two, no longer
    than ``grid.CFL_SAFETY`` times the diffusion bound.  Its stamps are
    t0 + span k / n, not a marched run's running sum of span / n, so the
    two may differ in the last bit (3 of 9 stamps at span 0.05, n = 8).
    At most _FIXED_POINT_SWEEPS sweeps run.  Successive distances are
    measured in the xt norm; one at most 1e-9 times the data scale
    counts as converged.  The report keeps the whole distance
    sequence, the pairwise ratios, the radius of the ball around the
    baseline the iterates explored, and an empirical growth constant
    gamma * (sup ||grad u||)^{gamma-1} of the nonlinearity on that ball.
    Verdicts: converged, maxiter, diverged.
    """
    grid = spec.u0.grid
    vf = vfields.left_invariant_fields(group)
    span = t_end - spec.u0.t
    if span <= 0:
        raise ValueError("horizon must lie after the datum's time stamp")
    n = step_count(span, CFL_SAFETY * max_stable_dt(grid, group, sigma), least=2)
    times = tuple(spec.u0.t + span * k / n for k in range(n + 1))

    scale = max(spec.data_scale(span), 1e-30)
    current = heat_baseline(spec, sigma, times, group)
    baseline = current
    distances: list[float] = []
    ratios: list[float] = []
    radius = 0.0
    grad_peak = max(vfields.gradient_sup(vf, f) for f in current.fields)
    verdict = "maxiter"
    for _ in range(_FIXED_POINT_SWEEPS):
        try:
            nxt = duhamel_iterate(current, spec, sigma, group)
        except DivergenceError:
            verdict = "diverged"
            break
        distances.append(xt_distance(nxt, current, group))
        radius = max(radius, xt_distance(nxt, baseline, group))
        grad_peak = max(grad_peak, *(vfields.gradient_sup(vf, f) for f in nxt.fields))
        current = nxt
        if distances[-1] <= 1e-9 * scale:
            verdict = "converged"
            break
    for a, b in zip(distances, distances[1:]):
        if a > 0:
            ratios.append(b / a)
    growth = spec.gamma * grad_peak ** (spec.gamma - 1.0)
    report = FixedPointReport(
        distances=tuple(distances),
        ratios=tuple(ratios),
        ball_radius=radius,
        horizon=span,
        growth_constant=growth,
        verdict=verdict,
    )
    return current, report


# ---------------------------------------------------------------------------
# duality pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    """Both sides of the pairing identity on [s, tau] and their mismatch."""

    s: float
    tau: float
    gap: float
    gradient_term: float
    source_term: float
    residual: float


def duality_report(
    traj: Trajectory,
    spec: HamiltonianSpec,
    sigma: float,
    group: GroupSpec,
    mu_tau: Field,
    s: float,
    tau: float,
) -> DualityReport:
    """Check the pairing identity against an adjoint density.

    mu_tau is the density at the LATER time tau: the adjoint equation
    d_t mu + sigma lap_G mu + div_G(gamma |grad u|^{gamma-2} grad u mu) = 0
    is parabolic backward in time, so the density is integrated in the
    reversed variable r = tau - t (``feedback_transport`` of the window
    reflected onto the run's own snapshot times) and mapped back.  The
    run takes one step of (tau - s) / n per window interval, n intervals
    in all, and its drift is keyed by its own snapshot times, the running
    sum of that step from 0.  The step must satisfy the transport bound
    for the feedback drift, which it does whenever the window holds every
    snapshot of an hj_solve run, whose bound includes the same speed.

    Time integrals use the trapezoid rule on that grid, space integrals
    the grid sum.
    """
    ts = np.asarray(traj.times)
    i0 = int(np.argmin(np.abs(ts - s)))
    i1 = int(np.argmin(np.abs(ts - tau)))
    if abs(ts[i0] - s) > 1e-9 or abs(ts[i1] - tau) > 1e-9:
        raise ValueError("s and tau must be snapshot times of the trajectory")
    if i1 <= i0:
        raise ValueError("tau must come after s")
    window = traj.fields[i0 : i1 + 1]
    wt = ts[i0 : i1 + 1]
    n = len(window) - 1
    span = float(tau - s)

    # the adjoint's snapshot k, stamped as its stepper stamps it, carries
    # the drift of window snapshot n - k
    rev_times = list(accumulate([span / n] * n, initial=0.0))
    reflected = Trajectory(traj.times[i0 : i1 + 1], window).reflected(rev_times)
    nu = feedback_transport(reflected, Field(mu_tau.grid, mu_tau.values, 0.0), sigma,
                            spec.gamma, group, span)
    # mu at window time index j is nu at reversed index
    mu_fields = nu.fields[::-1]

    vf = vfields.left_invariant_fields(group)
    cell = traj.fields[0].grid.cell_volume
    grad_int = np.empty(len(window))
    src_int = np.empty(len(window))
    for j, (uf, mf) in enumerate(zip(window, mu_fields)):
        mag_pow = gradient_power(vf, uf, spec.gamma)
        grad_int[j] = (spec.gamma - 1.0) * float((mag_pow * mf.values).sum()) * cell
        fsrc = spec.source.at(float(wt[j]))
        src_int[j] = float((fsrc * mf.values).sum()) * cell if fsrc is not None else 0.0
    gradient_term = float(np.trapezoid(grad_int, wt))
    source_term = float(np.trapezoid(src_int, wt))
    gap = float((window[-1].values * mu_fields[-1].values).sum() * cell) - float(
        (window[0].values * mu_fields[0].values).sum() * cell
    )
    residual = abs(gap - gradient_term - source_term)
    return DualityReport(
        s=float(wt[0]),
        tau=float(wt[-1]),
        gap=gap,
        gradient_term=gradient_term,
        source_term=source_term,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# comparison bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupBoundsReport:
    """Observed extremes of a trajectory against the comparison bounds."""

    max_value: float
    min_value: float
    upper_bound: float
    lower_bound: float
    ok: bool


def sup_bounds_report(traj: Trajectory, spec: HamiltonianSpec) -> SupBoundsReport:
    """One-sided bounds from the comparison principle.

    Above: data only push up through F, so u <= ||u0|| + T ||F||.  Below:
    the gradient term can eat at most a multiple of the same size, with
    factor (gamma+1)/(gamma-1).  Both sides get a relative slack of 1e-3
    on the data scale for the discretization.
    """
    data = spec.data_scale(traj.times[-1] - traj.times[0])
    tol = 1e-3 * max(data, 1e-30)
    upper = data + tol
    lower = -((spec.gamma + 1.0) / (spec.gamma - 1.0)) * data - tol
    mx = max(float(f.values.max()) for f in traj.fields)
    mn = min(float(f.values.min()) for f in traj.fields)
    return SupBoundsReport(
        max_value=mx,
        min_value=mn,
        upper_bound=upper,
        lower_bound=lower,
        ok=(mx <= upper) and (mn >= lower),
    )


@dataclass(frozen=True)
class BernsteinReport:
    """Per-direction first-derivative sups on a central window vs bounds."""

    frame_kind: str
    observed: tuple[float, ...]
    initial: tuple[float, ...]
    source: tuple[float, ...]
    bounds: tuple[float, ...]
    ok: bool


def _central_window(shape: tuple[int, ...]) -> tuple[slice, ...]:
    """The centered half of the nodes along each axis."""
    out = []
    for n in shape:
        cut = int(round(n * 0.25))
        cut = min(cut, (n - 1) // 2)
        out.append(slice(cut, n - cut))
    return tuple(out)


def bernstein_report(
    traj: Trajectory,
    spec: HamiltonianSpec,
    group: GroupSpec,
) -> BernsteinReport:
    """First-derivative bounds along the right-invariant frame, away from the box edge.

    That frame commutes with the left-invariant generator, so Y_j u
    solves a linear equation whose source is Y_j F, and sup_t ||Y_j u||
    <= ||Y_j u0|| + ||Y_j F|| up to _BERNSTEIN_SLACK on the central window.
    A frame that does not commute picks up commutator sources, and the
    bound has no reason to hold along it.

    The window keeps the centered half of the nodes per axis, clear of
    the one-sided differences at the edge.
    """
    vf = vfields.right_invariant_fields(group)
    grid = traj.fields[0].grid
    win = _central_window(grid.shape)
    m = vf.count

    def dir_sups(f: Field) -> list[float]:
        g = vfields.horizontal_gradient(vf, f).values
        return [float(np.abs(g[i][win]).max()) for i in range(m)]

    init = dir_sups(traj.fields[0])
    src = [0.0] * m
    for t in traj.times:
        fs = spec.source.at(float(t))
        if fs is None:
            continue
        sv = dir_sups(Field(grid, fs, float(t)))
        src = [max(a, b) for a, b in zip(src, sv)]
    observed = [0.0] * m
    for f in traj.fields:
        sv = dir_sups(f)
        observed = [max(a, b) for a, b in zip(observed, sv)]
    bounds = [i + s_ + _BERNSTEIN_SLACK * max(i + s_, 1e-30) for i, s_ in zip(init, src)]
    ok = all(o <= b for o, b in zip(observed, bounds))
    return BernsteinReport(
        frame_kind=vf.kind,
        observed=tuple(observed),
        initial=tuple(init),
        source=tuple(src),
        bounds=tuple(bounds),
        ok=ok,
    )
