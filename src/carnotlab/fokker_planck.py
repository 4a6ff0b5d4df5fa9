"""Degenerate transport-diffusion on a truncated ball.

Solves d_t rho = sigma lap_G rho + div_G(b rho) on the box, with values
forced to zero outside a ball mask (the truncation scheme with Dirichlet
exterior data).  The advective flux rho Btilde, Btilde = sum_i b_i a_i,
joins the diffusive flux on faces, so total mass moves only through
faces and is conserved until the support touches the mask.  The drift
is a ``Coefficient``, the time-sampled class that also carries the
source of ``hamilton_jacobi``.

Alongside the grid solver: the weak-form residual of the defining
identity, the L2 and gradient-energy a priori bounds, the exponential
barrier inequality behind the uniqueness argument, and a stochastic
particle oracle that approximates the same law without touching the
grid stencils.  The barrier operator is the chain rule on the exact frame
derivatives of the gauge polynomial, evaluated in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import _stencils, groups, vfields
from .grid import (CFL_SAFETY, CFLViolation, Field, Trajectory, check_dt, make_ball_mask, march,
                   max_stable_dt, step_count)
from .groups import GroupSpec, hom_norm


# ---------------------------------------------------------------------------
# time-sampled coefficients
# ---------------------------------------------------------------------------

def piecewise_constant(times: Sequence[float], values: Sequence) -> Callable[[float], object]:
    """The sampler t -> the entry of values with the largest sample time
    <= t, clamped at the ends; times must increase and align with values."""
    ts = np.asarray(times, dtype=float)
    if len(ts) != len(values) or len(ts) == 0:
        raise ValueError("times and values must align and be nonempty")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("times must increase")

    def sample(t: float):
        i = int(np.searchsorted(ts, t, side="right")) - 1
        return values[min(max(i, 0), len(values) - 1)]

    return sample


@dataclass(frozen=True)
class Coefficient:
    """A coefficient sampled in time: absent, constant, or piecewise constant.

    One class backs the drift of ``fp_solve``, frame coefficients
    b(t) = (b_1, ..., b_m) of the sum b_i a_i as an (m,) vector or an
    (m, *shape) nodal array, and the source F(t) of ``hamilton_jacobi``,
    a nodal array.  Use the constructors: an absent coefficient has no
    sampler, so the solvers skip its term; bound is the largest |entry|
    over the samples.
    """

    sampler: Callable[[float], np.ndarray] | None = None
    bound: float = 0.0

    @staticmethod
    def none() -> "Coefficient":
        return Coefficient()

    @staticmethod
    def constant(values: Sequence[float] | np.ndarray) -> "Coefficient":
        """The same value at every time; an all-zero value is absent."""
        arr = np.asarray(values, dtype=float)
        if not arr.any():
            return Coefficient()
        return Coefficient(lambda t, v=arr: v, float(np.abs(arr).max()))

    @staticmethod
    def from_sequence(times: Sequence[float], values: Sequence[np.ndarray]) -> "Coefficient":
        """Piecewise-constant in time (see ``piecewise_constant``)."""
        vals = [np.asarray(v, dtype=float) for v in values]
        if any(v.shape != vals[0].shape for v in vals):
            raise ValueError("samples must share one shape")
        return Coefficient(piecewise_constant(times, vals), max(float(np.abs(v).max()) for v in vals))

    @property
    def zero(self) -> bool:
        return self.sampler is None

    def at(self, t: float) -> np.ndarray | None:
        if self.sampler is None:
            return None
        v = self.sampler(t)
        if not np.isfinite(v).all():
            raise ValueError(f"coefficient not finite at t={t:g}")
        return v

    def sup_norm(self) -> float:
        """Largest |entry| over the samples (0 when absent)."""
        return self.bound


DriftField = SourceTerm = Coefficient


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def fp_step(
    rho: Field,
    drift: DriftField,
    sigma: float,
    dt: float,
    group: GroupSpec,
    mask: np.ndarray | None = None,
    *,
    check_cfl: bool = True,
) -> Field:
    """One conservative explicit step (without drift, the heat step); values
    outside the mask forced to 0, a non-finite result raises CFLViolation."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0:
        return rho
    vf = vfields.left_invariant_fields(group)
    b = drift.at(rho.t)
    if check_cfl:
        check_dt(dt, max_stable_dt(rho.grid, group, sigma, b))
    geom = _stencils.frame_tables(rho.grid, vf)
    new = _stencils.flux_divergence(rho.values, geom, sigma, b)
    new *= dt
    new += rho.values
    if not np.isfinite(new).all():
        raise CFLViolation("transport step produced non-finite values")
    if mask is not None:
        new[~mask] = 0.0
    return Field(rho.grid, new, rho.t + dt)


def fp_solve(
    rho0: Field,
    drift: DriftField,
    sigma: float,
    t_end: float,
    group: GroupSpec,
    mask: np.ndarray | None = None,
    *,
    steps: int | None = None,
    store_every: int = 1,
) -> Trajectory:
    """Evolve rho0 to t_end in steps equal steps; returns the trajectory
    including both endpoints.

    store_every thins the stored snapshots (the final state is always
    kept).  Without a count the fewest steps no longer than
    ``grid.CFL_SAFETY`` times the stability bound at the initial drift
    sample are taken; a given count whose step exceeds the bound raises
    CFLViolation.  A step re-checks the bound only when its drift sample
    is not the object the last check saw: the first step always checks,
    an absent or constant drift never again, and a piecewise-constant one
    (``Coefficient.from_sequence``) once at each new segment.  A sampler
    that returns a fresh array on every call is checked on every step.
    store_every = 0 stores the two endpoints only.
    """
    span = t_end - rho0.t
    if span < 0:
        raise ValueError("t_end before the datum's time stamp")
    if span == 0:
        return Trajectory((rho0,))
    if steps is None:
        steps = step_count(span, CFL_SAFETY * max_stable_dt(rho0.grid, group, sigma, drift.at(rho0.t)))
    checked = object()  # no drift sample has been checked yet

    def advance(cur: Field, step: float) -> Field:
        nonlocal checked
        b = drift.at(cur.t)
        cur = fp_step(cur, drift, sigma, step, group, mask, check_cfl=b is not checked)
        checked = b
        return cur

    return march(rho0, steps, span / steps, advance, store_every)


def r_monotonicity_report(
    rho0: Field,
    drift: DriftField,
    sigma: float,
    t_end: float,
    group: GroupSpec,
    radii: tuple[float, float],
) -> dict[str, float]:
    """Solve on two nested balls; enlarging the ball should only add mass.

    Returns the most negative nodewise increment over the whole
    trajectory (>= -1e-8 expected) and the final-time mass gap.
    """
    r_small, r_big = radii
    if not r_small < r_big:
        raise ValueError("radii must increase")
    small = fp_solve(rho0, drift, sigma, t_end, group, make_ball_mask(rho0.grid, group, r_small))
    big = fp_solve(rho0, drift, sigma, t_end, group, make_ball_mask(rho0.grid, group, r_big))
    worst = min(
        float((fb.values - fs.values).min()) for fs, fb in zip(small.fields, big.fields)
    )
    return {
        "worst_increment": worst,
        "mass_small": small.fields[-1].integral(),
        "mass_big": big.fields[-1].integral(),
    }


# ---------------------------------------------------------------------------
# integral identities
# ---------------------------------------------------------------------------

def _time_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    w[:-1] += np.diff(times) / 2
    w[1:] += np.diff(times) / 2
    return w


def weak_form_residual(
    traj: Trajectory,
    phi: Callable[[float], Field],
    drift: DriftField,
    sigma: float,
    group: GroupSpec,
) -> float:
    """Residual of the defining identity against a test function t -> phi(t).

    int rho(T) phi(T) - int rho(0) phi(0)
      = int_0^T [ int rho d_t phi - sigma int grad rho . grad phi
                  - int rho b . grad phi ] dt,
    with time derivative and time integral discretized on the stored
    snapshot ladder (centered differences, trapezoid weights).
    """
    vf = vfields.left_invariant_fields(group)
    times = np.asarray(traj.times)
    if len(times) < 3:
        raise ValueError("need at least three snapshots for the time derivative")
    phis = [phi(t) for t in times]
    h_d = traj.fields[0].grid.cell_volume

    # d_t phi on the ladder
    phi_vals = np.stack([p.values for p in phis])
    dphi = np.gradient(phi_vals, times, axis=0, edge_order=1)

    w = _time_weights(times)
    bulk = 0.0
    for j, (t, rho_j, phi_j) in enumerate(zip(times, traj.fields, phis)):
        grad_rho = vfields.horizontal_gradient(vf, rho_j).values
        grad_phi = vfields.horizontal_gradient(vf, phi_j).values
        term = (rho_j.values * dphi[j]).sum()
        term -= sigma * (grad_rho * grad_phi).sum()
        b = drift.at(t)
        if b is not None:
            if b.ndim == 1:
                b = b.reshape((-1,) + (1,) * rho_j.values.ndim)
            term -= (rho_j.values * (b * grad_phi).sum(axis=0)).sum()
        bulk += w[j] * term * h_d
    boundary = (traj.fields[-1].values * phis[-1].values).sum() * h_d - (
        traj.fields[0].values * phis[0].values
    ).sum() * h_d
    return float(abs(boundary - bulk))


@dataclass(frozen=True)
class EnergyReport:
    l2_initial: float
    l2_peak: float
    l2_bound: float
    grad_energy: float
    grad_bound: float
    drift_sup: float
    ok: bool


def energy_report(traj: Trajectory, drift: DriftField, sigma: float, group: GroupSpec) -> EnergyReport:
    """A priori L2 bounds along the trajectory.

    The supremum of int rho(t)^2 is checked against
    K = exp(||b||_inf^2 T / (2 sigma)) (1 + 1e-2) times the initial
    energy, and the accumulated gradient energy int int |grad_G rho|^2
    against the ladder constant (1 + ||b||^2 T K / sigma) / sigma times
    the same initial energy.
    """
    if sigma <= 0:
        raise ValueError("energy bounds need sigma > 0")
    vf = vfields.left_invariant_fields(group)
    times = np.asarray(traj.times)
    span = float(times[-1] - times[0])
    b_sup = 0.0
    for t in times:
        b = drift.at(float(t))
        if b is not None:
            b_sup = max(b_sup, float(np.sqrt((b**2).sum(axis=0)).max()))
    # both bounds are decided on each snapshot divided by the power of two
    # that brings the trajectory's peak below 1: the division is exact, and
    # the squares of a density near the float limit stay finite; the report
    # scales back
    peak = max(float(np.abs(f.values).max()) for f in traj.fields)
    unit = 2.0 ** max(0, math.frexp(peak)[1])
    h_d = traj.fields[0].grid.cell_volume
    l2 = np.array([((f.values / unit)**2).sum() * h_d for f in traj.fields])
    w = _time_weights(times)
    grad_energy = 0.0
    for wj, f in zip(w, traj.fields):
        g = vfields.horizontal_gradient(vf, Field(f.grid, f.values / unit, f.t)).values
        grad_energy += wj * (g**2).sum() * h_d
    K = math.exp(b_sup**2 * span / (2 * sigma)) * (1 + 1e-2)
    K_grad = (1 + (b_sup**2) * span * K / sigma) / sigma
    l2_peak, l2_bound = float(l2.max()), float(K * l2[0])
    grad_energy, grad_bound = float(grad_energy), float(K_grad * l2[0])
    return EnergyReport(
        l2_initial=float(l2[0]) * unit * unit,
        l2_peak=l2_peak * unit * unit,
        l2_bound=l2_bound * unit * unit,
        grad_energy=grad_energy * unit * unit,
        grad_bound=grad_bound * unit * unit,
        drift_sup=float(b_sup),
        ok=l2_peak <= l2_bound and grad_energy <= grad_bound,
    )


# ---------------------------------------------------------------------------
# exponential barrier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsolutionParams:
    beta: float
    beta1: float
    tau0: float
    tau: float

    def __post_init__(self) -> None:
        if not 0 < self.beta < self.beta1:
            raise ValueError("need 0 < beta < beta1")
        if not self.tau > self.tau0:
            raise ValueError("need tau > tau0")


@dataclass(frozen=True)
class SubsolutionReport:
    threshold: float
    max_lhs_at_double: float

    @property
    def ok(self) -> bool:
        return self.max_lhs_at_double <= 1e-10


def barrier_max_lhs(group: GroupSpec, params: SubsolutionParams, b_coeffs, sigma: float, *,
                    rng: np.random.Generator) -> Callable[[float], float]:
    """bbar -> max of the barrier operator over 400 points of the box
    [-2, 2]^d off the origin and 9 times in [tau0, tau].  A positive value
    means the barrier fails to be a subsolution at that rate somewhere in
    the sample.

    Phi = exp(-a (N2 + 1)), a = beta1 + bbar (t - tau0), N2 = ||x||_G^2;
    LHS = d_t Phi + sigma lap_G Phi + B . grad_G Phi + (div_G B) Phi, where
    div_G B = sum_i X_i b_i = 0 for the constant frame coefficients b.
    N2 = P^s with s = 2/r and P = sum_k x_k^(r/w_k) a polynomial (every
    r/w_k is even), so X_i N2 = s P^(s-1) X_i P and X_i X_i N2 follow by
    the chain rule from the exact X_i P and X_i X_i P; they are evaluated
    once, and a call only combines the arrays.
    """
    d, r = group.dim, group.norm_root
    gauge = tuple((Fraction(1), tuple(r // w if l == k else 0 for l in range(d)))
                  for k, w in enumerate(group.weights))
    pts = rng.uniform(-2.0, 2.0, size=(400, d))
    pts = pts[hom_norm(group, pts) > 1e-3]
    cols = [pts[:, i][:, None] for i in range(d)]
    p, s = groups.eval_poly(gauge, cols), 2.0 / r
    n2, ds, dds = p**s, s * p ** (s - 1), s * (s - 1) * p ** (s - 2)
    grad, lap_n2 = [], 0.0
    for field in vfields.left_invariant_fields(group).coefficients:
        xp = groups.apply_field(field, gauge)
        dp, ddp = groups.eval_poly(xp, cols), groups.eval_poly(groups.apply_field(field, xp), cols)
        grad.append(ds * dp)
        lap_n2 += dds * dp**2 + ds * ddp
    grad_sq = sum(g**2 for g in grad)
    b_grad = 0.0 if b_coeffs is None else sum(float(b) * g for b, g in zip(b_coeffs, grad))
    ts = np.linspace(params.tau0, params.tau, 9)[None, :]

    def max_lhs(bbar: float) -> float:
        a = params.beta1 + bbar * (ts - params.tau0)
        # Phi-normalized form, multiplied by Phi at the end
        core = -bbar * (n2 + 1) + sigma * (a**2 * grad_sq - a * lap_n2) - a * b_grad
        return float(np.max(core * np.exp(-a * (n2 + 1))))

    return max_lhs


def subsolution_check(
    group: GroupSpec,
    params: SubsolutionParams,
    b_coeffs,
    sigma: float,
    *,
    rng: np.random.Generator,
) -> SubsolutionReport:
    """Find the smallest decay rate making the barrier a subsolution.

    Samples space-time points (the origin is excluded: ||x||_G^2 is not
    twice differentiable there), locates by bisection the smallest bbar
    with max LHS <= 1e-10 over the sample, and certifies the inequality
    again at twice that rate.  The search gives up past bbar = 1e8.
    """
    max_lhs = barrier_max_lhs(group, params, b_coeffs, sigma, rng=rng)
    lo, hi = 0.0, 1.0
    while max_lhs(hi) > 1e-10:
        hi *= 2
        if hi > 1e8:
            raise RuntimeError("no subsolution rate below the search cap")
    for _ in range(60):
        mid = (lo + hi) / 2
        if max_lhs(mid) > 1e-10:
            lo = mid
        else:
            hi = mid
    return SubsolutionReport(threshold=hi, max_lhs_at_double=max_lhs(2 * hi))


# ---------------------------------------------------------------------------
# particle oracle
# ---------------------------------------------------------------------------

_BLOCK = 8192


def _simulate_block(
    seed: int,
    block_index: int,
    n: int,
    cdf: np.ndarray,
    axes: tuple[np.ndarray, ...],
    spacings: tuple[float, ...],
    shape: tuple[int, ...],
    group: GroupSpec,
    b_table: np.ndarray | None,
    sigma: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """One block of particles on its own SFC64 stream, seeded by (seed,
    block_index) through a SeedSequence; of numpy's bit generators, SFC64
    draws normals the fastest.

    Pure function of plain data so blocks can run in worker processes;
    int64 counts sum exactly, making the total independent of how the
    blocks are distributed.
    """
    d, m = group.dim, group.horizontal_dim
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block_index))))
    u = rng.random(n)
    flat = np.searchsorted(cdf, u, side="right").clip(0, cdf.size - 1)
    idx = np.unravel_index(flat, shape)
    # coordinate-major (d, n) arrays: the group law reads whole columns
    pos = np.stack([axes[k][idx[k]] for k in range(d)])
    pos += (rng.random((n, d)) - 0.5).T * np.array(spacings)[:, None]
    amp = math.sqrt(2 * sigma * dt)
    step = np.zeros((d, n))
    for k in range(n_steps):
        # the horizontal increment, applied by the group law
        step[:m] = 0.0 if b_table is None else -dt * b_table[k][:, None]
        if sigma > 0:
            step[:m] += amp * rng.standard_normal((n, m)).T
        pos = groups.multiply(group, pos.T, step.T).T
    counts = np.zeros(shape, dtype=np.int64)
    bins = [np.rint((pos[k] - axes[k][0]) / spacings[k]).astype(int) for k in range(d)]
    keep = np.logical_and.reduce([(i >= 0) & (i < s) for i, s in zip(bins, shape)])
    np.add.at(counts, tuple(i[keep] for i in bins), 1)
    return counts


def particle_oracle(
    rho0: Field,
    drift: DriftField,
    sigma: float,
    t_end: float,
    group: GroupSpec,
    *,
    n_particles: int,
    seed: int,
    jobs: int = 1,
) -> Field:
    """Empirical density by Euler-Maruyama in the horizontal frame.

    dxi = -sum_i b_i a_i(xi) dt + sqrt(2 sigma) sum_j a_j(xi) dW_j.
    A step multiplies each particle on the right by the horizontal
    increment -b dt + sqrt(2 sigma dt) w through the group law; on a
    step-2 group that is exactly the Euler-Maruyama step with the frame
    frozen at the step's start, so deeper groups are refused.  The Ito
    and Stratonovich forms coincide for frames whose correction sum
    (Da_i) a_i vanishes identically; the ``calculus`` suite certifies that
    exactly on heisenberg1 (``verify.ito_correction``).
    The steps are the fewest equal ones no longer than 0.005 from rho0.t
    to t_end, and step k samples the drift at rho0.t + k dt.

    Particles are drawn and advanced in fixed blocks of 8192, each block
    on its own SFC64 stream seeded by (seed, block index), so the result
    depends only on (seed, n_particles, t_end - rho0.t) and not on the
    worker count.  Returns a node-binned density on rho0's grid.
    """
    if group.step > 2:
        raise NotImplementedError("particle oracle is wired for step-2 groups")
    span = t_end - rho0.t
    if span < 0:
        raise ValueError("t_end before the datum's time stamp")
    grid = rho0.grid
    p = np.clip(rho0.values.reshape(-1), 0.0, None)
    if p.sum() <= 0:
        raise ValueError("datum must carry positive mass")
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    axes = grid.axes()
    n_steps = step_count(span, 0.005)
    dt = span / n_steps
    b_table = None
    if not drift.zero:
        rows = []
        for k in range(n_steps):
            b = drift.at(rho0.t + k * dt)
            if b.ndim != 1:
                raise NotImplementedError("particle oracle takes constant-coefficient drift")
            rows.append(b[:group.horizontal_dim])
        b_table = np.asarray(rows, dtype=float)
    blocks = [
        (start // _BLOCK, min(_BLOCK, n_particles - start))
        for start in range(0, n_particles, _BLOCK)
    ]
    args = [
        (seed, bi, n, cdf, axes, grid.spacings, grid.shape, group, b_table, sigma, dt, n_steps)
        for bi, n in blocks
    ]
    counts = np.zeros(grid.shape, dtype=np.int64)
    if jobs > 1 and len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            for c in pool.map(_simulate_block, *zip(*args)):
                counts += c
    else:
        for a in args:
            counts += _simulate_block(*a)
    dens = counts / (n_particles * grid.cell_volume)
    return Field(grid, dens, t_end)
