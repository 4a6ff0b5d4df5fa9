"""Horizontal heat flow: explicit conservative stepping and decay diagnostics.

The heat flow is the drift-free case of the transport flow of
``fokker_planck``: a heat step is ``fp_step`` with ``DriftField.none()``,
forward Euler on the divergence-form operator, f + dt sigma lap_G f,
realized through face fluxes so the total integral is conserved
structurally (zero flux through the box boundary, telescoping interior
fluxes), and ``evolve`` is ``fp_solve`` keeping the final state only.
The mild-solution sweep of ``hamilton_jacobi`` composes the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vfields
from .fokker_planck import DriftField, fp_solve, fp_step
from .grid import CFL_SAFETY, Field, GridSpec, march, max_stable_dt, step_count
from .groups import GroupSpec


def heat_step(f: Field, sigma: float, dt: float, group: GroupSpec) -> Field:
    """One explicit Euler step of d_t f = sigma lap_G f (the transport step
    without drift); a dt above the stability bound raises CFLViolation."""
    return fp_step(f, DriftField.none(), sigma, dt, group)


def evolve(f: Field, sigma: float, t_target: float, group: GroupSpec) -> Field:
    """Run the heat flow from f.t to t_target in the fewest equal steps no
    longer than ``grid.CFL_SAFETY`` times the stability bound."""
    out = fp_solve(f, DriftField.none(), sigma, t_target, group, store_every=0).final
    return out if out is f else Field(f.grid, out.values, t_target)


@dataclass(frozen=True)
class DecayReport:
    """Log-log fit of t -> ||grad_G e^{t lap} phi||_inf over a time ladder."""

    times: tuple[float, ...]
    grad_sup: tuple[float, ...]
    slope: float
    constant: float
    sup_start: float
    sup_end: float


def decay_ladder(grid: GridSpec, group: GroupSpec, sigma: float, t_end: float) -> tuple[int, list[int]]:
    """The count n of stable steps dt to t_end and the step counts of eight
    sample times log-spaced in [4 dt, t_end]; ValueError when 4 dt reaches t_end."""
    n = step_count(t_end, CFL_SAFETY * max_stable_dt(grid, group, sigma))
    dt = t_end / n
    t_lo = 4 * dt
    if t_lo >= t_end:
        raise ValueError(f"t_end = {t_end:g} spans {n} of the 5 stable steps the sample ladder "
                         f"needs at sigma = {sigma:g} on this grid")
    ladder = np.exp(np.linspace(math.log(t_lo), math.log(t_end), 8))
    steps = sorted({int(round(t / dt)) for t in ladder})
    return n, [s for s in steps if s >= 1]


def measure_gradient_decay(
    phi: Field,
    sigma: float,
    t_end: float,
    group: GroupSpec,
) -> DecayReport:
    """Evolve rough data and fit the decay exponent of the horizontal gradient.

    Samples on ``decay_ladder``, so the first samples sit past the
    initial layer where the discrete gradient saturates at the data's
    jump resolution.
    """
    vf = vfields.left_invariant_fields(group)
    n, steps = decay_ladder(phi.grid, group, sigma, t_end)
    dt = t_end / n
    cur = phi
    times, sups = [], []
    done = 0
    for s in steps:
        cur = march(cur, s - done, dt, lambda f, step: heat_step(f, sigma, step, group),
                    store_every=0).final
        done = s
        times.append(s * dt)
        sups.append(vfields.gradient_sup(vf, cur))
    if min(sups) <= 0:
        # gradient vanished somewhere on the ladder; no exponent to fit
        slope, intercept = float("nan"), -math.inf
    else:
        lt, ls = np.log(times), np.log(sups)
        slope, intercept = np.polyfit(lt, ls, 1)
    return DecayReport(
        times=tuple(times),
        grad_sup=tuple(sups),
        slope=float(slope),
        constant=float(np.exp(intercept)),
        sup_start=float(np.abs(phi.values).max()),
        sup_end=cur.sup_norm(),
    )
