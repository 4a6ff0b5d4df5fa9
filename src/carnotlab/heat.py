"""Horizontal heat flow: explicit conservative stepping and decay diagnostics.

The step is forward Euler on the divergence-form operator, f + dt sigma
lap_G f, realized through face fluxes so the total integral is conserved
structurally (zero flux through the box boundary, telescoping interior
fluxes).  The flow is the solver backbone: the transport module adds an
advective flux to the same machinery, and the fixed-point map for the
nonlinear problems composes these steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _stencils, vfields
from .grid import Field, GridSpec, max_stable_dt
from .groups import GroupSpec


class CFLViolation(RuntimeError):
    """Requested step exceeds the explicit stability bound."""


def stable_dt(grid: GridSpec, group: GroupSpec, sigma: float, *, cfl_safety: float = 0.8, b=None) -> float:
    vf = vfields.left_invariant_fields(group)
    return cfl_safety * max_stable_dt(grid, group, vf, sigma, b)


def heat_step(f: Field, sigma: float, dt: float, group: GroupSpec, *, check_cfl: bool = True) -> Field:
    """One explicit Euler step of d_t f = sigma lap_G f."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0:
        return f
    if check_cfl:
        limit = max_stable_dt(f.grid, group, vfields.left_invariant_fields(group), sigma, None)
        if dt > limit * (1 + 1e-12):
            raise CFLViolation(f"dt={dt:g} exceeds stability bound {limit:g}")
    geom = _stencils.frame_tables(f.grid, vfields.left_invariant_fields(group))
    new = f.values + dt * _stencils.flux_divergence(f.values, geom, sigma)
    return Field(f.grid, new, f.t + dt)


def evolve(
    f: Field,
    sigma: float,
    t_target: float,
    group: GroupSpec,
    *,
    dt: float | None = None,
    cfl_safety: float = 0.8,
) -> Field:
    """Run the heat flow from f.t to t_target by composed steps.

    When dt is not given, the largest stable step that lands exactly on
    t_target is used.
    """
    span = t_target - f.t
    if span < 0:
        raise ValueError("t_target before the field's time stamp")
    if span == 0:
        return f
    if dt is None:
        limit = stable_dt(f.grid, group, sigma, cfl_safety=cfl_safety)
        if not math.isfinite(limit):
            n = 1
        else:
            n = max(1, math.ceil(span / limit))
    else:
        n = max(1, math.ceil(span / dt - 1e-12))
    step = span / n
    geom = _stencils.frame_tables(f.grid, vfields.left_invariant_fields(group))
    vals = f.values
    for _ in range(n):
        vals = vals + step * _stencils.flux_divergence(vals, geom, sigma)
        if not np.isfinite(vals).all():
            raise CFLViolation("heat flow produced non-finite values")
    return Field(f.grid, vals, t_target)


@dataclass(frozen=True)
class DecayReport:
    """Log-log fit of t -> ||grad_G e^{t lap} phi||_inf over a time ladder."""

    times: tuple[float, ...]
    grad_sup: tuple[float, ...]
    slope: float
    constant: float
    sup_start: float
    sup_end: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "times": list(self.times),
                "grad_sup": list(self.grad_sup),
                "slope": self.slope,
                "constant": self.constant,
                "sup_start": self.sup_start,
                "sup_end": self.sup_end,
            },
            indent=2,
            sort_keys=True,
        )


def measure_gradient_decay(
    phi: Field,
    sigma: float,
    t_end: float,
    group: GroupSpec,
    *,
    n_times: int = 8,
    cfl_safety: float = 0.8,
) -> DecayReport:
    """Evolve rough data and fit the decay exponent of the horizontal gradient.

    Sample times are log-spaced in [4 dt, t_end] so the first samples sit
    past the initial layer where the discrete gradient saturates at the
    data's jump resolution.
    """
    vf = vfields.left_invariant_fields(group)
    limit = stable_dt(phi.grid, group, sigma, cfl_safety=cfl_safety)
    n = max(1, math.ceil(t_end / limit))
    dt = t_end / n
    t_lo = 4 * dt
    if t_lo >= t_end:
        raise ValueError("time horizon too short for the sample ladder")
    ladder = np.exp(np.linspace(math.log(t_lo), math.log(t_end), n_times))
    steps = sorted({int(round(t / dt)) for t in ladder})
    steps = [s for s in steps if s >= 1]
    geom = _stencils.frame_tables(phi.grid, vf)
    vals = phi.values
    times, sups = [], []
    done = 0
    for s in steps:
        for _ in range(s - done):
            vals = vals + dt * _stencils.flux_divergence(vals, geom, sigma)
        done = s
        g = vfields.horizontal_gradient(vf, Field(phi.grid, vals, s * dt))
        gsup = float(np.sqrt((g.values**2).sum(axis=0)).max())
        times.append(s * dt)
        sups.append(gsup)
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
        sup_end=float(np.abs(vals).max()),
    )
