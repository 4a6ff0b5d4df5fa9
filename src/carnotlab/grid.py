"""Discretization substrate: box grids, node fields, truncation masks, CFL bookkeeping.

The CFL bookkeeping serves every explicit solver of the package:
``max_stable_dt`` is the stability bound of the group's left-invariant
frame, ``CFL_SAFETY`` the share of it a solver steps at when no step
count is given, ``check_dt`` refuses a step above the bound,
``step_count`` turns a span and a step bound into a number of equal
steps, and ``march`` is the one marching loop, which keeps the
snapshots a solver stores.  A solver given a count of n steps over a
span steps by span / n, and its snapshot times are the running sum of
that step from the datum's time stamp, so two marched runs given the
same start, span and count stamp the same floats; the mild-map ladder of
``hamilton_jacobi.hj_fixed_point`` is stamped t0 + span k / n instead,
and may differ from them in the last bit.  ``node_coordinates`` is
uncached, so callers own its arrays; ``bump_shape`` is every bump's
profile, the mollifier's too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import groups
from .groups import GroupSpec
from .report import json_text


@dataclass(frozen=True)
class GridSpec:
    """Uniform node-centered grid on a box; at least 3 nodes per axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.lower) == len(self.upper) == len(self.shape)):
            raise ValueError("lower/upper/shape must agree in length")
        if any(n < 3 for n in self.shape):
            raise ValueError("need at least 3 nodes per axis")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError("box corners out of order")
        for h in self.spacings:
            # the stencils divide by h^2, so h^2 and 1/h^2 must both be floats
            if not 0.0 < h * h < math.inf or not 1.0 / (h * h) < math.inf:
                raise ValueError(f"grid spacing {h:g} squares outside the float range")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple((u - l) / (n - 1) for l, u, n in zip(self.lower, self.upper, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linspace(l, u, n) for l, u, n in zip(self.lower, self.upper, self.shape))


def node_coordinates(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Meshgrid coordinate arrays (ij indexing), new arrays on every call."""
    return tuple(np.meshgrid(*grid.axes(), indexing="ij"))


def node_points(grid: GridSpec) -> np.ndarray:
    """All nodes as an (N, d) array in C order."""
    return np.stack([c.reshape(-1) for c in node_coordinates(grid)], axis=-1)


def default_grid(extent: float = 2.0, nodes: int = 41, dim: int = 3) -> GridSpec:
    return GridSpec(lower=(-extent,) * dim, upper=(extent,) * dim, shape=(nodes,) * dim)


@dataclass(frozen=True)
class Field:
    """One snapshot: scalar values on grid nodes, or an m-vector per node
    (leading axis indexes components).  Treated as immutable.
    """

    grid: GridSpec
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        ok = v.shape == self.grid.shape or (
            v.ndim == len(self.grid.shape) + 1 and v.shape[1:] == self.grid.shape
        )
        if not ok:
            raise ValueError(f"values of shape {v.shape} do not fit grid {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == len(self.grid.shape) + 1

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered sequence of field snapshots from one solver run."""

    times: tuple[float, ...]
    fields: tuple[Field, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.fields) or not self.times:
            raise ValueError("times and fields must align and be nonempty")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must increase")

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def final(self) -> Field:
        return self.fields[-1]

    def reflected(self, times: Sequence[float]) -> "Trajectory":
        """Snapshot k holds the values of snapshot n - k, stamped times[k]."""
        fields = tuple(Field(f.grid, f.values, t) for f, t in zip(reversed(self.fields), times))
        return Trajectory(tuple(times), fields)


def constant_field(grid: GridSpec, value: float, t: float = 0.0) -> Field:
    return Field(grid, np.full(grid.shape, float(value)), t)


def make_ball_mask(grid: GridSpec, group: GroupSpec, radius: float) -> np.ndarray:
    """The nodes inside the truncation ball {||x||_G < radius}, as a boolean array."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    inside = groups.hom_norm(group, np.stack(node_coordinates(grid), axis=-1)) < radius
    if not inside.any():
        raise ValueError(f"ball of radius {radius} contains no grid node")
    return inside


# Share of the stability bound the explicit solvers step at when no step count is given.
CFL_SAFETY = 0.8


def max_stable_dt(
    grid: GridSpec,
    group: GroupSpec,
    sigma: float,
    b: Field | np.ndarray | None = None,
) -> float:
    """Explicit-scheme stability bound (without the safety factor).

    dt_max = min over nodes of
        ( sum_k sigma A_kk/h_k^2 + sum_k |Btilde_k|/h_k
          + sigma sum_{k != l} |A_kl| / (2 h_k h_l) )^{-1},
    with A = sum a_i a_i^T and Btilde = sum b_i a_i.  Returns +inf when the
    drift and diffusion vanish ("unconstrained").

    The diffusion part and the frame coefficients come from the shared
    tables of grid and the left-invariant frame of group, so a call costs
    O(N) with a drift and O(1) without; a constant coefficient 1 costs no
    multiply.
    """
    from . import _stencils, vfields

    tables = _stencils.frame_tables(grid, vfields.left_invariant_fields(group))
    if b is None:
        m = sigma * tables.diffusion_max if sigma > 0 else 0.0
    else:
        h = grid.spacings
        denom = sigma * tables.diffusion if sigma > 0 else np.zeros(grid.shape)
        bv = b.values if isinstance(b, Field) else np.asarray(b, dtype=float)
        if bv.ndim == 1:
            bv = bv.reshape((-1,) + (1,) * grid.dim)
        for k in range(grid.dim):
            btk = None
            for i, ci in enumerate(tables.coef):
                if ci[k] is None:
                    continue
                term = _stencils.times(ci[k], bv[i])
                btk = term if btk is None else btk + term
            if btk is not None:
                denom += np.abs(btk) / h[k]
        m = float(denom.max())
    if m <= 0.0:
        return math.inf
    return 1.0 / m


class CFLViolation(RuntimeError):
    """Requested step exceeds the explicit stability bound."""


def check_dt(dt: float, limit: float) -> None:
    """Refuse a step above the stability bound (with a 1e-12 relative slack)."""
    if dt > limit * (1 + 1e-12):
        raise CFLViolation(f"dt={dt:g} exceeds stability bound {limit:g}")


def step_count(span: float, limit: float, least: int = 1) -> int:
    """The fewest equal steps no longer than limit that cover span, never
    fewer than least (least when limit is infinite).  A limit that is not a
    positive number, such as the NaN bound of an overflowing drift, raises
    ValueError."""
    if not limit > 0:
        raise ValueError(f"step bound {limit:g} is not a positive number")
    if math.isinf(limit):
        return least
    return max(least, math.ceil(span / limit))


def march(x0, n: int, step: float, advance: Callable, store_every: int = 1) -> list:
    """Apply advance(x, step) n times from the Field x0 and return the kept
    states: x0, every store_every-th state and the last one (store_every = 0
    keeps the two endpoints only).  A CFLViolation is re-raised naming its
    step; overflow warns nothing, as advance refuses non-finite states."""
    kept = [x0]
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            try:
                x = advance(x, step)
            except CFLViolation as exc:
                raise CFLViolation(f"{exc} (step {k} of {n}, from t = {x.t:g})") from exc
            if k == n or (store_every and k % store_every == 0):
                kept.append(x)
    return kept


# ---------------------------------------------------------------------------
# dump format: CSV of node coordinates plus value, JSON sidecar
# ---------------------------------------------------------------------------

def write_points_csv(path: str, points: np.ndarray, values: np.ndarray, name: str) -> None:
    """One row x1..xd,name per point, every float in its shortest round-trip repr."""
    header = ",".join(f"x{i+1}" for i in range(points.shape[1])) + "," + name
    columns = [map(repr, c.tolist()) for c in (*np.asarray(points, float).T, np.asarray(values, float))]
    with open(os.fspath(path), "w") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*columns))]) + "\n")


def dump_field_csv(f: Field, path: str) -> None:
    """Write a scalar field as CSV (x1..xd,value), one row per node in C
    order, plus a JSON sidecar path + ".json" holding the grid and t.

    The contract of every field a run writes: each float is written in its
    shortest round-trip repr, so float() of each value column gives the
    array back bit for bit.
    """
    if f.is_vector:
        raise ValueError("CSV dump is defined for scalar fields; dump components separately")
    path = os.fspath(path)
    write_points_csv(path, node_points(f.grid), f.values.reshape(-1), "value")
    with open(path + ".json", "w") as fh:
        fh.write(json_text({"grid": f.grid, "t": f.t, "kind": "scalar"}))


# ---------------------------------------------------------------------------
# stock data: smooth compactly supported bumps built on the homogeneous norm
# ---------------------------------------------------------------------------

def bump_profile(group: GroupSpec, coords: Sequence[np.ndarray], center: Sequence[float] | None = None, radius: float = 1.0) -> np.ndarray:
    """exp(1/(s-1)) on s<1 with s = (||c^{-1} x||_G / radius)^{2k!}; zero outside.

    Smooth, compactly supported in the quasi-ball of the given radius around
    the center (center offset by left translation).
    """
    pts = np.stack(np.broadcast_arrays(*coords), axis=-1)
    if center is not None:
        pts = groups.multiply(group, -np.asarray(center, dtype=float), pts)
    return bump_shape((groups.hom_norm(group, pts) / radius) ** group.norm_root)


def bump_shape(s: np.ndarray) -> np.ndarray:
    """exp(1/(s-1)) on s < 1 and 0 elsewhere."""
    out = np.zeros(s.shape)
    inside = s < 1.0
    out[inside] = np.exp(1.0 / (s[inside] - 1.0))
    return out


def bump_field(grid: GridSpec, group: GroupSpec, *, center: Sequence[float] | None = None, radius: float = 1.0, normalize: bool = False, amplitude: float = 1.0) -> Field:
    vals = bump_profile(group, node_coordinates(grid), center=center, radius=radius)
    if normalize:
        s = vals.sum() * grid.cell_volume
        if s <= 0:
            raise ValueError("bump has no mass on this grid")
        vals = vals / s
    else:
        peak = vals.max()
        if peak <= 0:
            raise ValueError("bump has no mass on this grid")
        vals = amplitude * vals / peak
    return Field(grid, vals)
