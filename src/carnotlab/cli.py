"""Batch front-end: scenario configs in, field dumps and reports out.

Subcommands:

* ``run <config> [...]``: dispatch scenarios (heat, fp, hj, duality,
  mfg, metric).  Each run writes its artifacts under a fresh
  timestamped directory: CSV field dumps, JSON reports, a plain-text
  summary, and a manifest listing every file with its hash.
* ``verify <suite>``: run one named verification suite (or ``all``, in
  ``verify.SUITES`` order) and report pass/fail per check.
* ``schema``: print the config reference with every key, type, and
  default.

``--jobs N`` runs the configs, or the suites, in at most N worker
processes, one to a process, with the same output as in one process.

Each command imports what it runs: ``schema`` and the heat, fp, hj and
duality kinds load numpy only, the mfg kind adds scipy.sparse (through
``mollifier``) and the metric kind the LP stack (through ``flat_metric``)
once selected, and ``verify`` adds scipy only for the suites that use it.

Exit codes: 0 when every asserted invariant passes, 1 on invariant
failure, 2 on solver non-convergence or a solver stop, 64 on a malformed
config or bad usage.  For a fixed config and seed the artifact bytes are
identical across runs; wall-clock time only ever enters the directory name.
Every JSON file, report and manifest alike, is written by
``report.json_text``, which is passed the report objects as they are.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from functools import partial
from importlib import resources

import numpy as np

from . import __version__
from . import fokker_planck as fp
from . import hamilton_jacobi as hj
from . import heat
from .grid import (CFL_SAFETY, CFLViolation, Field, GridSpec, bump_field, default_grid,
                   dump_field_csv, max_stable_dt, node_points, step_count)
from .groups import preset, quasi_distance
from .report import Check, json_text, summary_rows

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CONFIG = 64

OUTPUT_DIR_ENV = "CARNOTLAB_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def _as_choice(*options: str):
    def cast(raw: str) -> str:
        v = raw.strip()
        if v not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {v!r}")
        return v

    cast.doc = "one of: " + ", ".join(options)
    return cast


def _as_float(raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"expected a number; got {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number; got {raw!r}")
    return v


def _as_float_where(ok, expected: str):
    """A finite number v with ok(v); otherwise the error says what was expected."""
    def cast(raw: str) -> float:
        v = _as_float(raw)
        if not ok(v):
            raise ValueError(f"{expected}; got {raw!r}")
        return v

    return cast


_as_pos_float = _as_float_where(lambda v: v > 0, "expected a positive number")
_as_nonneg_float = _as_float_where(lambda v: v >= 0, "expected a nonnegative number")
_as_gamma = _as_float_where(lambda v: v >= 2.0, "gradient power must be >= 2")
_as_theta = _as_float_where(lambda v: 0.0 < v <= 1.0, "damping weight must lie in (0, 1]")


def _as_int_min(lo: int):
    def cast(raw: str) -> int:
        try:
            v = int(raw)
        except ValueError:
            raise ValueError(f"expected an integer; got {raw!r}") from None
        if v < lo:
            raise ValueError(f"expected an integer >= {lo}; got {raw!r}")
        return v

    cast.doc = cast.__name__ = f"integer >= {lo}"
    return cast


def _as_bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true/false; got {raw!r}")


def _as_floats(n: int):
    def cast(raw: str) -> tuple[float, ...]:
        parts = raw.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} numbers separated by spaces; got {raw!r}")
        return tuple(_as_float(p) for p in parts)

    cast.doc = f"{n} numbers separated by spaces"
    return cast


# the scenario kinds; every one runs on a cubic grid of dimension GRID_DIM
KINDS = ("heat", "fp", "hj", "duality", "mfg", "metric")
GRID_DIM = 3

# (default string, caster, help text, kinds that read the key)
SCHEMA: dict[str, dict[str, tuple]] = {
    "scenario": {
        "kind": ("heat", _as_choice(*KINDS), "which solver family to run", KINDS),
        "group": ("heisenberg1", _as_choice("heisenberg1", "engel"),
                  f"group preset; its dimension must be the grid's, {GRID_DIM}", KINDS),
    },
    "grid": {
        "extent": ("2.0", _as_pos_float, "half-width of the cubic box", KINDS),
        "nodes": ("21", _as_int_min(5), "grid nodes per axis", KINDS),
    },
    "dynamics": {
        "sigma": ("0.25", _as_pos_float, "diffusion strength", KINDS),
        "t_end": ("0.1", _as_pos_float, "time horizon", KINDS),
        "gamma": ("2.0", _as_gamma, "gradient power of the Hamiltonian",
                  ("hj", "duality", "mfg")),
        "theta": ("0.5", _as_theta, "mixing weight of the fixed-point sweep, which then "
                  "takes one secant step through the previous sweep", ("mfg",)),
        "gain": ("1.0", _as_nonneg_float, "coupling gain on the mollified density", ("mfg",)),
        "eps": ("0.8", _as_pos_float, "mollifier width", ("mfg",)),
        "drift": ("0.0 0.0", _as_floats(2), "constant horizontal drift coefficients", ("fp",)),
    },
    "data": {
        "preset": ("bump", _as_choice("bump", "indicator"), "initial datum shape", KINDS),
        "radius": ("1.0", _as_pos_float, "datum radius in the homogeneous gauge", KINDS),
        "center": ("0.0 0.0 0.0", _as_floats(GRID_DIM), "datum center", KINDS),
        "amplitude": ("1.0", _as_pos_float, "datum peak value (normalization divides it out)",
                      ("heat", "fp", "hj", "duality")),
        "normalize": ("true", _as_bool, "rescale the datum to unit mass (mfg and metric always "
                      "do, heat, hj and duality never)", ("fp",)),
        "value_radius": ("1.2", _as_pos_float, "terminal value bump radius", ("mfg",)),
        "mu_radius": ("1.0", _as_pos_float, "adjoint density bump radius", ("duality",)),
    },
    "tolerances": {
        "mass": ("1e-8", _as_pos_float, "mass conservation budget", ("fp",)),
        "sup": ("1e-3", _as_pos_float, "relative sup-norm excess budget", ("heat", "fp")),
        "floor": ("1e-3", _as_pos_float,
                  "negativity floor relative to the initial peak", ("fp",)),
        "slope_lo": ("-0.65", _as_float, "lower edge of the decay exponent window", ("heat",)),
        "slope_hi": ("-0.35", _as_float, "upper edge of the decay exponent window", ("heat",)),
        "fixed_point": ("1e-6", _as_pos_float, "mild fixed-point residual budget", ("hj",)),
        "tol_u": ("1e-5", _as_pos_float, "value-function residual target", ("mfg",)),
        "tol_rho": ("1e-4", _as_pos_float, "density L1-change target (bounds d0)", ("mfg",)),
        "max_iters": ("50", _as_int_min(1), "sweep budget for the fixed point", ("mfg",)),
        "metric": ("1e-6", _as_pos_float, "closed-form and axiom budget", ("metric",)),
    },
    "run": {
        "seed": ("0", _as_int_min(0), "seed for any sampled check", ("metric",)),
        "store_every": ("1", _as_int_min(1), "keep every k-th snapshot", ("fp", "hj")),
    },
}


def schema_text() -> str:
    """The config reference, generated from the same table the parser uses."""
    lines = [
        "carnotlab scenario config reference",
        "",
        "INI-style sections with one `key = value` per line; `#` starts a",
        "comment.  Every key is optional and falls back to the default",
        "shown.  Keys outside this list are rejected.",
        "",
    ]
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (default, cast, help_text, used) in keys.items():
            doc = getattr(cast, "doc", None)
            typed = f" ({doc})" if doc else ""
            lines.append(f"{key} = {default}")
            readers = "all" if used == KINDS else ", ".join(used)
            lines.append(f"    {help_text}{typed}; read by: {readers}")
        lines.append("")
    return "\n".join(lines)


def _line_of(text: str, section: str, key: str | None) -> int:
    """1-based line of a key inside its section, or of the section header."""
    lines = text.splitlines()
    header = -1
    for i, line in enumerate(lines):
        if line.strip().startswith(f"[{section}]"):
            header = i
            break
    if header < 0:
        return 0
    if key is None:
        return header + 1
    for i in range(header + 1, len(lines)):
        stripped = lines[i].strip()
        if stripped.startswith("["):
            break
        body = stripped.split("=")[0].split(":")[0].strip()
        if body == key:
            return i + 1
    return header + 1


def load_config(path: str) -> tuple[dict, list[str]]:
    """Parse and validate one config file.

    Returns the effective settings (defaults plus overrides, fully
    typed) and a list of diagnostics; a non-empty list means the file
    is rejected.  Diagnostics carry file and line so a user can jump
    straight to the offending entry.  A key its kind does not read
    (SCHEMA's last column) is rejected unless it holds its default.
    """
    import configparser

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return {}, [f"{path}: {exc.strerror or exc}"]

    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        parser.read_string(text, source=path)
    except configparser.MissingSectionHeaderError as exc:
        return {}, [f"{path}:{exc.lineno}: content before the first [section] header"]
    except configparser.DuplicateOptionError as exc:
        return {}, [f"{path}:{exc.lineno}: duplicate key {exc.option!r} in [{exc.section}]"]
    except configparser.DuplicateSectionError as exc:
        return {}, [f"{path}:{exc.lineno}: duplicate section [{exc.section}]"]
    except configparser.ParsingError as exc:
        msgs = []
        for lineno, line in exc.errors:
            msgs.append(f"{path}:{lineno}: cannot parse {line}")
        return {}, msgs

    effective = {
        section: {key: spec[1](spec[0]) for key, spec in keys.items()}
        for section, keys in SCHEMA.items()
    }
    errors: list[str] = []
    for section in parser.sections():
        if section not in SCHEMA:
            lineno = _line_of(text, section, None)
            known = ", ".join(SCHEMA)
            errors.append(
                f"{path}:{lineno}: unknown section [{section}]; expected one of: {known}"
            )
            continue
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                lineno = _line_of(text, section, key)
                known = ", ".join(SCHEMA[section])
                errors.append(
                    f"{path}:{lineno}: unknown key {key!r} in [{section}]; "
                    f"expected one of: {known}"
                )
                continue
            cast = SCHEMA[section][key][1]
            try:
                effective[section][key] = cast(raw)
            except ValueError as exc:
                lineno = _line_of(text, section, key)
                errors.append(f"{path}:{lineno}: [{section}] {key}: {exc}")

    kind = effective["scenario"]["kind"]
    for section in [] if errors else parser.sections():
        for key in parser[section]:
            default, cast, _, used = SCHEMA[section][key]
            if kind not in used and effective[section][key] != cast(default):
                errors.append(f"{path}:{_line_of(text, section, key)}: [{section}] {key}: "
                              f"kind {kind} does not read it; drop it or set it to {default}")

    if not errors and effective["tolerances"]["slope_lo"] >= effective["tolerances"]["slope_hi"]:
        lineno = _line_of(text, "tolerances", "slope_lo")
        errors.append(f"{path}:{lineno}: [tolerances] slope_lo must be below slope_hi")
    group = effective["scenario"]["group"]
    dim = preset(group).dim
    if not errors and dim != GRID_DIM:
        lineno = _line_of(text, "scenario", "group")
        errors.append(
            f"{path}:{lineno}: [scenario] group: {group} has dimension {dim}, "
            f"but kind {kind} runs on a {GRID_DIM}-d grid"
        )
    return effective, errors


# ---------------------------------------------------------------------------
# scenario data
# ---------------------------------------------------------------------------

def _make_datum(cfg: dict, grid: GridSpec, group, *, normalize: bool | None = None) -> Field:
    d = cfg["data"]
    radius = d["radius"]
    wants_norm = d["normalize"] if normalize is None else normalize
    if d["preset"] == "bump":
        return bump_field(grid, group, center=d["center"], radius=radius,
                          normalize=wants_norm, amplitude=d["amplitude"])
    c = np.asarray(d["center"], dtype=float)
    inside = quasi_distance(group, c, node_points(grid)).reshape(grid.shape) < radius
    if not inside.any():
        raise ValueError("indicator datum has no mass inside the box")
    vals = inside.astype(float) * d["amplitude"]
    if wants_norm:
        vals = vals / (vals.sum() * grid.cell_volume)
    return Field(grid, vals)


# The most stable steps a scenario may ask for.  The suites, bundled configs
# and benchmark solves take at most 322, and a run past the cap would take
# hours; the cap leaves room for a step bound of half today's.
MAX_STEPS = 50_000

# how each kind normalizes its datum: True, False, or None for [data] normalize
_DATUM_NORMALIZE = {"heat": False, "fp": None, "hj": False, "duality": False,
                    "mfg": True, "metric": True}


class DatumError(ValueError):
    """A datum whose mass overflows; reported at the line of [data] amplitude."""


def _scenario_data(cfg: dict, group) -> dict:
    """Every input a scenario starts from, built before any output exists.

    Raises ValueError when the data cannot be built on this grid, e.g. a
    bump centred where it has no mass or an eps the lattice cannot resolve,
    a datum whose mass (L1 norm) overflows (DatumError), a step bound that is not a
    positive number, or a horizon of more than MAX_STEPS steps of the kind's
    solver (counting the fp drift, the datum's feedback drift for hj and
    duality, or ``mfg.picard_steps``).
    """
    kind = cfg["scenario"]["kind"]
    grid = default_grid(cfg["grid"]["extent"], cfg["grid"]["nodes"], GRID_DIM)
    data = {"grid": grid,
            "datum": _make_datum(cfg, grid, group, normalize=_DATUM_NORMALIZE[kind])}
    d, dyn = cfg["data"], cfg["dynamics"]
    with np.errstate(over="ignore"):
        mass = float(np.abs(data["datum"].values).sum()) * grid.cell_volume
    if not math.isfinite(mass):
        raise DatumError(f"amplitude = {d['amplitude']:g} takes the datum's mass past the "
                         "float range")
    if kind == "mfg":
        from .mfg import picard_steps
        from .mollifier import MollifierSpec

        data["u_T"] = bump_field(grid, group, center=d["center"], radius=d["value_radius"])
        data["mollifier"] = MollifierSpec.build(dyn["eps"], grid, group)
    # an overflowing drift gives a NaN or zero bound, which step_count refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "mfg":
            n = picard_steps(hj.HamiltonianSpec(u0=data["u_T"], gamma=dyn["gamma"]),
                             dyn["sigma"], dyn["t_end"], group)
        elif kind in ("hj", "duality"):
            spec = hj.HamiltonianSpec(u0=data["datum"], gamma=dyn["gamma"])
            n = step_count(dyn["t_end"],
                           CFL_SAFETY * hj.hj_max_stable_dt(spec.u0, spec, dyn["sigma"], group))
        else:
            b = fp.DriftField.constant(dyn["drift"]).at(0.0) if kind == "fp" else None
            n = step_count(dyn["t_end"], CFL_SAFETY * max_stable_dt(grid, group, dyn["sigma"], b))
    if n > MAX_STEPS:
        raise ValueError(f"t_end = {dyn['t_end']:g} asks for {n:.6g} stable steps on this grid; "
                         f"at most {MAX_STEPS} run")
    if kind == "duality":
        data["mu"] = bump_field(grid, group, center=d["center"], radius=d["mu_radius"],
                                normalize=True)
    elif kind == "heat":
        heat.decay_ladder(grid, group, dyn["sigma"], dyn["t_end"])
    elif kind == "metric":
        # the time-regularity fit needs two distinct gaps, so two density steps
        if n < 2:
            raise ValueError(f"t_end = {dyn['t_end']:g} spans {n} stable step at sigma = "
                             f"{dyn['sigma']:g} on this grid; the time-regularity fit needs 2")
    return data


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

class RunOutcome:
    """Rows, notes, and the convergence flag of one scenario."""

    def __init__(self) -> None:
        self.checks: list[Check] = []
        self.notes: list[str] = []
        self.nonconverged = False

    def add(self, name: str, value: float, budget: str, ok: bool) -> None:
        self.checks.append(Check(name, value, budget, ok))

    @property
    def exit_code(self) -> int:
        if self.nonconverged:
            return EXIT_NO_CONVERGENCE
        if all(c.ok for c in self.checks):
            return EXIT_OK
        return EXIT_INVARIANT


def _write_json(outdir: str, name: str, payload) -> None:
    """Write payload through ``report.json_text``."""
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(json_text(payload))


def _write_field(outdir: str, name: str, field: Field) -> None:
    dump_field_csv(field, os.path.join(outdir, name))


def _run_heat(cfg: dict, data: dict, outdir: str, seed: int, group) -> RunOutcome:
    """Evolve the heat flow; assert non-expansion and the decay exponent."""
    out = RunOutcome()
    dyn, tol = cfg["dynamics"], cfg["tolerances"]
    f0 = data["datum"]

    f_end = heat.evolve(f0, dyn["sigma"], dyn["t_end"], group)
    sup0 = f0.sup_norm()
    excess = f_end.sup_norm() / sup0 - 1.0
    out.add("sup_norm_excess", excess, f"<= {tol['sup']:g}", excess <= tol["sup"])

    rep = heat.measure_gradient_decay(f0, dyn["sigma"], dyn["t_end"], group)
    window = f"in [{tol['slope_lo']:g}, {tol['slope_hi']:g}]"
    out.add("gradient_decay_slope", rep.slope, window,
            tol["slope_lo"] <= rep.slope <= tol["slope_hi"])
    out.add("gradient_decay_constant", rep.constant, "> 0", rep.constant > 0)

    _write_field(outdir, "state_initial.csv", f0)
    _write_field(outdir, "state_final.csv", f_end)
    _write_json(outdir, "decay_report.json", rep)
    return out


def _run_fp(cfg: dict, data: dict, outdir: str, seed: int, group) -> RunOutcome:
    """Forward transport-diffusion; mass, bounds, and the energy ledger."""
    out = RunOutcome()
    dyn, tol = cfg["dynamics"], cfg["tolerances"]
    rho0 = data["datum"]
    drift = fp.DriftField.constant(dyn["drift"])

    traj = fp.fp_solve(rho0, drift, dyn["sigma"], dyn["t_end"], group,
                       store_every=cfg["run"]["store_every"])
    masses = [f.integral() for f in traj.fields]
    mass_err = max(abs(m - masses[0]) for m in masses)
    out.add("mass_drift", mass_err, f"<= {tol['mass']:g}", mass_err <= tol["mass"])

    sup0 = rho0.sup_norm()
    peak = max(float(f.values.max()) for f in traj.fields)
    excess = peak / sup0 - 1.0
    out.add("sup_norm_excess", excess, f"<= {tol['sup']:g}", excess <= tol["sup"])

    # the floor is asserted on the state the solver hands back; the
    # transient minimum is reported but carries no budget (early steps
    # of rough data undershoot more before diffusion smooths them)
    low = float(traj.final.values.min())
    floor = -tol["floor"] * sup0
    out.add("negativity_floor", low, f">= {floor:.3g}", low >= floor)
    transient = min(float(f.values.min()) for f in traj.fields)
    out.notes.append(f"transient minimum: {transient:.3g}")

    erep = fp.energy_report(traj, drift, dyn["sigma"], group)
    out.add("energy_bounds_hold", float(erep.ok), "== 1", erep.ok)

    _write_field(outdir, "density_final.csv", traj.final)
    _write_json(outdir, "fp_report.json", {
        "times": list(traj.times),
        "masses": masses,
        "sup_peak": peak,
        "final_min": low,
        "transient_min": transient,
        "energy": erep,
    })
    return out


def _run_hj(cfg: dict, data: dict, outdir: str, seed: int, group) -> RunOutcome:
    """Direct solve plus the mild fixed point, cross-checked against each other."""
    out = RunOutcome()
    dyn, tol = cfg["dynamics"], cfg["tolerances"]
    spec = hj.HamiltonianSpec(u0=data["datum"], gamma=dyn["gamma"])

    direct = hj.hj_solve(spec, dyn["sigma"], dyn["t_end"], group,
                         store_every=cfg["run"]["store_every"])
    srep = hj.sup_bounds_report(direct, spec)
    out.add("sup_bounds_hold", float(srep.ok), "== 1", srep.ok)

    mild, frep = hj.hj_fixed_point(spec, dyn["sigma"], dyn["t_end"], group)
    out.nonconverged = frep.verdict != "converged"
    worst_ratio = max(frep.ratios) if frep.ratios else 0.0
    out.add("contraction_worst_ratio", worst_ratio, "< 1", worst_ratio < 1.0)
    out.add("fixed_point_residual", frep.distances[-1],
            f"<= {tol['fixed_point']:g}", frep.distances[-1] <= tol["fixed_point"])

    gap = float(np.abs(direct.final.values - mild.final.values).max())
    budget = spec.error_bar(mild.times[1] - mild.times[0], dyn["t_end"])
    out.add("mild_vs_direct_gap", gap, f"<= {budget:.3g}", gap <= budget)

    _write_field(outdir, "value_final.csv", direct.final)
    _write_json(outdir, "fixed_point_report.json", frep)
    _write_json(outdir, "sup_bounds_report.json", srep)
    out.notes.append(f"fixed point verdict: {frep.verdict}")
    return out


def _run_duality(cfg: dict, data: dict, outdir: str, seed: int, group) -> RunOutcome:
    """Pairing identity between the value flow and an adjoint density."""
    out = RunOutcome()
    dyn = cfg["dynamics"]
    spec = hj.HamiltonianSpec(u0=data["datum"], gamma=dyn["gamma"])

    traj = hj.hj_solve(spec, dyn["sigma"], dyn["t_end"], group)
    rep = hj.duality_report(traj, spec, dyn["sigma"], group, data["mu"])

    budget = spec.error_bar(traj.times[1] - traj.times[0], dyn["t_end"])
    out.add("pairing_residual", abs(rep.residual), f"<= {budget:.3g}",
            abs(rep.residual) <= budget)
    # unit-mass adjoint: the accumulated gradient cost stays under twice
    # the data scale, up to the same first-order error
    frac = rep.gradient_term / (2.0 * spec.data_scale(dyn["t_end"]))
    out.add("accumulated_gradient_fraction", frac, "<= 1.01", frac <= 1.01)

    _write_field(outdir, "value_final.csv", traj.final)
    _write_json(outdir, "duality_report.json", rep)
    return out


def _run_mfg(cfg: dict, data: dict, outdir: str, seed: int, group) -> RunOutcome:
    """Damped best-response iteration for the coupled backward-forward pair."""
    from . import mfg

    out = RunOutcome()
    dyn, tol = cfg["dynamics"], cfg["tolerances"]
    coupling = mfg.CouplingSpec(mollifier=data["mollifier"], gain=dyn["gain"])

    state = mfg.mfg_picard(
        data["u_T"], data["datum"], coupling, dyn["sigma"], dyn["t_end"], group,
        gamma=dyn["gamma"], theta=dyn["theta"],
        tol_u=tol["tol_u"], tol_rho=tol["tol_rho"], max_iters=tol["max_iters"],
    )
    out.nonconverged = not state.converged
    out.notes.append(f"verdict: {state.verdict} after {state.iterations} iterations")
    if state.note:
        out.notes.append(state.note)

    if state.residuals_u:
        res_u = state.residuals_u[-1]
        out.add("value_residual", res_u, f"<= {tol['tol_u']:g}", res_u <= tol["tol_u"])
    if state.d0_certified:
        cert = max(v for _, v in state.d0_certified)
        out.add("certified_flat_residual", cert, f"<= {tol['tol_rho']:g}",
                cert <= tol["tol_rho"])

    rep = mfg.mfg_residual_report(state)
    out.add("audit_ok", float(rep.ok), "== 1", rep.ok)

    _write_field(outdir, "value_initial.csv", state.u_traj.fields[0])
    _write_field(outdir, "density_final.csv", state.rho_traj.final)
    _write_json(outdir, "mfg_report.json", rep)
    return out


def _run_metric(cfg: dict, data: dict, outdir: str, seed: int, group) -> RunOutcome:
    """Flat-distance closed forms, metric axioms, and time regularity."""
    from .flat_metric import (DiscreteMeasure, axiom_gaps, flat_distance, holder_in_time,
                              two_dirac_distance)

    out = RunOutcome()
    dyn, tol = cfg["dynamics"], cfg["tolerances"]
    rng = np.random.default_rng(seed)

    form_err = 0.0
    pair_log = []
    for x, y in rng.normal(size=(4, 2, 3)):
        got = flat_distance(DiscreteMeasure.dirac(x), DiscreteMeasure.dirac(y), group).value
        form_err = max(form_err, abs(got - two_dirac_distance(group, x, y)))
        pair_log.append({"distance": got, "gauge_separation": float(quasi_distance(group, x, y))})
    out.add("two_dirac_closed_form_error", form_err, f"<= {tol['metric']:g}",
            form_err <= tol["metric"])

    tri_worst, sym_worst = axiom_gaps(group, rng, 20)
    out.add("triangle_worst_violation", tri_worst, f"<= {tol['metric']:g}",
            tri_worst <= tol["metric"])
    out.add("symmetry_worst_gap", sym_worst, f"<= {tol['metric']:g}",
            sym_worst <= tol["metric"])

    traj = fp.fp_solve(data["datum"], fp.DriftField.none(), dyn["sigma"], dyn["t_end"],
                       group, store_every=1)
    hold = holder_in_time(traj, group)
    out.add("time_regularity_exponent", hold.exponent, ">= 0.4",
            hold.verdict == "fitted" and hold.exponent >= 0.4)

    _write_json(outdir, "metric_report.json", {
        "dirac_pairs": pair_log,
        "triangle_worst_violation": tri_worst,
        "symmetry_worst_gap": sym_worst,
        "holder": hold,
    })
    return out


RUNNERS = {
    "heat": _run_heat,
    "fp": _run_fp,
    "hj": _run_hj,
    "duality": _run_duality,
    "mfg": _run_mfg,
    "metric": _run_metric,
}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _bundled_dir():
    return resources.files("carnotlab").joinpath("configs")


def bundled_configs() -> list[str]:
    return sorted(p.name for p in _bundled_dir().iterdir() if p.name.endswith(".cfg"))


def resolve_config(arg: str) -> str | None:
    """A filesystem path, or the name of a bundled config ('heat_decay'
    and 'heat_decay.cfg' both work)."""
    if os.path.exists(arg):
        return arg
    name = arg if arg.endswith(".cfg") else arg + ".cfg"
    candidate = _bundled_dir().joinpath(name)
    if candidate.is_file():
        return str(candidate)
    return None


def _unique_outdir(parent: str, stem: str) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    base = os.path.join(parent, f"{stem}-{stamp}")
    path, k = base, 1
    while True:
        try:
            os.makedirs(path, exist_ok=False)
            return path
        except FileExistsError:
            k += 1
            path = f"{base}-{k}"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(outdir: str, **fields) -> None:
    """manifest.json: fields, the hash of every file in outdir and the package stamp.

    Written last, so its artifacts are exactly the directory's other files.
    """
    _write_json(outdir, "manifest.json", {
        **fields,
        "artifacts": {name: _sha256(os.path.join(outdir, name))
                      for name in sorted(os.listdir(outdir))},
        "package": {"name": "carnotlab", "version": __version__},
    })


def execute_run(config_path: str, parent_dir: str, seed_override: int | None) -> tuple[int, str, str]:
    """Run one scenario end to end.

    Returns (exit code, output directory, printable summary).  All
    artifact bytes depend only on the config and the effective seed.
    """
    cfg, errors = load_config(config_path)
    if errors:
        return EXIT_CONFIG, "", "\n".join(errors)

    seed = cfg["run"]["seed"] if seed_override is None else seed_override
    kind = cfg["scenario"]["kind"]
    group = preset(cfg["scenario"]["group"])
    stem = os.path.splitext(os.path.basename(config_path))[0]
    # the coupled kind loads its solver, and the metric kind the LP, before any output exists
    if kind == "mfg":
        from . import mfg  # noqa: F401
    elif kind == "metric":
        from . import flat_metric  # noqa: F401
    try:
        data = _scenario_data(cfg, group)
    except ValueError as exc:
        where = config_path
        if isinstance(exc, DatumError):
            with open(config_path, encoding="utf-8") as fh:
                where += f":{_line_of(fh.read(), 'data', 'amplitude')}"
        return EXIT_CONFIG, "", f"{where}: cannot build the scenario data: {exc}"
    outdir = _unique_outdir(parent_dir, stem)

    try:
        outcome = RUNNERS[kind](cfg, data, outdir, seed, group)
    except (CFLViolation, hj.DivergenceError) as exc:
        # a solver stop is a non-convergence verdict over what was written
        outcome = RunOutcome()
        outcome.nonconverged = True
        outcome.notes.append(f"solver stopped: {exc}")
    code = outcome.exit_code

    verdicts = {
        EXIT_OK: "pass",
        EXIT_INVARIANT: "invariant failure",
        EXIT_NO_CONVERGENCE: "no convergence",
    }
    lines = [f"scenario {stem} (kind {kind}, seed {seed}): {verdicts[code]}"]
    summary = "\n".join(lines + summary_rows(outcome.checks, outcome.notes))

    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summary + "\n")

    _write_manifest(outdir, config=cfg,
                    config_name=os.path.basename(config_path), kind=kind, seed=seed,
                    exit_code=code, checks=outcome.checks, notes=outcome.notes)
    return code, outdir, summary


def _map_jobs(fn, items: list, jobs: int) -> list:
    """[fn(x) for x in items], run in min(jobs, len(items)) worker processes when that exceeds 1."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _cmd_run(args) -> int:
    parent = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "runs"
    paths = []
    for arg in args.configs:
        resolved = resolve_config(arg)
        if resolved is None:
            names = ", ".join(bundled_configs())
            print(f"no such config: {arg} (bundled: {names})", file=sys.stderr)
            return EXIT_CONFIG
        paths.append(resolved)

    results = _map_jobs(partial(execute_run, parent_dir=parent, seed_override=args.seed),
                        paths, args.jobs)

    worst = EXIT_OK
    for code, outdir, summary in results:
        stream = sys.stderr if code == EXIT_CONFIG else sys.stdout
        print(summary, file=stream)
        if outdir:
            print(f"  outputs: {outdir}", file=stream)
        worst = max(worst, code)
    return worst


def _cmd_verify(args) -> int:
    from . import verify

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    try:
        results = _map_jobs(verify.run_suite, names, args.jobs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG

    for res in results:
        print("\n".join(res.summary_lines()))

    parent = args.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    if parent:
        # serialize first: a report that cannot be written leaves no directory
        texts = {f"suite_{res.suite}.json": json_text(res.to_json_dict()) for res in results}
        outdir = _unique_outdir(parent, "verify-" + args.suite)
        for name, text in texts.items():
            with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        _write_manifest(outdir, suites=[r.suite for r in results],
                        passed=all(r.passed for r in results))
        print(f"outputs: {outdir}")

    return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage errors; report them on the config exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="carnotlab",
        description="Scenario runner and verification suites for subelliptic "
                    "diffusion, transport, and mean-field coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run scenario configs")
    p_run.add_argument("configs", nargs="+", metavar="config",
                       help="config file path or bundled config name")
    p_run.add_argument("--jobs", type=_as_int_min(1), default=1,
                       help="worker processes across the scenarios, at most one per config")
    p_run.add_argument("--output-dir", default=None,
                       help=f"parent for output directories (or ${OUTPUT_DIR_ENV}; "
                            "default ./runs)")
    p_run.add_argument("--seed", type=_as_int_min(0), default=None,
                       help="override the [run] seed of every config")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", help="suite name, or 'all'")
    p_verify.add_argument("--jobs", type=_as_int_min(1), default=1,
                          help="worker processes across the suites, at most one per suite")
    p_verify.add_argument("--output-dir", default=None,
                          help="also write suite reports under this directory")

    sub.add_parser("schema", help="print the config schema reference")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    print(schema_text())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
