"""One measured pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per pass, so module caches start empty
as they do for a command-line user:

    python3 perfbench/worker.py WORKLOAD MODE TRACE T_SPAWN WORKDIR INPUTS_JSON

MODE is ``full`` (set up, solve, check) or ``setup`` (stop at the first
solver call).  TRACE 1 wraps every layer in ``TARGETS``.  T_SPAWN is the
``time.monotonic()`` reading taken by the parent just before the
interpreter started (the clock is system-wide), so set-up time covers
interpreter start and ``import carnotlab``.  The pass prints one JSON
record as the last line of standard output.

The workloads call carnotlab's public functions only, with the inputs
the parent generated from the seed; no seed reaches the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

from layertrace import Tracer

WORKLOADS = {}


class SetupDone(Exception):
    """Raised at the first solver call of a set-up-only pass."""


class Clock:
    """Set-up ends at the first solver call; the solve ends at the checked verdict."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.t_mark: float | None = None
        self.t_stop: float | None = None

    def mark(self) -> None:
        if self.t_mark is None:
            self.t_mark = time.monotonic()
            if self.setup_only:
                raise SetupDone

    def stop(self) -> None:
        self.t_stop = time.monotonic()


def workload(fn):
    WORKLOADS[fn.__name__] = fn
    return fn


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads: each imports what it needs and returns run(clock, workdir),
# which returns (checks, digest); checks are (name, ok) pairs.  Layer
# functions are called through their module so the tracer sees them.
# ---------------------------------------------------------------------------

def _config_text(cfg: dict) -> str:
    def fmt(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, tuple):
            return " ".join(repr(float(x)) for x in v)
        return repr(v) if isinstance(v, float) else str(v)

    lines = []
    for section, keys in cfg.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {fmt(v)}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


@workload
def mfg_coupled(inputs: dict):
    """The bundled mfg_small_T scenario through the CLI's run path."""
    from carnotlab import cli, mfg

    def run(clock: Clock, workdir: str):
        cfg, errors = cli.load_config(cli.resolve_config("mfg_small_T"))
        if errors:
            raise RuntimeError("; ".join(errors))
        cfg["data"]["center"] = tuple(inputs["center"])
        for section, key, value in inputs.get("overrides", ()):
            cfg[section][key] = value
        path = os.path.join(workdir, "mfg_small_T.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_config_text(cfg))

        inner = mfg.mfg_picard

        def first_solver_call(*args, **kwargs):
            clock.mark()
            return inner(*args, **kwargs)

        mfg.mfg_picard = first_solver_call
        try:
            code, outdir, summary = cli.execute_run(path, workdir, None)
        finally:
            mfg.mfg_picard = inner
        if code == cli.EXIT_CONFIG:
            raise RuntimeError(summary)
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        checks = [(c["name"], bool(c["ok"])) for c in manifest["checks"]]
        checks.append(("exit_code", code == cli.EXIT_OK))
        clock.stop()
        return checks, _digest(json.dumps(manifest["artifacts"], sort_keys=True).encode())

    return run


@workload
def transport_41(inputs: dict):
    """Stepping only: fp_solve, hj_solve and heat.evolve on one box."""
    import numpy as np

    from carnotlab import fokker_planck as fp
    from carnotlab import hamilton_jacobi as hj
    from carnotlab import heat
    from carnotlab.grid import bump_field, default_grid
    from carnotlab.groups import preset

    nodes, sigma = inputs["nodes"], 0.25
    t_fp, t_hj, t_heat = inputs["t_end"]

    def run(clock: Clock, workdir: str):
        G = preset("heisenberg1")
        grid = default_grid(2.0, nodes)
        c = inputs["center"]
        rho0 = bump_field(grid, G, center=c, radius=1.0, normalize=True)
        spec = hj.HamiltonianSpec(u0=bump_field(grid, G, center=c, radius=1.2), gamma=2.0)
        f0 = bump_field(grid, G, center=c, radius=1.0)
        drift = fp.DriftField.constant(inputs["drift"])

        clock.mark()
        traj = fp.fp_solve(rho0, drift, sigma, t_fp, G, store_every=10)
        value = hj.hj_solve(spec, sigma, t_hj, G, store_every=10)
        f_end = heat.evolve(f0, sigma, t_heat, G)

        masses = [f.integral() for f in traj.fields]
        sup0 = rho0.sup_norm()
        peak = max(float(f.values.max()) for f in traj.fields)
        checks = [
            ("fp_mass_drift", max(abs(m - masses[0]) for m in masses) <= 1e-8),
            ("fp_sup_excess", peak / sup0 - 1.0 <= 1e-3),
            ("fp_final_floor", float(traj.final.values.min()) >= -1e-3 * sup0),
            ("hj_sup_bounds", hj.sup_bounds_report(value, spec).ok),
            ("heat_sup_excess", f_end.sup_norm() / f0.sup_norm() - 1.0 <= 1e-3),
        ]
        clock.stop()
        finals = (traj.final.values, value.final.values, f_end.values)
        return checks, _digest(*(np.ascontiguousarray(v).tobytes() for v in finals))

    return run


@workload
def oracle_lp(inputs: dict):
    """Particle law against the grid solution, compared by the flat-distance LP."""
    import numpy as np

    from carnotlab import flat_metric
    from carnotlab import fokker_planck as fp
    from carnotlab.grid import bump_field, default_grid
    from carnotlab.groups import preset

    sigma, t_end = 0.25, 0.5
    to_measure = flat_metric.DiscreteMeasure.from_field

    def run(clock: Clock, workdir: str):
        G = preset("heisenberg1")
        grid = default_grid(2.0, inputs["nodes"])
        rho0 = bump_field(grid, G, center=inputs["center"], radius=0.8, normalize=True)
        drifts = [fp.DriftField.none(), fp.DriftField.constant((0.2, 0.1))]

        clock.mark()
        checks, chunks = [], []
        for tag, drift in zip(("zero_drift", "constant_drift"), drifts):
            pde = fp.fp_solve(rho0, drift, sigma, t_end, G, store_every=10**9).final
            nu = to_measure(pde, coarsen=2)
            chunks.append(pde.values.tobytes())
            for k, particle_seed in enumerate(inputs["particle_seeds"]):
                emp = fp.particle_oracle(rho0, drift, sigma, t_end, G,
                                         n_particles=inputs["particles"],
                                         seed=particle_seed, jobs=1)
                res = flat_metric.flat_distance(to_measure(emp, coarsen=2), nu, G)
                checks.append((f"d0_{tag}_{k}", res.status == "optimal" and res.value <= 0.05))
                chunks += [emp.values.tobytes(), np.float64(res.value).tobytes()]
        clock.stop()
        return checks, _digest(*chunks)

    return run


# ---------------------------------------------------------------------------
# traced layers and their counters
# ---------------------------------------------------------------------------

def _file_bytes(args, kwargs, result):
    path = os.fspath(args[1] if len(args) > 1 else kwargs["path"])
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


def _lp_counts(args, kwargs, result):
    return {
        "lp_rounds": result.rounds,
        "support_points": result.support.shape[0],
        "not_optimal": int(result.status != "optimal"),
    }


TARGETS = {
    ("carnotlab.flat_metric", "mollify"):
        lambda a, k, r: {"offset_passes": len((a[1] if len(a) > 1 else k["m"]).offsets)},
    ("carnotlab.flat_metric", "MollifierSpec.build"): None,
    ("carnotlab.flat_metric", "flat_distance"): _lp_counts,
    ("carnotlab.mfg", "mfg_picard"): lambda a, k, r: {"sweeps": r.iterations},
    ("carnotlab.mfg", "coupling_eval"): None,
    ("carnotlab.mfg", "mfg_residual_report"): None,
    ("carnotlab._stencils", "flux_divergence"):
        lambda a, k, r: {"node_updates": (a[0] if a else k["values"]).size},
    ("carnotlab.grid", "max_stable_dt"): None,
    ("carnotlab.grid", "dump_field_csv"): _file_bytes,
    ("carnotlab.groups", "eval_poly"): None,
    ("carnotlab.groups", "quasi_distance"): None,
    ("carnotlab.groups", "multiply"): None,
    ("carnotlab.groups", "hom_norm"): None,
    ("carnotlab.vfields", "left_invariant_fields"): None,
    ("carnotlab.vfields", "horizontal_gradient"): None,
    ("carnotlab.hamilton_jacobi", "godunov_gradient"): None,
    ("carnotlab.hamilton_jacobi", "feedback_drift"): None,
    ("carnotlab.hamilton_jacobi", "hj_step_direct"): None,
    ("carnotlab.fokker_planck", "fp_step"): None,
    ("carnotlab.fokker_planck", "particle_oracle"):
        lambda a, k, r: {"particles": k["n_particles"]},
    ("carnotlab.heat", "evolve"): None,
}


def layer_report(tracer: Tracer) -> dict:
    """calls and self_s per traced layer, plus its counters."""
    out = {}
    for module, attr in TARGETS:
        label = tracer.label(module, attr)
        entry = {
            "calls": tracer.calls.get(label, 0),
            "self_s": tracer.self_s.get(label, 0.0),
        }
        for key, val in tracer.counts.items():
            if key.startswith(label + "."):
                entry[key[len(label) + 1:]] = val
        out[label] = entry
    return out


def run_pass(name: str, mode: str, trace: bool, t_spawn: float, workdir: str,
             inputs: dict) -> dict:
    clock = Clock(setup_only=(mode == "setup"))
    run = WORKLOADS[name](inputs)
    tracer = Tracer(TARGETS) if trace else None
    try:
        with tracer or contextlib.nullcontext():
            checks, digest = run(clock, workdir)
    except SetupDone:
        return {"setup_s": clock.t_mark - t_spawn}
    if clock.t_mark is None or clock.t_stop is None:
        raise RuntimeError("workload never reached its first solver call")
    record = dict(
        setup_s=clock.t_mark - t_spawn,
        solve_s=clock.t_stop - clock.t_mark,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checks=checks,
        digest=digest,
    )
    if tracer is not None:
        record["layers"] = layer_report(tracer)
        record["leftover_wrappers"] = tracer.leftover_wrappers()
    return record


def main(argv: list[str]) -> int:
    name, mode, trace, t_spawn, workdir, inputs = argv
    record = run_pass(name, mode, trace == "1", float(t_spawn), workdir, json.loads(inputs))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
