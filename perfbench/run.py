"""Benchmark for carnotlab: time to a checked solution, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Every pass runs in a fresh interpreter
(``worker.py``) with OMP, OpenBLAS and MKL pinned to one thread, one
pass at a time, so module caches start empty as they do for a
command-line user.

Workloads (inputs come from ``--seed``; seed 0 is the bundled data):

* ``mfg_coupled``: the bundled ``mfg_small_T`` scenario (21^3 grid,
  eps 0.8, T 0.1, theta 0.5) through ``carnotlab.cli.execute_run``.
  The only workload that mollifies and runs Picard sweeps.
* ``transport_41``: ``fp_solve`` (constant drift), ``hj_solve`` and
  ``heat.evolve`` on the 41^3 box.  Stepping only.
* ``oracle_lp``: the two ``particle_oracle`` suite cases (zero drift,
  drift (0.2, 0.1)): one 21^3 ``fp_solve`` per case, then for each of
  two particle seeds a 100 000-particle block and one flat-distance LP.

``--trace 0`` makes untraced passes until ``--seconds`` have passed
(at least two), plus three set-up-only passes, and reports ``solve_s``
(first solver call to the checked verdict), ``setup_s`` (interpreter
start, imports and data construction up to the first solver call) and
``peak_rss_mb`` (peak resident memory of a pass) as medians.  ``--trace 1`` alternates
untraced and traced passes of the same inputs and reports the per-layer
metrics of the traced passes (medians).  Either way every pass checks
its outputs, and all passes of a run must produce bit-identical
outputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the machine, library versions, inputs and per-pass samples.
``attempted`` and ``failed`` count the invariant checks of every full
pass (a pass that raises fails all of its checks); they measure the
program, and ``check_fail_ratio`` reports their ratio under tracing.
``correct`` says whether the measurement itself holds: every pass ran
to completion, all passes of the same inputs gave bit-identical
outputs, traced passes included, and the tracer restored every binding.
Exit code 1 when it does not; 2 when the checkout has no
``src/carnotlab``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_PARENT = os.path.join(ROOT, ".perfbench_work")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PASSES = 3
MIN_FULL_PASSES = 2
PASS_TIMEOUT_S = 170.0

# invariant checks one full pass makes; a pass that raises fails them all
CHECKS_PER_PASS = {"mfg_coupled": 4, "transport_41": 5, "oracle_lp": 4}


def make_inputs(workload: str, seed: int, tiny: bool) -> dict:
    """Everything the program receives, generated from the seed.

    The datum centre moves by a sub-cell offset, uniform within half a
    grid spacing on every axis, so the datum no longer sits on the
    lattice's symmetric point; seed 0 keeps it at the origin.
    """
    rng = random.Random(f"{workload}/{seed}")

    def centre(spacing: float) -> list[float]:
        offsets = [rng.uniform(-spacing / 2, spacing / 2) for _ in range(3)]
        return [0.0, 0.0, 0.0] if seed == 0 else offsets

    if workload == "mfg_coupled":
        out = {"center": centre(4.0 / 20)}
        if tiny:
            out["overrides"] = [["grid", "nodes", 11], ["dynamics", "eps", 1.25],
                                ["dynamics", "t_end", 0.02]]
        return out
    if workload == "transport_41":
        nodes = 21 if tiny else 41
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return {
            "nodes": nodes,
            "center": centre(4.0 / (nodes - 1)),
            "drift": [0.3 * math.cos(phi), 0.3 * math.sin(phi)],
            "t_end": [0.05, 0.03, 0.05] if tiny else [0.5, 0.3, 0.5],
        }
    if workload == "oracle_lp":
        nodes = 11 if tiny else 21
        return {
            "nodes": nodes,
            "center": centre(4.0 / (nodes - 1)),
            "particles": 8192 if tiny else 100_000,
            # two particle seeds per drift case average out how many LP
            # rounds one particle sample happens to need (4 or 5)
            "particle_seeds": ([424242] if seed == 0 else [rng.randrange(2**31)])
                              + [rng.randrange(2**31)],
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# per-layer metrics, taken from the traced passes
# ---------------------------------------------------------------------------

# "<layer>.<field>": unit; the field is one of worker.layer_report's
LAYER_FIELDS = {
    "flat_metric.mollify.calls": "count",
    "flat_metric.mollify.self_s": "s",
    "flat_metric.mollify.offset_passes": "count",
    "flat_metric.MollifierSpec.build.self_s": "s",
    "mfg.mfg_picard.sweeps": "count",
    "mfg.mfg_picard.self_s": "s",
    "mfg.coupling_eval.calls": "count",
    "mfg.mfg_residual_report.self_s": "s",
    "stencils.flux_divergence.calls": "count",
    "stencils.flux_divergence.self_s": "s",
    "stencils.flux_divergence.node_updates": "count",
    "grid.max_stable_dt.calls": "count",
    "grid.max_stable_dt.self_s": "s",
    "groups.eval_poly.calls": "count",
    "groups.eval_poly.self_s": "s",
    "vfields.left_invariant_fields.calls": "count",
    "vfields.horizontal_gradient.self_s": "s",
    "hamilton_jacobi.godunov_gradient.self_s": "s",
    "hamilton_jacobi.feedback_drift.self_s": "s",
    "hamilton_jacobi.hj_step_direct.calls": "count",
    "fokker_planck.fp_step.calls": "count",
    "heat.evolve.self_s": "s",
    "flat_metric.flat_distance.calls": "count",
    "flat_metric.flat_distance.self_s": "s",
    "flat_metric.flat_distance.lp_rounds": "count",
    "flat_metric.flat_distance.support_points": "count",
    "flat_metric.flat_distance.not_optimal": "count",
    "groups.quasi_distance.self_s": "s",
    "groups.multiply.self_s": "s",
    "groups.hom_norm.self_s": "s",
    "fokker_planck.particle_oracle.self_s": "s",
    "grid.dump_field_csv.self_s": "s",
    "grid.dump_field_csv.bytes": "bytes",
}


def _field(rec: dict, name: str) -> float:
    label, field = name.rsplit(".", 1)
    return rec["layers"][label].get(field, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name: (unit, value from one traced pass record)
PER_LAYER = {
    **{name: (unit, lambda r, n=name: _field(r, n)) for name, unit in LAYER_FIELDS.items()},
    "grid.max_stable_dt.per_step": ("ratio", lambda r: _ratio(
        _field(r, "grid.max_stable_dt.calls"), _field(r, "stencils.flux_divergence.calls"))),
    "fokker_planck.particle_oracle.particles_per_s": ("1/s", lambda r: _ratio(
        _field(r, "fokker_planck.particle_oracle.particles"),
        _field(r, "fokker_planck.particle_oracle.self_s"))),
    "trace.solve_s": ("s", lambda r: r["solve_s"]),
}
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def environment() -> dict:
    import importlib.metadata as md

    def version(dist: str) -> str:
        try:
            return md.version(dist)
        except md.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **{lib: version(lib) for lib in ("numpy", "scipy", "sympy")},
        "threads": {v: "1" for v in THREAD_VARS},
    }


def run_pass(workload: str, mode: str, trace: int, inputs: dict, work: str,
             deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({v: "1" for v in THREAD_VARS})
    passdir = tempfile.mkdtemp(dir=work)
    timeout = max(1.0, min(PASS_TIMEOUT_S, deadline - time.monotonic()))
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, mode,
           str(trace), repr(t_spawn), passdir, json.dumps(inputs)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} pass failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    inputs = make_inputs(workload, seed, tiny)
    os.makedirs(WORK_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_PARENT)
    t0 = time.monotonic()
    deadline = t0 + PASS_TIMEOUT_S
    full: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    try:
        def full_pass(trace_flag: int) -> dict | None:
            nonlocal attempted, failed
            n = CHECKS_PER_PASS[workload]
            try:
                rec = run_pass(workload, "full", trace_flag, inputs, work, deadline)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                attempted += n
                failed += n
                problems.append(str(exc))
                return None
            attempted += len(rec["checks"])
            bad = [name for name, ok in rec["checks"] if not ok]
            failed += len(bad)
            if bad:
                print(f"checks failed: {', '.join(bad)}", file=sys.stderr)
            return rec

        if trace:
            while not traced or time.monotonic() - t0 < seconds:
                plain, rec = full_pass(0), full_pass(1)
                if plain is None or rec is None:
                    break
                full.append(plain)
                traced.append(rec)
                if rec["leftover_wrappers"]:
                    problems.append(f"tracer left wrappers: {rec['leftover_wrappers']}")
        else:
            for _ in range(SETUP_PASSES):
                try:
                    setups.append(run_pass(workload, "setup", 0, inputs, work, deadline)["setup_s"])
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    problems.append(str(exc))
                    break
            while not problems and (len(full) < MIN_FULL_PASSES
                                    or time.monotonic() - t0 < seconds):
                rec = full_pass(0)
                if rec is None:
                    break
                full.append(rec)
                setups.append(rec["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_PARENT)
        except OSError:
            pass

    digests = {r["digest"] for r in full + traced}
    if len(digests) > 1:
        problems.append("outputs differ between passes of the same inputs"
                        + (" (traced vs untraced)" if trace else ""))
    samples = {"solve_s": [r["solve_s"] for r in full],
               "traced_solve_s": [r["solve_s"] for r in traced]}
    if trace:
        if traced:
            metrics = {name: {"value": statistics.median(f(r) for r in traced), "unit": unit}
                       for name, (unit, f) in PER_LAYER.items()}
            overhead = (statistics.median(r["solve_s"] for r in traced)
                        - statistics.median(r["solve_s"] for r in full))
        else:
            metrics, overhead = {}, 0.0
        # whole-run metrics: traced minus untraced solve_s, failed / attempted
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["check_fail_ratio"] = {"value": _ratio(failed, attempted), "unit": "ratio"}
    else:
        metrics = {}
        if full:
            for name, unit in END_TO_END.items():
                samples[name] = setups if name == "setup_s" else [r[name] for r in full]
                metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    return {
        "correct": not problems and bool(full),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "inputs": inputs,
        "samples": samples,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CHECKS_PER_PASS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to a smoke-test size")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "carnotlab")):
        print(f"no carnotlab sources under {SRC}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    for problem in result.pop("problems"):
        print(problem, file=sys.stderr)
    print(json.dumps({"environment": environment(), "seed": args.seed,
                      "inputs": result.pop("inputs"), "samples": result.pop("samples")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
