"""Tiny-size smoke runs of the benchmark, and the tracer's restore contract.

    python3 -m pytest -q perfbench/tests

Every workload runs at ``--tiny`` size with tracing off and on; the
result line must carry exactly the metrics BENCHMARK.json names, each
with its unit.  Check outcomes are not asserted here: the tiny grids sit
outside the budgets the full-size checks are written for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_tracer_restores_every_binding():
    import carnotlab.cli  # noqa: F401  (loads every module that binds a layer)
    from carnotlab import flat_metric, groups, mfg

    before = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "carnotlab" or name.startswith("carnotlab.")
    }
    build = flat_metric.MollifierSpec.__dict__["build"]
    mollify = flat_metric.mollify
    tracer = layertrace.Tracer(worker.TARGETS)
    with tracer:
        # mfg binds mollify by name: the wrapper must reach that binding too
        assert mfg.mollify is flat_metric.mollify is not mollify
        assert mfg.mollify.__wrapped__ is mollify
        G = groups.preset("heisenberg1")
        groups.quasi_distance(G, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    assert tracer.calls["groups.quasi_distance"] == 1
    assert tracer.calls["groups.multiply"] == 1
    assert tracer.leftover_wrappers() == []
    assert flat_metric.MollifierSpec.__dict__["build"] is build
    for name, namespace in before.items():
        mod = sys.modules[name]
        changed = [k for k, v in namespace.items() if vars(mod).get(k) is not v]
        assert changed == [], f"{name}: {changed}"


def test_failed_install_rolls_back():
    from carnotlab import groups

    multiply = groups.multiply
    tracer = layertrace.Tracer({("carnotlab.groups", "multiply"): None,
                                ("carnotlab.groups", "no_such_layer"): None})
    with pytest.raises(AttributeError):
        tracer.install()
    assert groups.multiply is multiply
    assert tracer.leftover_wrappers() == []
