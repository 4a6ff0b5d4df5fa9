"""Checks held to budgets, and the one JSON encoder of every artifact.

``json_text`` writes every JSON file the package produces: run and
verify manifests, reports and field sidecars.  Reports are plain
dataclasses and are passed to it as they are.

Imports no scipy, so ``cli`` can report a run without loading the
verification suites.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass


def _plain(v):
    if is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if hasattr(v, "tolist"):  # numpy arrays and scalars
        return _plain(v.tolist())
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def json_text(value) -> str:
    """Strict JSON of value, with sorted keys, indented by 2, ending in one newline.

    A dataclass is written as its fields, a tuple or array as a list and a
    non-finite float as null.
    """
    return json.dumps(_plain(value), indent=2, sort_keys=True, allow_nan=False) + "\n"


@dataclass(frozen=True)
class Check:
    """One measured quantity with its budget and verdict."""

    name: str
    value: float
    budget: str
    ok: bool

    def __post_init__(self) -> None:
        # suites measure with numpy; a report holds plain JSON-able scalars
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "ok", bool(self.ok))


def summary_rows(checks, notes) -> list[str]:
    """One printable row per check, then one per note."""
    rows = [f"  [{'ok' if c.ok else 'FAIL'}] {c.name} = {c.value:.6g}  (budget {c.budget})"
            for c in checks]
    return rows + [f"  note: {n}" for n in notes]


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[Check, ...]
    elapsed: float
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary_lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        head = f"{self.suite}: {verdict} ({len(self.checks)} checks, {self.elapsed:.1f}s)"
        return [head] + summary_rows(self.checks, self.notes)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}
