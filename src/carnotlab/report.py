"""Checks held to budgets: the rows of run manifests and suite reports.

Imports neither sympy nor scipy, so ``cli`` can report a run without
loading the verification suites.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


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

    def to_json_dict(self) -> dict:
        return asdict(self)


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
