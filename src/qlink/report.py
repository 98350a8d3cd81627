"""
Pass/fail reporting for exact identity checks.

Every verification suite in this package reduces to "this operator (or
polynomial) difference is exactly zero".  A failed check records the residual
size as the number of nonzero entries, which is both a useful debugging
signal and the quantity promised by the CLI's JSON output.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .laurent import Immutable, LaurentPoly
from .tensorop import Operator


class Check(NamedTuple):
    name: str
    passed: bool
    residual: Optional[int] = None  # nonzero entries of the defect, when it failed
    note: Optional[str] = None


class Report(Immutable):
    """A suite's checks; its fields are bound once, and `checks` grows through `add`, `add_bool` and `extend`."""

    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: Optional[list[Check]] = None):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "checks", [] if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: Union[Operator, LaurentPoly], note: Optional[str] = None) -> Check:
        """Record a check that passes iff `residual` is exactly zero."""
        if isinstance(residual, Operator):
            size = residual.nnz()
        else:
            size = len(residual.terms)
        check = Check(name, size == 0, None if size == 0 else size, note)
        self.checks.append(check)
        return check

    def add_bool(self, name: str, passed: bool, note: Optional[str] = None) -> Check:
        check = Check(name, passed, None, note)
        self.checks.append(check)
        return check

    def extend(self, other: Report) -> None:
        self.checks.extend(other.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c._asdict() for c in self.checks],
        }

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.suite}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            extra = "" if c.residual is None else f" residual_nnz={c.residual}"
            note = f" ({c.note})" if c.note else ""
            lines.append(f"  {mark} {c.name}{extra}{note}")
        return "\n".join(lines)
