"""Verification reports: deterministic, JSON-serializable check bundles.

Reports never embed timestamps or machine state; wall_time stays null unless
a caller explicitly fills it, so identical runs serialize byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

TOOL_NAME = "hecke-kit"
TOOL_VERSION = "0.1.0"

__all__ = ["TOOL_NAME", "TOOL_VERSION", "CheckResult", "VerificationReport"]


def _residual_str(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return str(Fraction(value))


@dataclass
class CheckResult:
    name: str
    ok: bool
    residual: str | None = None
    detail: dict | None = None

    def to_json_obj(self) -> dict:
        obj = {"name": self.name, "ok": self.ok}
        if self.residual is not None:
            obj["residual"] = self.residual
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


@dataclass
class VerificationReport:
    title: str
    instance: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    seed: int | None = None
    wall_time: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name, ok, detail=None):
        self.checks.append(CheckResult(name=name, ok=bool(ok), detail=detail))

    def add_residual(self, name, residual, detail=None):
        """A check that passes exactly when its residual is zero."""
        self.checks.append(CheckResult(name=name, ok=residual == 0,
                                       residual=_residual_str(residual), detail=detail))

    def extend(self, other: "VerificationReport", prefix: str = ""):
        for c in other.checks:
            self.checks.append(
                CheckResult(name=prefix + c.name, ok=c.ok, residual=c.residual, detail=c.detail)
            )

    def to_json_obj(self) -> dict:
        return {
            "title": self.title,
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "seed": self.seed,
            "instance": self.instance,
            "checks": [c.to_json_obj() for c in self.checks],
            "passed": self.passed,
            "wall_time": self.wall_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = [f"== {self.title} =="]
        for key in sorted(self.instance):
            lines.append(f"   {key}: {self.instance[key]}")
        for c in self.checks:
            mark = "PASS" if c.ok else "FAIL"
            tail = ""
            if not c.ok and c.residual is not None:
                tail = f" (residual={c.residual})"
            lines.append(f"[{mark}] {c.name}{tail}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
