"""Verification reports: deterministic, JSON-serializable check bundles.

Reports never embed timestamps or machine state; wall_time stays null unless
a caller explicitly fills it, so identical runs serialize byte-identically.
`VerificationReport.to_json` writes exactly the bytes of
json.dumps(obj, indent=2, sort_keys=True) with its own one-pass encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf as INF

TOOL_NAME = "hecke-kit"
TOOL_VERSION = "0.1.0"

__all__ = ["TOOL_NAME", "TOOL_VERSION", "CheckResult", "VerificationReport"]


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _atom(o) -> str | None:
    """json's text of None, a bool, an int or a float; None for other values."""
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == INF or o == -INF:
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    return None


def _encode(o, indent: str, out: list) -> None:
    """Append json.dumps(o, indent=2, sort_keys=True) to out, o nested at indent.

    json.dumps with an indent always runs json's pure-Python generator
    encoder.  This one recursive pass writes the same bytes: strings go
    through json's own ASCII escaper, and dict keys are sorted first and
    then converted as json converts them.  A container writes its string,
    bool and None members itself, the most common values of a report.
    """
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for k, v in sorted(o.items()):
            key = k if isinstance(k, str) else _atom(k)
            if key is None:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {k.__class__.__name__}")
            head = sep + _encode_str(key) + ": "
            if isinstance(v, str):
                out.append(head + _encode_str(v))
            elif v is None or v is True or v is False:
                out.append(head + _CONSTANTS[v])
            else:
                out.append(head)
                _encode(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(o, str):
        out.append(_encode_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for v in o:
            if isinstance(v, str):
                out.append(sep + _encode_str(v))
            else:
                out.append(sep)
                _encode(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif (text := _atom(o)) is not None:
        out.append(text)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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
        out = []
        _encode(self.to_json_obj(), "", out)
        out.append("\n")
        return "".join(out)

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
