"""The :class:`Finding` record every lint rule emits.

A finding pins a rule violation to a file and line so reporters (and CI
logs) can point straight at the offending expression.  Findings are plain
data: rules produce them, the engine filters suppressed ones, reporters
render them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: Severity levels, ordered from most to least severe.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # file path as given to the engine (relative preferred)
    line: int  # 1-based line of the offending node
    rule_id: str  # e.g. "R001"
    severity: str = ERROR
    message: str = ""
    col: int = field(default=0, compare=False)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-reporter representation (stable key order)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: R00X severity: message`` (clickable in most
        terminals and CI logs)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.severity}: {self.message}")

