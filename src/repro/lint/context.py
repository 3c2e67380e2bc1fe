"""Per-module lint context shared by every rule.

A :class:`ModuleContext` bundles everything a rule needs to inspect one
file: the parsed AST, the dotted module name (so layer rules can reason
about package membership), and a finding factory that stamps path/line
automatically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.lint.config import LintConfig
from repro.lint.findings import ERROR, Finding
from repro.lint.suppress import SuppressionIndex


def module_name_for(path: Path,
                    src_root: Optional[Path] = None) -> str:
    """Dotted module name for ``path``.

    If ``src_root`` is known, the name is the path relative to it.  As a
    fallback, parent directories containing ``__init__.py`` are treated
    as enclosing packages — this makes fixture trees in tests resolve
    without a ``src/`` layout.
    """
    resolved = path.resolve()
    if src_root is not None:
        try:
            relative = resolved.relative_to(src_root.resolve())
        except ValueError:
            relative = None
        if relative is not None:
            parts = list(relative.with_suffix("").parts)
            if parts and parts[-1] == "__init__":
                parts.pop()
            return ".".join(parts)
    parts = [resolved.with_suffix("").name]
    if parts == ["__init__"]:
        parts = []
    directory = resolved.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        directory = directory.parent
    return ".".join(parts)


def find_src_root(path: Path) -> Optional[Path]:
    """Nearest ancestor directory that is a package import root.

    Walks upward from ``path`` until the parent directory no longer
    contains ``__init__.py``; that parent is where ``import repro``
    would resolve from.
    """
    directory = path.resolve()
    if directory.is_file():
        directory = directory.parent
    if not (directory / "__init__.py").is_file():
        return directory
    while (directory / "__init__.py").is_file():
        directory = directory.parent
    return directory


@dataclass
class ModuleContext:
    """One file under analysis."""

    path: Path
    display_path: str
    module: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    config: LintConfig
    findings: List[Finding] = field(default_factory=list)

    def in_package(self, *packages: str) -> bool:
        """True when this module lives in any of the dotted packages."""
        for package in packages:
            if self.module == package or \
                    self.module.startswith(package + "."):
                return True
        return False

    def finding(self, node: ast.AST, rule_id: str, message: str,
                severity: str = ERROR) -> Finding:
        return Finding(path=self.display_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule_id=rule_id, severity=severity,
                       message=message)
