"""Whole-program view: load, summarize, and index every module.

:class:`Project` walks the same file set the per-file engine lints,
parses each module once, and turns it into a
:class:`~repro.lint.flow.summary.ModuleSummary`.  It then exposes the
cross-module indexes the analyzers query:

* ``functions`` — ``"pkg.mod:Class.meth"`` / ``"pkg.mod:func"`` →
  summary (the *qualname* space all call-graph edges live in);
* ``classes`` — class name → list of defining modules;
* ``methods_by_name`` — bare method name → qualnames (the class-
  hierarchy-analysis fallback for unresolvable receivers);
* ``suppressions`` — per display-path suppression index, so deep
  findings honour the same ``# repro-lint: disable=`` directives as
  the syntactic rules.

Unparseable files are *skipped* here, never fatal: the syntactic pass
already reports them as E000, and a broken file cannot contribute
summaries anyway.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.lint.config import LintConfig
from repro.lint.context import find_src_root, module_name_for
from repro.lint.engine import _display_path, iter_python_files
from repro.lint.flow.summary import (
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)
from repro.lint.suppress import (
    SuppressionIndex,
    build_index,
    extend_index,
)


def qualname(module: str, qualkey: str) -> str:
    return f"{module}:{qualkey}"


def split_qualname(name: str) -> tuple:
    module, _, qualkey = name.partition(":")
    return module, qualkey


@dataclass
class Project:
    """Summaries plus the cross-module indexes built over them."""

    modules: Dict[str, ModuleSummary] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, List[str]] = field(default_factory=dict)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    suppressions: Dict[str, SuppressionIndex] = field(
        default_factory=dict)

    def function(self, name: str) -> Optional[FunctionSummary]:
        return self.functions.get(name)

    def class_methods(self, module: str, cls: str) -> List[str]:
        """Qualnames of ``cls``'s methods, own + inherited + overrides.

        Walks base classes (within the project) upward and subclasses
        downward one level of name resolution at a time; the result is
        the conservative dispatch set for a ``self.meth()`` call.
        """
        summary = self.modules.get(module)
        if summary is None or cls not in summary.classes:
            return []
        names: List[str] = []
        seen = set()
        stack = [(module, cls)]
        while stack:
            mod, klass = stack.pop()
            if (mod, klass) in seen:
                continue
            seen.add((mod, klass))
            mod_summary = self.modules.get(mod)
            if mod_summary is None or \
                    klass not in mod_summary.classes:
                continue
            info = mod_summary.classes[klass]
            for method in info["methods"]:
                names.append(qualname(mod, f"{klass}.{method}"))
            for base in info["bases"]:
                for base_mod in self.classes.get(base, []):
                    stack.append((base_mod, base))
        return names

    def subclasses_of(self, cls: str) -> List[tuple]:
        """(module, class) pairs whose bases mention ``cls`` by name."""
        out = []
        for mod, summary in self.modules.items():
            for name, info in summary.classes.items():
                if cls in info["bases"]:
                    out.append((mod, name))
        return out


def load_project(paths: Iterable[Path], config: LintConfig) -> Project:
    """Parse + summarize every python file under ``paths``."""
    project = Project()
    for path in iter_python_files(list(paths), config):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError:
            continue
        src_root = find_src_root(path)
        module = module_name_for(path, src_root)
        display = _display_path(path)
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError:
            continue
        project.modules[module] = summarize_module(module, display, tree)
        index = build_index(source)
        if index.by_line:
            # Structural widening needs the AST.
            index = extend_index(index, tree)
        project.suppressions[display] = index
    _build_indexes(project)
    return project


def _build_indexes(project: Project) -> None:
    for module, summary in project.modules.items():
        for key, fn in summary.functions.items():
            project.functions[qualname(module, key)] = fn
            if "." in key:
                bare = key.split(".", 1)[1]
                project.methods_by_name.setdefault(bare, []).append(
                    qualname(module, key))
        for cls in summary.classes:
            project.classes.setdefault(cls, []).append(module)
