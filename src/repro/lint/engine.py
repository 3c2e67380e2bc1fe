"""Lint engine: walk paths, parse modules, run rules, filter suppressions.

The engine is deliberately import-free with respect to the code under
analysis — everything is AST-level, so linting cannot execute simulator
code or be confused by import-time side effects.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from repro.lint.config import LintConfig
from repro.lint.context import (
    ModuleContext,
    find_src_root,
    module_name_for,
)
from repro.lint.findings import ERROR, Finding
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.project import Project
from repro.lint.registry import ProjectRule, Rule, make_rules
from repro.lint.suppress import build_index, extend_index

#: Rule id used for files that fail to parse at all.
PARSE_RULE_ID = "E000"

#: Directories never worth descending into.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".svn", ".tox", ".venv",
              "venv", "node_modules", ".mypy_cache", ".pytest_cache"}


def iter_python_files(paths: Iterable[Path],
                      config: LintConfig) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths``, honouring excludes."""
    seen = set()
    for path in paths:
        if path.is_file():
            candidates: Iterable[Path] = [path]
        elif path.is_dir():
            collected = []
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in _SKIP_DIRS)
                collected.extend(Path(root) / name
                                 for name in sorted(files)
                                 if name.endswith(".py"))
            candidates = collected
        else:
            continue
        for candidate in candidates:
            if not candidate.name.endswith(".py"):
                continue
            resolved = candidate.resolve()
            if resolved in seen or config.is_excluded(candidate):
                continue
            seen.add(resolved)
            yield candidate


def lint_source(source: str, path: Path, config: LintConfig,
                rules: List[Rule], src_root: Optional[Path] = None,
                display_path: Optional[str] = None,
                module: Optional[str] = None) -> List[Finding]:
    """Lint in-memory source with per-module rules (the unit tests'
    entrypoint).

    ``module`` overrides dotted-name derivation so fixture snippets can
    pose as e.g. ``repro.chain.fixture`` without living under ``src/``.
    """
    display = display_path if display_path is not None else str(path)
    if src_root is None:
        src_root = find_src_root(path)
    ctx = _parse(source, path, config, src_root, display, module)
    if isinstance(ctx, Finding):
        return [ctx]
    return _check(ctx, rules)


def _parse(source: str, path: Path, config: LintConfig,
           src_root: Optional[Path], display: str,
           module: Optional[str] = None) -> Union[ModuleContext, Finding]:
    """One module's context, or the E000 finding when it does not parse."""
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return Finding(path=display, line=exc.lineno or 1,
                       rule_id=PARSE_RULE_ID, severity=ERROR,
                       message=f"syntax error: {exc.msg}")
    if module is None:
        module = module_name_for(path, src_root)
    return ModuleContext(
        path=path, display_path=display, module=module, source=source,
        tree=tree, suppressions=extend_index(build_index(source), tree),
        config=config)


def _check(ctx: ModuleContext, rules: List[Rule]) -> List[Finding]:
    return [finding for rule in rules for finding in rule.check(ctx)
            if not ctx.suppressions.is_suppressed(finding.rule_id,
                                                  finding.line)]


def lint_paths(paths: Iterable[Path],
               config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint every python file under ``paths`` and return sorted findings.

    One pass: each file is read, parsed and suppression-indexed once.
    The per-module rules check that tree; when a project rule is
    enabled, the same tree and index also go into one
    :class:`~repro.lint.flow.project.Project`, whose call graph is
    resolved once after the walk.
    """
    config = config if config is not None else LintConfig()
    rules = make_rules(config.enable, config.options_for)
    project_rules = [rule for rule in rules
                     if isinstance(rule, ProjectRule)]
    project = Project() if project_rules else None
    findings: List[Finding] = []
    for path in iter_python_files(list(paths), config):
        display = _display_path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(Finding(path=display, line=1,
                                    rule_id=PARSE_RULE_ID,
                                    severity=ERROR,
                                    message=f"cannot read file: {exc}"))
            continue
        ctx = _parse(source, path, config, find_src_root(path), display)
        if isinstance(ctx, Finding):
            findings.append(ctx)
            continue
        findings.extend(_check(ctx, rules))
        if project is not None:
            project.add(ctx.module, display, ctx.tree, ctx.suppressions)
    if project is not None:
        project.build_indexes()
        graph = build_call_graph(project)
        for rule in project_rules:
            for finding in rule.check_project(project, graph):
                index = project.suppressions.get(finding.path)
                if index is None or not index.is_suppressed(
                        finding.rule_id, finding.line):
                    findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def _display_path(path: Path) -> str:
    """Relative to cwd when possible — keeps reports and CI logs short."""
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)
