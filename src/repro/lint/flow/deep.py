"""Deep-mode orchestrator: load project → call graph → analyzers.

``run_deep`` is what ``repro lint --deep`` executes after the syntactic
pass.  It builds the whole-program view once and feeds it to the three
interprocedural analyzers; their findings pass through the same
suppression directives as syntactic ones, so a reviewed
``# repro-lint: disable=R103`` works identically at both depths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.flow import pairing, parallel, taint
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.project import load_project

#: id → (title, rationale) for reporters and ``--list-rules``.
FLOW_RULES: Dict[str, Tuple[str, str]] = {
    taint.RULE_ID: (
        "determinism-taint",
        "no nondeterministic value may flow into block hashes, "
        "detection rows, checkpoints, or bench JSON"),
    pairing.RULE_ID: (
        "fast-path-pairing",
        "every @fast_path keeps a live same-module reference, "
        "equivalence coverage, and toggle-respecting call sites"),
    parallel.RULE_ID: (
        "parallel-safety",
        "code reachable from the chunk engine must not write "
        "module-level state or submit unpicklable callables"),
}


@dataclass
class DeepReport:
    """Findings plus the run metadata CI surfaces."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0
    functions: int = 0
    edges: int = 0
    elapsed_s: float = 0.0

    def stats_line(self) -> str:
        return (f"deep-lint: {self.modules} modules, "
                f"{self.functions} functions, {self.edges} call "
                f"edges, {self.elapsed_s:.2f}s")


def run_deep(paths: Iterable[Path], config: LintConfig,
             tests_root: Optional[str] = None) -> DeepReport:
    started = time.perf_counter()  # repro-lint: disable=R002
    report = DeepReport()
    project = load_project(paths, config)
    graph = build_call_graph(project)
    report.modules = len(project.modules)
    report.functions = len(project.functions)
    report.edges = sum(len(edges)
                       for edges in graph.edges.values())

    pairing_options = dict(config.options_for(pairing.RULE_ID))
    if tests_root is not None:
        pairing_options["tests-root"] = tests_root
    raw: List[Finding] = []
    raw.extend(taint.analyze(project, graph,
                             config.options_for(taint.RULE_ID)))
    raw.extend(pairing.analyze(project, pairing_options))
    raw.extend(parallel.analyze(project, graph,
                                config.options_for(parallel.RULE_ID)))

    for finding in raw:
        index = project.suppressions.get(finding.path)
        if index is not None and \
                index.is_suppressed(finding.rule_id, finding.line):
            continue
        report.findings.append(finding)
    report.findings.sort(key=Finding.sort_key)
    report.elapsed_s = \
        time.perf_counter() - started  # repro-lint: disable=R002
    return report
