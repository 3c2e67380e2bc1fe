"""R003 — layering: the measurement layer must stay blind to ground truth.

The reproduction's validity argument (paper Section 3; cf. Chi et al.
2024 on auditing heuristic validity) rests on ``repro.core`` detecting
MEV from *observable* chain data only.  If a heuristic imports simulator
or agent internals it can read ground-truth labels and the measured
precision/recall become meaningless.  Similarly the chain substrate must
not import upward into the measurement layer.

Forbidden edges (importer package → imported package)::

    repro.core      ↛ repro.sim, repro.agents
    repro.analysis  ↛ repro.sim, repro.agents
    repro.chain     ↛ repro.core, repro.engine, repro.analysis,
                      repro.sim, repro.agents, repro.flashbots,
                      repro.stream, repro.serve
    repro.sim       ↛ repro.stream, repro.serve
    repro.stream    ↛ repro.sim, repro.agents, repro.serve
    repro.serve     ↛ repro.sim, repro.agents
    (and nothing serve consumes may import it back: core, engine,
    analysis, chain, faults, reliability, flashbots, agents, dex,
    lending and stream are all forbidden importers of repro.serve —
    serving sits at the top of the measurement stack, consuming
    core + stream, consumed only by the CLI, the bench harness, and
    the package front door)

The ``repro.chain`` edges also keep the archive read path
(``repro.chain.node``) a pure substrate service: it may be *used* by
the detection and engine layers, but must never reach back up into
them.

``allow`` lists modules that are exempt as import *targets* (default:
``repro.sim.calendar``, a pure block-height→month mapping with no
ground truth).  Deliberate exceptions — e.g. sensitivity sweeps that
re-run the simulator on purpose — carry a suppression comment instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: (importer package, forbidden imported package)
DEFAULT_EDGES: Tuple[Tuple[str, str], ...] = (
    ("repro.core", "repro.sim"),
    ("repro.core", "repro.agents"),
    ("repro.engine", "repro.sim"),
    ("repro.engine", "repro.agents"),
    ("repro.analysis", "repro.sim"),
    ("repro.analysis", "repro.agents"),
    ("repro.chain", "repro.core"),
    ("repro.chain", "repro.engine"),
    ("repro.chain", "repro.analysis"),
    ("repro.chain", "repro.sim"),
    ("repro.chain", "repro.agents"),
    ("repro.chain", "repro.flashbots"),
    ("repro.chain", "repro.stream"),
    ("repro.chain", "repro.serve"),
    ("repro.sim", "repro.stream"),
    ("repro.sim", "repro.serve"),
    ("repro.stream", "repro.sim"),
    ("repro.stream", "repro.agents"),
    # the serving layer is a pure consumer: it may import core/stream
    # (and the substrate), but no layer it consumes may import it back
    # — StreamEngine publishes through StreamSubscriber precisely so
    # this edge stays one-way — and serve itself stays as blind to
    # simulator ground truth as the detectors it serves.
    ("repro.serve", "repro.sim"),
    ("repro.serve", "repro.agents"),
    ("repro.core", "repro.serve"),
    ("repro.engine", "repro.serve"),
    ("repro.analysis", "repro.serve"),
    ("repro.stream", "repro.serve"),
    ("repro.faults", "repro.serve"),
    ("repro.reliability", "repro.serve"),
    ("repro.flashbots", "repro.serve"),
    ("repro.agents", "repro.serve"),
    ("repro.dex", "repro.serve"),
    ("repro.lending", "repro.serve"),
)

DEFAULT_ALLOW = ("repro.sim.calendar",)


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def _resolve_relative(ctx_module: str, node: ast.ImportFrom) -> \
        Optional[str]:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = ctx_module.split(".")
    # level=1 is "current package": strip the module's own name, then
    # one more component per extra dot.
    strip = node.level
    if len(parts) < strip:
        return node.module
    base = parts[:len(parts) - strip]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "LayeringRule", ctx: ModuleContext,
                 forbidden: List[str], allow: List[str]) -> None:
        self.rule = rule
        self.ctx = ctx
        self.forbidden = forbidden
        self.allow = allow
        self.findings: List[Finding] = []

    def _check_target(self, node: ast.AST, target: Optional[str],
                      imported_names: Optional[List[str]] = None) -> None:
        if not target:
            return
        candidates = [target]
        if imported_names:
            # ``from repro import sim`` imports the subpackage even
            # though the dotted target is just ``repro``.
            candidates.extend(f"{target}.{name}"
                              for name in imported_names)
        for candidate in candidates:
            if any(_in_package(candidate, allowed)
                   for allowed in self.allow):
                continue
            for package in self.forbidden:
                if _in_package(candidate, package):
                    self.findings.append(self.ctx.finding(
                        node, self.rule.rule_id,
                        f"layering violation: {self.ctx.module} must "
                        f"not import {candidate} (forbidden layer "
                        f"{package}); the measurement/substrate "
                        "boundary keeps heuristics blind to ground "
                        "truth"))
                    return  # one finding per import statement

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_target(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = _resolve_relative(self.ctx.module, node)
        names = [alias.name for alias in node.names
                 if alias.name != "*"]
        self._check_target(node, target, names)
        self.generic_visit(node)


@register
class LayeringRule(Rule):
    rule_id = "R003"
    title = "layering"
    rationale = ("repro.core / repro.analysis must not read simulator "
                 "ground truth; repro.chain must not import upward.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        edges: List[Tuple[str, str]] = []
        raw_edges = self.options.get("edges")
        if isinstance(raw_edges, (list, tuple)):
            for entry in raw_edges:
                if isinstance(entry, (list, tuple)) and len(entry) == 2:
                    edges.append((str(entry[0]), str(entry[1])))
        if not edges:
            edges = list(DEFAULT_EDGES)
        allow = self.option_str_list("allow", DEFAULT_ALLOW)
        forbidden = [imported for importer, imported in edges
                     if _in_package(ctx.module, importer)]
        if not forbidden:
            return
        visitor = _Visitor(self, ctx, forbidden, allow)
        visitor.visit(ctx.tree)
        yield from visitor.findings
