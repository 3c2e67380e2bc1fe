"""R101 — interprocedural determinism taint.

The syntactic R002 bans *calling* nondeterminism sources in simulator
packages.  R101 asks the sharper question: does a nondeterministic
value **flow into a measurement artifact** — a block hash, a detection
row, a checkpoint payload, or the bench JSON?  Those sinks define the
paper's numbers; a wall-clock read that only feeds a log line is
tolerable, one that feeds ``hash_of`` is corruption.

The analysis is context-insensitive and summary-based.  A global
fixpoint labels every function with

* ``rt`` — the set of nondeterminism source descriptions its return
  value may carry regardless of arguments, and
* ``pt`` — the parameter indices its return value passes through,

then every call site whose callee is a configured *sink* has each
argument's taint evaluated in the caller's summary.  Functions on the
sanctioned list (e.g. the bench clock, which measures wall time *on
purpose* and never feeds block state) are treated as clean.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lint.findings import ERROR, Finding
from repro.lint.flow.callgraph import CallGraph, resolve_site
from repro.lint.flow.project import Project, split_qualname
from repro.lint.flow.summary import DIRECT, FunctionSummary
from repro.lint.registry import ProjectRule, register

RULE_ID = "R101"

#: Builtins that return a value derived from their arguments; taint
#: passes straight through them.
PASSTHROUGH_BUILTINS = {
    "sorted", "list", "tuple", "dict", "set", "frozenset", "str",
    "int", "float", "bool", "bytes", "repr", "abs", "round", "min",
    "max", "sum", "len", "enumerate", "zip", "reversed", "format",
    "next", "iter", "map", "filter", "divmod", "hash",
}

#: Sinks flagged when no configuration overrides them: block/state
#: hashing, detection-row emission, checkpoint payloads, bench JSON.
DEFAULT_SINKS = (
    "hash_of",
    "Checkpoint.save",
    "write_report",
    "dump_jsonl",
)

#: Functions whose nondeterminism is sanctioned by design.
DEFAULT_SANCTIONED = (
    "repro.bench.harness:_clock",
)


class TaintAnalysis:
    """Global returns-taint fixpoint + sink-argument evaluation."""

    def __init__(self, project: Project, graph: CallGraph,
                 sinks: Tuple[str, ...] = DEFAULT_SINKS,
                 sanctioned: Tuple[str, ...] = DEFAULT_SANCTIONED,
                 ) -> None:
        self.project = project
        self.graph = graph
        self.sink_names = {s for s in sinks if ":" not in s}
        self.sink_quals = {s for s in sinks if ":" in s}
        self.sanctioned = set(sanctioned)
        #: qualname → source descriptions its return may carry
        self.rt: Dict[str, Set[str]] = {}
        #: qualname → param indices passed through to the return
        self.pt: Dict[str, Set[int]] = {}

    # -- fixpoint -----------------------------------------------------------

    def run(self) -> None:
        for name in self.project.functions:
            self.rt[name] = set()
            self.pt[name] = set()
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for name, fn in self.project.functions.items():
                if name in self.sanctioned:
                    continue
                sources, params = self._eval_tokens(
                    name, fn, fn.return_tokens, set())
                if not sources <= self.rt[name]:
                    self.rt[name] |= sources
                    changed = True
                if not params <= self.pt[name]:
                    self.pt[name] |= params
                    changed = True

    def _source_label(self, fn: FunctionSummary) -> str:
        if fn.sources:
            first = fn.sources[0]
            return f"{first['detail']} at line {first['lineno']}"
        return "nondeterminism source"

    def _arg_tokens(self, fn: FunctionSummary, site_index: int,
                    callee: FunctionSummary,
                    param_index: int) -> Optional[List[str]]:
        """Tokens of the argument bound to ``callee``'s parameter."""
        site = fn.calls[site_index]
        position = param_index
        if callee.is_method and site.kind in ("self", "attr", "super"):
            if param_index == 0:
                return None  # the receiver itself; not tracked
            position = param_index - 1
        if position < len(site.args):
            return site.args[position]
        if param_index < len(callee.params):
            return site.kwargs.get(callee.params[param_index])
        return None

    def _eval_tokens(self, name: str, fn: FunctionSummary,
                     tokens: List[str],
                     visiting: Set[Tuple[str, int]],
                     ) -> Tuple[Set[str], Set[int]]:
        """(source descriptions, passthrough params) a value carries."""
        sources: Set[str] = set()
        params: Set[int] = set()
        for token in tokens:
            if token == DIRECT:
                sources.add(self._source_label(fn))
            elif token.startswith("P"):
                params.add(int(token[1:]))
            elif token.startswith("C"):
                index = int(token[1:])
                if (name, index) in visiting or \
                        index >= len(fn.calls):
                    continue
                call_sources, call_params = self._eval_call(
                    name, fn, index, visiting | {(name, index)})
                sources |= call_sources
                params |= call_params
        return sources, params

    def _eval_call(self, name: str, fn: FunctionSummary, index: int,
                   visiting: Set[Tuple[str, int]],
                   ) -> Tuple[Set[str], Set[int]]:
        """Taint of the *result* of call site ``index`` in ``fn``."""
        site = fn.calls[index]
        sources: Set[str] = set()
        params: Set[int] = set()
        callees = resolve_site(self.project, name, site)
        if not callees:
            if site.kind == "name" and \
                    site.func in PASSTHROUGH_BUILTINS:
                for arg in site.args:
                    s, p = self._eval_tokens(name, fn, arg, visiting)
                    sources |= s
                    params |= p
            return sources, params
        for callee_name in callees:
            if callee_name in self.sanctioned:
                continue
            callee = self.project.functions[callee_name]
            if self.rt.get(callee_name):
                short = split_qualname(callee_name)[1]
                for detail in self.rt[callee_name]:
                    sources.add(f"{detail} via {short}()")
            for param_index in self.pt.get(callee_name, ()):
                arg = self._arg_tokens(fn, index, callee, param_index)
                if arg:
                    s, p = self._eval_tokens(name, fn, arg, visiting)
                    sources |= s
                    params |= p
        return sources, params

    # -- sink pass ----------------------------------------------------------

    def _sink_label(self, name: str, site_index: int) -> Optional[str]:
        fn = self.project.functions[name]
        site = fn.calls[site_index]
        if site.func in self.sink_names:
            return site.func
        for callee in resolve_site(self.project, name, site):
            _, callee_key = split_qualname(callee)
            if callee in self.sink_quals or \
                    callee_key in self.sink_names or \
                    callee_key.split(".")[-1] in self.sink_names:
                return callee_key
        # A method sink configured as ``Class.meth`` should match even
        # when the receiver could not be resolved to a project class.
        for sink in self.sink_names:
            if "." in sink and sink.split(".")[-1] == site.func:
                return sink
        return None

    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        for name, fn in self.project.functions.items():
            if name in self.sanctioned:
                continue
            module, _ = split_qualname(name)
            summary = self.project.modules[module]
            for index, site in enumerate(fn.calls):
                sink = self._sink_label(name, index)
                if sink is None:
                    continue
                tainted: Set[str] = set()
                for arg in site.args:
                    s, _ = self._eval_tokens(name, fn, arg, set())
                    tainted |= s
                for arg in site.kwargs.values():
                    s, _ = self._eval_tokens(name, fn, arg, set())
                    tainted |= s
                if not tainted:
                    continue
                detail = "; ".join(sorted(tainted))
                out.append(Finding(
                    path=summary.path, line=site.lineno,
                    rule_id=RULE_ID, severity=ERROR,
                    message=(f"nondeterministic value flows into "
                             f"sink '{sink}' in {fn.name}() "
                             f"[{detail}] — measurement artifacts "
                             "must be reproducible from the seed"),
                ))
        return out


def analyze(project: Project, graph: CallGraph,
            options: Optional[dict] = None) -> List[Finding]:
    options = options or {}
    sinks = tuple(options.get("sinks", DEFAULT_SINKS))
    sanctioned = tuple(options.get("sanctioned", DEFAULT_SANCTIONED))
    analysis = TaintAnalysis(project, graph, sinks=sinks,
                             sanctioned=sanctioned)
    analysis.run()
    return analysis.findings()


@register
class TaintRule(ProjectRule):
    rule_id = RULE_ID
    title = "determinism-taint"
    rationale = ("no nondeterministic value may flow into block hashes, "
                 "detection rows, checkpoints, or bench JSON")

    def check_project(self, project: Project,
                      graph: CallGraph) -> List[Finding]:
        return analyze(project, graph, self.options)
