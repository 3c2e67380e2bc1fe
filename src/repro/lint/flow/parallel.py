"""R103 — parallel-safety of everything the chunk engine can reach.

``ParallelExecutor`` forks workers; ``ChunkRunner.run_chunk`` is the
unit of work each one replays.  Forked state silently diverges: a
module-level cache warmed in one worker is invisible to its siblings,
and a module-level accumulator written during a chunk makes results
depend on which worker (and how many) processed it — breaking the
bit-identity gate between ``workers=1`` and ``workers=N``.

Starting from the configured roots, the analyzer walks the call graph
closure and flags, for every reachable function:

* assignments/augassignments to module-level globals (state escaping
  the chunk);
* mutations of module-level **mutable** containers (``.append`` /
  ``.update`` / subscript stores) — the cross-chunk shared-cache
  hazard, unless chunk-keyed isolation is declared via the allow
  list;
* lambdas or locally-defined closures handed to ``.submit()`` /
  ``.apply_async()`` — they cannot be pickled into a worker.

A root in an analyzed package that does not resolve to a project
function is an error of its own: a renamed entry point would otherwise
drop out of the analysis silently.  Roots in packages outside the
analyzed tree (the defaults, when linting something other than
``repro``) are out of scope.

The allow list (``allow-globals``) names sanctioned module globals as
``pkg.mod.NAME`` — e.g. the worker-local runner installed by the pool
initializer, which exists precisely once per process by design.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lint.findings import ERROR, Finding
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.project import Project, split_qualname

RULE_ID = "R103"

DEFAULT_ROOTS = (
    "repro.engine.runner:ChunkRunner.run_chunk",
    "repro.engine.executors:_init_worker",
    "repro.engine.executors:_run_chunk_in_worker",
    "repro.engine.executors:ParallelExecutor.execute",
    "repro.stream.engine:StreamEngine.ingest",
    # serve handler coroutines: one per connection, interleaved by the
    # event loop — shared module state here is the same hazard as
    # forked state in the chunk engine
    "repro.serve.http:MevHttpServer._handle_connection",
    "repro.serve.service:MevQueryService.handle",
)

DEFAULT_ALLOW = (
    "repro.engine.executors._WORKER_RUNNER",
)


def analyze(project: Project, graph: CallGraph,
            options: Optional[dict] = None) -> List[Finding]:
    options = options or {}
    roots = list(options.get("roots", DEFAULT_ROOTS))
    allow = set(options.get("allow-globals", DEFAULT_ALLOW))
    parent = graph.reachable_from(roots)
    findings: List[Finding] = []
    packages = {module.split(".")[0] for module in project.modules}
    for root in roots:
        module, _ = split_qualname(root)
        if root not in project.functions and \
                module.split(".")[0] in packages:
            summary = project.modules.get(module)
            findings.append(Finding(
                path=module if summary is None else summary.path,
                line=1, rule_id=RULE_ID, severity=ERROR,
                message=(f"root '{root}' does not resolve to a project "
                         "function; R103 cannot check what it "
                         "reaches")))
    for name in sorted(parent):
        module, _ = split_qualname(name)
        summary = project.modules.get(module)
        fn = project.functions.get(name)
        if summary is None or fn is None:
            continue
        witness = graph.witness_path(parent, name)
        for write in fn.global_writes:
            dotted = write["name"] if "." in write["name"] \
                else f"{module}.{write['name']}"
            if dotted in allow:
                continue
            kind = write["kind"]
            info = summary.module_globals.get(write["name"], {})
            if kind in ("mutate", "subscript") or \
                    (kind == "augassign" and info.get("mutable")):
                hazard = ("mutates module-level container "
                          f"'{write['name']}' — a cross-chunk shared "
                          "cache is per-process under fork; key it "
                          "per chunk or sanction it via "
                          "allow-globals")
            else:
                hazard = ("writes module-level state "
                          f"'{write['name']}' — chunk results must "
                          "not depend on worker-local module state")
            findings.append(Finding(
                path=summary.path, line=write["lineno"],
                rule_id=RULE_ID, severity=ERROR,
                message=(f"{fn.name}() (reachable via "
                         f"{witness}) {hazard}")))
        for submission in fn.submissions:
            findings.append(Finding(
                path=summary.path, line=submission["lineno"],
                rule_id=RULE_ID, severity=ERROR,
                message=(f"{fn.name}() (reachable via {witness}) "
                         f"{submission['detail']}")))
    return findings
