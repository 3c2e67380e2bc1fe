"""R102 — fast-path / reference pairing.

The repo's identity rule: every optimized code path keeps its naive
reference implementation alive, stays bit-identical to it, and is
exercised against it by tests and bench gates.  R102 checks the rule
from declarations.

A fast path announces itself with ``@fast_path(reference="...",
toggle="...")`` (see :mod:`repro.markers`).  For every marker the
analyzer verifies, purely from summaries:

1. the marker names a ``toggle`` (the attribute/parameter the dispatch
   consults) and the decorated function actually references it;
2. the named ``reference`` still exists in the same module (same class
   for methods) — the reference is load-bearing, deleting it breaks
   the equivalence replay;
3. the decorated function actually *calls* the reference, i.e. the
   slow route is reachable through the toggle, not dead code;
4. some test file exercises the pair (mentions the reference, the
   marked function together with ``<toggle>=False``, or is pinned via
   ``tested_by=``);
5. no production call site invokes the reference directly — callers
   must go through the dispatching fast path so the toggle keeps
   meaning something.

Inline pairs (``reference=None``) — where the toggle selects reference
behaviour inside one body, e.g. ``memo={} if fast_paths else None`` —
get checks 1 and 4 only.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.lint.findings import ERROR, Finding
from repro.lint.flow.project import Project, split_qualname
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.summary import FunctionSummary
from repro.lint.registry import ProjectRule, register

RULE_ID = "R102"

MARKER_NAME = "fast_path"

DEFAULT_TESTS_ROOT = "tests"


def _marker_of(fn: FunctionSummary) -> Optional[Dict[str, object]]:
    for decorator in fn.decorators:
        if decorator.get("name") == MARKER_NAME:
            return decorator
    return None


class _TestCorpus:
    """Lazy text index over the test tree (no parsing needed)."""

    def __init__(self, root: Optional[Path]) -> None:
        self.root = root
        self._files: Optional[List[Tuple[str, str]]] = None

    def _load(self) -> List[Tuple[str, str]]:
        if self._files is None:
            self._files = []
            if self.root is not None and self.root.is_dir():
                for path in sorted(self.root.rglob("*.py")):
                    try:
                        text = path.read_text(encoding="utf-8")
                    except OSError:
                        continue
                    self._files.append((str(path), text))
        return self._files

    def mentions(self, *needles: str) -> bool:
        """True when one file contains *all* needles."""
        for _, text in self._load():
            if all(needle in text for needle in needles):
                return True
        return False

    def has_file(self, name: str) -> bool:
        if self.root is None:
            return False
        return any(Path(path).name == name or path.endswith(name)
                   for path, _ in self._load())


def analyze(project: Project, options: Optional[dict] = None,
            ) -> List[Finding]:
    options = options or {}
    tests_root = options.get("tests-root", DEFAULT_TESTS_ROOT)
    corpus = _TestCorpus(Path(tests_root) if tests_root else None)
    findings: List[Finding] = []
    markers: List[Tuple[str, FunctionSummary, Dict[str, object]]] = []
    for name, fn in project.functions.items():
        marker = _marker_of(fn)
        if marker is not None:
            markers.append((name, fn, marker))

    reference_owners: Dict[str, str] = {}

    for name, fn, marker in markers:
        module, qualkey = split_qualname(name)
        summary = project.modules[module]
        kwargs = marker.get("kwargs") or {}
        line = int(marker.get("lineno") or fn.lineno)
        toggle = kwargs.get("toggle")
        reference = kwargs.get("reference")
        tested_by = kwargs.get("tested_by")

        def report(message: str) -> None:
            findings.append(Finding(
                path=summary.path, line=line, rule_id=RULE_ID,
                severity=ERROR, message=message))

        # 1. toggle present and consulted
        if not isinstance(toggle, str) or not toggle:
            report(f"@fast_path on {fn.name}() must name the toggle "
                   "it dispatches on (toggle=...)")
            continue
        if toggle not in fn.referenced:
            report(f"@fast_path on {fn.name}() declares "
                   f"toggle='{toggle}' but the body never consults "
                   "it — the slow route is unreachable")

        if isinstance(reference, str) and reference:
            # 2. reference lives in the same module / class
            owner_class = qualkey.split(".", 1)[0] \
                if "." in qualkey else None
            candidates = [reference]
            if owner_class is not None:
                candidates.insert(0, f"{owner_class}.{reference}")
            resolved = next((c for c in candidates
                             if c in summary.functions), None)
            if resolved is None:
                report(f"@fast_path on {fn.name}() names "
                       f"reference='{reference}' but no such "
                       f"implementation exists in {module} — the "
                       "retained reference has been lost")
                continue
            reference_owners[f"{module}:{resolved}"] = name
            # 3. the dispatch actually calls the reference
            if not any(site.func == reference for site in fn.calls):
                report(f"{fn.name}() never calls its reference "
                       f"'{reference}' — toggling "
                       f"{toggle}=False cannot reach the slow path")
            # 4. equivalence coverage
            if isinstance(tested_by, str) and tested_by:
                if not corpus.has_file(tested_by):
                    report(f"tested_by='{tested_by}' for "
                           f"{fn.name}() does not exist under "
                           f"{tests_root}/")
            elif not corpus.mentions(reference):
                report(f"no test under {tests_root}/ mentions "
                       f"'{reference}' — the {fn.name}()/"
                       f"{reference}() pair has no equivalence "
                       "coverage")
        else:
            # Inline pair: equivalence coverage via the toggle.
            if isinstance(tested_by, str) and tested_by:
                if not corpus.has_file(tested_by):
                    report(f"tested_by='{tested_by}' for "
                           f"{fn.name}() does not exist under "
                           f"{tests_root}/")
            elif not corpus.mentions(f"{toggle}=False"):
                report(f"no test under {tests_root}/ exercises "
                       f"{toggle}=False — the inline fast path in "
                       f"{fn.name}() has no equivalence coverage")

    # 5. no production call site bypasses the toggle dispatch
    for ref_qual, fast_qual in sorted(reference_owners.items()):
        ref_module, ref_key = split_qualname(ref_qual)
        fast_module, fast_key = split_qualname(fast_qual)
        ref_bare = ref_key.split(".")[-1]
        for caller, fn in project.functions.items():
            caller_module, caller_key = split_qualname(caller)
            if caller == fast_qual or caller == ref_qual:
                continue
            if caller_module == ref_module:
                # Same-module helpers (and the bench replay hooks the
                # module itself exposes) may address the reference.
                continue
            for site in fn.calls:
                if site.func != ref_bare:
                    continue
                summary = project.modules[caller_module]
                findings.append(Finding(
                    path=summary.path, line=site.lineno,
                    rule_id=RULE_ID, severity=ERROR,
                    message=(f"direct call to reference "
                             f"'{ref_bare}' bypasses the "
                             f"{fast_key}() toggle dispatch — "
                             "call the fast path and flip its "
                             "toggle instead")))
    return findings


@register
class PairingRule(ProjectRule):
    rule_id = RULE_ID
    title = "fast-path-pairing"
    rationale = ("every @fast_path keeps a live same-module reference, "
                 "equivalence coverage, and toggle-respecting call "
                 "sites")

    def check_project(self, project: Project,
                      graph: CallGraph) -> List[Finding]:
        return analyze(project, self.options)
