"""Rule registry: rules self-register via the :func:`register` decorator.

Keeping registration declarative means the engine, ``enable`` and
``--select``, the CLI's ``--list-rules`` output, the SARIF rule table
and the docs all derive from one table.  A per-module rule is one new
module under ``repro.lint.rules``; a whole-program rule is one
:class:`ProjectRule` next to its analyzer in ``repro.lint.flow``.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator,
                    List, Type)

from repro.lint.context import ModuleContext
from repro.lint.findings import ERROR, Finding

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.lint.flow.callgraph import CallGraph
    from repro.lint.flow.project import Project

_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``title``/``rationale`` and implement
    :meth:`check`, yielding findings for one module.  A rule instance is
    created once per engine run, so per-run caches (e.g. the parsed
    event schema) can live on ``self``.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    default_severity: str = ERROR

    def __init__(self, options: Dict[str, object]) -> None:
        self.options = options

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def option_str_list(self, key: str,
                        default: Iterable[str] = ()) -> List[str]:
        value = self.options.get(key)
        if value is None:
            return list(default)
        if isinstance(value, str):
            return [value]
        if isinstance(value, (list, tuple)):
            return [str(item) for item in value]
        return list(default)


class ProjectRule(Rule):
    """A rule over the whole linted tree instead of one module.

    The engine summarizes every module it parsed into one
    :class:`~repro.lint.flow.project.Project` (only when a project rule
    is enabled), resolves the call graph once, and hands both to
    :meth:`check_project`.  Its findings pass through the same
    suppression directives as per-module findings.
    """

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())  # nothing to say about one module alone

    def check_project(self, project: "Project",
                      graph: "CallGraph") -> List[Finding]:
        raise NotImplementedError


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """Registered rules keyed by id (import side effect populates it)."""
    # Importing the rules package triggers each rule module's register().
    import repro.lint.rules  # noqa: F401  (registration side effect)
    return dict(_REGISTRY)


def make_rules(enabled: Iterable[str],
               options_for: Callable[[str], Dict[str, object]],
               ) -> List[Rule]:
    """Instantiate the enabled subset of registered rules, in id order."""
    registry = all_rules()
    rules: List[Rule] = []
    for rule_id in sorted(set(enabled)):
        cls = registry.get(rule_id)
        if cls is not None:
            rules.append(cls(options_for(rule_id)))
    return rules
