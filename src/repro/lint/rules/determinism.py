"""R002 — determinism: a seeded run must replay bit-for-bit.

The study's headline numbers come out of a simulated world; if any code
path draws entropy from ambient sources, the "same seed ⇒ same blocks"
contract breaks silently.  This rule flags, across the whole package:

* calls through the *module-level* RNG (``random.random()``,
  ``random.choice()``, …) — randomness must flow through an injected,
  seeded ``random.Random`` instance (constructing a *seeded* one is
  allowed), including through a module alias created by assignment
  (``r = random; r.random()``);
* ``from random import <fn>`` of anything except ``Random``;
* **unseeded** ``random.Random()`` / ``Random()`` construction — a
  zero-argument ``Random`` seeds itself from OS entropy, so the alias
  it is bound to (``r = random.Random(); r.random()``) is exactly as
  nondeterministic as the module-level RNG;
* wall-clock and OS entropy: ``time.time``/``time.time_ns``,
  ``datetime.now``/``utcnow``/``today``, ``os.urandom``, ``os.getenv``,
  ``uuid.uuid1``/``uuid4``, ``random.SystemRandom``, ``secrets.*``;
* iteration over a ``set`` expression (``for x in {…}``, ``for x in
  set(…)``, comprehensions over either) — set order varies with hash
  seeding across processes, so downstream tx ordering would too.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.flow.summary import NONDET_ATTRS, is_set_expr
from repro.lint.registry import Rule, register

#: ``random`` module attributes that are fine to touch directly.
_ALLOWED_RANDOM_ATTRS = {"Random"}


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "DeterminismRule",
                 ctx: ModuleContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Finding] = []
        #: local aliases of the ``random`` module (``import random as
        #: r`` — or ``r = random`` later; see :meth:`visit_Assign`)
        self.random_aliases: Set[str] = set()
        self.secrets_aliases: Set[str] = set()
        #: names bound to the ``Random`` class itself
        #: (``from random import Random [as R]``)
        self.random_class_aliases: Set[str] = set()

    def _emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            self.ctx.finding(node, self.rule.rule_id, message))

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self.random_aliases.add(alias.asname or alias.name)
            elif alias.name == "secrets":
                self.secrets_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name == "Random":
                    self.random_class_aliases.add(
                        alias.asname or alias.name)
                elif alias.name not in _ALLOWED_RANDOM_ATTRS:
                    self._emit(node,
                               f"'from random import {alias.name}' "
                               "binds the shared module-level RNG; "
                               "inject a seeded random.Random instead")
        elif node.module == "secrets":
            self._emit(node, "'secrets' draws OS entropy; simulator "
                             "randomness must come from a seeded "
                             "random.Random")
        self.generic_visit(node)

    # -- aliases created by plain assignment --------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if isinstance(value, ast.Name):
            alias_sets = (self.random_aliases, self.secrets_aliases,
                          self.random_class_aliases)
            for aliases in alias_sets:
                if value.id in aliases:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            aliases.add(target.id)
        self.generic_visit(node)

    # -- calls --------------------------------------------------------------

    def _is_unseeded_random_ctor(self, node: ast.Call) -> bool:
        if node.args or node.keywords:
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in self.random_class_aliases
        return (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.random_aliases
                and func.attr == "Random")

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_unseeded_random_ctor(node):
            self._emit(node,
                       "unseeded Random() draws its seed from OS "
                       "entropy; construct it with an explicit seed "
                       "derived from the scenario seed")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            base, attr = node.value.id, node.attr
            if base in self.random_aliases and \
                    attr not in _ALLOWED_RANDOM_ATTRS:
                self._emit(node,
                           f"module-level 'random.{attr}' is shared "
                           "global state; use an injected seeded "
                           "random.Random")
            elif base in self.secrets_aliases:
                self._emit(node, f"'secrets.{attr}' draws OS entropy; "
                                 "use an injected seeded random.Random")
            elif (base, attr) in NONDET_ATTRS:
                self._emit(node,
                           f"'{base}.{attr}' is nondeterministic "
                           "(wall-clock/OS entropy); derive values "
                           "from simulation state or the seed")
        self.generic_visit(node)

    # -- set iteration ------------------------------------------------------

    def _check_iter(self, iter_node: ast.AST) -> None:
        if is_set_expr(iter_node):
            self._emit(iter_node,
                       "iterating over a set: order depends on hashing "
                       "and breaks seeded determinism; sort it first "
                       "(e.g. sorted(...))")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self._check_iter(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


@register
class DeterminismRule(Rule):
    rule_id = "R002"
    title = "determinism"
    rationale = ("Same seed must replay the identical world: no ambient "
                 "entropy, no global RNG, no hash-order iteration.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        packages = self.option_str_list("packages", ("repro",))
        if not ctx.in_package(*packages):
            return
        visitor = _Visitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings
