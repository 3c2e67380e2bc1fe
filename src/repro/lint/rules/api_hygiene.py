"""R005 — public-API hygiene: exported measurement functions are typed.

``repro.core`` is the layer other code (and downstream analyses)
programs against, and its values are dimensionful — wei, block heights,
permille tolerances.  Unannotated parameters there are where int/float
confusion sneaks back in.  The rule requires every *public* function in
the configured packages to annotate all parameters and the return type.
``repro.chain.node`` is held to the same bar: it is the read path the
whole measurement layer leans on, and its coordinates (block numbers,
tx/log indices) invite exactly that confusion.  ``repro.chain.mempool``
joined when its ordering index became a hot path: fee and nonce
arguments there are wei/counters, and the incremental index only stays
provably equivalent to the naive sort if those types stay honest.

Public means: listed in ``__all__`` when the module defines one,
otherwise any top-level or public-class method whose name has no
leading underscore (``__init__`` counts; its signature is the class's
constructor API).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

DEFAULT_PACKAGES = ("repro.core", "repro.engine", "repro.chain.node",
                    "repro.chain.mempool", "repro.serve")

_IMPLICIT = {"self", "cls"}


def _module_all(tree: ast.Module) -> Optional[Set[str]]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "__all__" and \
                        isinstance(node.value, (ast.List, ast.Tuple)):
                    return {elt.value for elt in node.value.elts
                            if isinstance(elt, ast.Constant) and
                            isinstance(elt.value, str)}
    return None


def _missing_annotations(node: ast.FunctionDef) -> List[str]:
    missing = []
    args = (list(node.args.posonlyargs) + list(node.args.args) +
            list(node.args.kwonlyargs))
    for index, arg in enumerate(args):
        if index == 0 and arg.arg in _IMPLICIT:
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    for star in (node.args.vararg, node.args.kwarg):
        if star is not None and star.annotation is None:
            missing.append("*" + star.arg)
    if node.returns is None and node.name != "__init__":
        missing.append("return")
    return missing


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


@register
class ApiHygieneRule(Rule):
    rule_id = "R005"
    title = "public-api-hygiene"
    rationale = ("Exported measurement functions carry full type "
                 "annotations; dimensionful values need declared types.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        packages = self.option_str_list("packages", DEFAULT_PACKAGES)
        if not ctx.in_package(*packages):
            return
        exported = _module_all(ctx.tree)

        def wanted(name: str) -> bool:
            if exported is not None:
                return name in exported
            return _is_public(name)

        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                if wanted(node.name):
                    yield from self._check_function(ctx, node,
                                                    node.name)
            elif isinstance(node, ast.ClassDef) and wanted(node.name):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) and \
                            _is_public(stmt.name):
                        yield from self._check_function(
                            ctx, stmt, f"{node.name}.{stmt.name}")

    def _check_function(self, ctx: ModuleContext, node: ast.FunctionDef,
                        qualname: str) -> Iterator[Finding]:
        for decorator in node.decorator_list:
            # property getters/setters and overloads inherit their
            # contract elsewhere; only plain callables are checked.
            if isinstance(decorator, ast.Name) and \
                    decorator.id == "overload":
                return
        missing = _missing_annotations(node)
        if missing:
            yield ctx.finding(
                node, self.rule_id,
                f"public function '{qualname}' lacks type annotations "
                f"for: {', '.join(missing)}")
