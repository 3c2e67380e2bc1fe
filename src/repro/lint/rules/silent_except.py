"""R006 — no silent exception swallows.

The reliability layer makes data-source failures *visible*:
retries are counted, breaker trips reported, gaps labelled.  A bare
``except:`` or a broad ``except Exception: pass`` anywhere in the
package undoes that — it converts exactly the faults the pipeline is
built to surface into silent data loss.  This rule flags:

* bare ``except:`` handlers (they even swallow ``KeyboardInterrupt``);
* handlers catching ``Exception`` or ``BaseException`` (alone or inside
  a tuple) whose body does nothing — only ``pass``, ``...``, or a bare
  string/constant expression.

Narrow handlers (``except FileNotFoundError: return``) and broad
handlers that *act* (log, re-raise, count, degrade explicitly) stay
legal; a deliberate swallow carries a ``# repro-lint: disable=R006``
suppression with its justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: exception names treated as "catches everything"
_BROAD_NAMES = {"Exception", "BaseException"}


def _catches_broad(handler: ast.ExceptHandler) -> bool:
    """Whether the handler type includes Exception/BaseException."""
    node = handler.type
    if node is None:
        return True
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(isinstance(item, ast.Name) and item.id in _BROAD_NAMES
               for item in candidates)


def _is_noop_body(body: List[ast.stmt]) -> bool:
    """Whether a handler body swallows without acting."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and \
                isinstance(statement.value, ast.Constant):
            continue  # bare ``...`` or a stray string/number
        return False
    return True


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "SilentExceptRule",
                 ctx: ModuleContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Finding] = []

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.findings.append(self.ctx.finding(
                node, self.rule.rule_id,
                "bare 'except:' swallows every failure (including "
                "KeyboardInterrupt); catch a concrete exception and "
                "surface or count the error"))
        elif _catches_broad(node) and _is_noop_body(node.body):
            self.findings.append(self.ctx.finding(
                node, self.rule.rule_id,
                "'except Exception: pass' silently discards failures "
                "the reliability layer exists to surface; handle, "
                "count, or re-raise the error"))
        self.generic_visit(node)


@register
class SilentExceptRule(Rule):
    rule_id = "R006"
    title = "no-silent-except"
    rationale = ("Silent exception swallows hide exactly the "
                 "data-source faults the pipeline is built to surface "
                 "in its DataQualityReport.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        packages = self.option_str_list("packages", ("repro",))
        if not ctx.in_package(*packages):
            return
        visitor = _Visitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings
