"""Declarative markers the static analyzers cross-check.

:func:`fast_path` registers an optimized code path together with the
retained naive implementation it must stay bit-identical to.  The
decorator is deliberately inert at runtime — it only stamps metadata on
the function — because the *enforcement* lives in ``repro.lint.flow``
(rule R102), which reads the marker straight off the AST and verifies,
without importing anything:

* the named ``reference`` implementation still exists in the same
  module (the reference is load-bearing: equivalence tests and the
  bench identity gates replay it);
* the decorated function actually consults its ``toggle``, so building
  the world with ``fast_paths=False`` really does route through the
  reference;
* some test exercises the pair against each other;
* no production call site invokes the reference directly, bypassing
  the toggle dispatch.

This module sits at the very bottom of the layer diagram (it imports
nothing from ``repro``) so every layer may use the marker without
violating R003.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

F = TypeVar("F", bound=Callable)

#: Attribute the decorator stamps; tooling and tests may introspect it.
FAST_PATH_ATTR = "__fast_path__"


def fast_path(reference: Optional[str] = None, *,
              toggle: str,
              tested_by: Optional[str] = None) -> Callable[[F], F]:
    """Mark a function as an optimized path with a retained reference.

    ``reference`` names the naive implementation in the *same module*
    (``None`` for inline pairs where the toggle selects the reference
    behaviour inside the function body, e.g. ``memo={} if fast_paths
    else None``).  ``toggle`` names the attribute or parameter the
    dispatch consults (``fast_paths``, ``_index``, ``memo`` …).  ``tested_by`` optionally pins the equivalence test
    file; when omitted, R102 searches the test tree for one.
    """

    def mark(func: F) -> F:
        setattr(func, FAST_PATH_ATTR, {
            "reference": reference,
            "toggle": toggle,
            "tested_by": tested_by,
        })
        return func

    return mark
