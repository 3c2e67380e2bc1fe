"""Whole-program analysis layer: the rules that see the project.

The per-module rules in :mod:`repro.lint.rules` see one AST at a time;
this package sees the project.  It summarizes every module the engine
parsed (:mod:`.summary`), indexes the summaries into a symbol table
(:mod:`.project`), resolves a call graph (:mod:`.callgraph`), and runs
three interprocedural analyzers, each a registered
:class:`~repro.lint.registry.ProjectRule`:

* :mod:`.taint`   — R101 determinism taint into measurement sinks
* :mod:`.pairing` — R102 fast-path/reference pairing (``@fast_path``)
* :mod:`.parallel` — R103 parallel-safety of the chunk-engine closure

:func:`repro.lint.engine.lint_paths` runs them in the same pass as the
per-module rules whenever one of them is enabled.
"""

from repro.lint.flow.pairing import PairingRule
from repro.lint.flow.parallel import ParallelRule
from repro.lint.flow.taint import TaintRule

__all__ = [
    "PairingRule",
    "ParallelRule",
    "TaintRule",
]
