"""Whole-program analysis layer behind ``repro lint --deep``.

The per-file rules in :mod:`repro.lint.rules` see one AST at a time;
this package sees the project.  It summarizes every module
(:mod:`.summary`), indexes the summaries into a symbol table
(:mod:`.project`), resolves a call graph (:mod:`.callgraph`), and runs three interprocedural analyzers:

* :mod:`.taint`   — R101 determinism taint into measurement sinks
* :mod:`.pairing` — R102 fast-path/reference pairing (``@fast_path``)
* :mod:`.parallel` — R103 parallel-safety of the chunk-engine closure

:mod:`.deep` orchestrates the pipeline; :mod:`.baseline` implements
the committed-findings baseline CI diffs against.
"""

from repro.lint.flow.baseline import (
    filter_baselined,
    load_baseline,
    write_baseline,
)
from repro.lint.flow.deep import FLOW_RULES, DeepReport, run_deep

__all__ = [
    "DeepReport",
    "FLOW_RULES",
    "filter_baselined",
    "load_baseline",
    "run_deep",
    "write_baseline",
]
