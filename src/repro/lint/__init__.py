"""``repro.lint`` — AST-based static analysis for domain invariants.

The simulator and measurement pipeline rest on invariants that plain
tests cannot guard (they hold *by construction* until someone edits the
wrong file): value stays integer wei inside the EVM state, seeded runs
replay exactly, heuristics never peek at ground truth, and the public
measurement API is typed.  Each invariant is a rule; R001–R007 check
one module at a time, R101–R103 (:mod:`repro.lint.flow`) check the
whole linted tree.  The event schema between emitters and heuristics
needs no rule: the event classes are keyword-only and slotted, so
Python itself rejects a missing, unknown or positional field.

=====  ====================  =======================================
Rule   Name                  Guards
=====  ====================  =======================================
R001   wei-safety            no floats/true division in value math
R002   determinism           no ambient entropy or hash-order loops
R003   layering              measurement blind to simulator truth
R005   public-api-hygiene    typed public functions in repro.core
R006   no-silent-except      no handler that swallows an error
R007   banned-api            retired identifiers stay gone
R101   determinism-taint     no entropy flows into hashes or rows
R102   fast-path-pairing     fast paths keep a tested reference
R103   parallel-safety       no shared module state in the engine
=====  ====================  =======================================

Run with ``python -m repro.lint [paths]`` or ``python -m repro lint``;
every enabled rule runs in one pass over the files.  Suppress a
deliberate exception with ``# repro-lint: disable=R00X`` on the
flagged line (or the line above), or file-wide with
``# repro-lint: disable-file=R00X``.  Configure via the
``[tool.repro-lint]`` table in ``pyproject.toml``.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import lint_paths, lint_source
from repro.lint.findings import ERROR, WARNING, Finding
from repro.lint.registry import Rule, all_rules, make_rules, register
from repro.lint.reporters import render_json, render_text

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "LintConfig",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "load_config",
    "make_rules",
    "register",
    "render_json",
    "render_text",
]
