"""Built-in lint rules; importing this package registers them all.

The per-module rules live here; the whole-program rules R101–R103 live
next to their analyzers in :mod:`repro.lint.flow` and register on the
import below.
"""

from repro.lint.rules.wei_safety import WeiSafetyRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.layering import LayeringRule
from repro.lint.rules.api_hygiene import ApiHygieneRule
from repro.lint.rules.silent_except import SilentExceptRule
from repro.lint.rules.banned_api import BannedApiRule
from repro.lint.flow import PairingRule, ParallelRule, TaintRule

__all__ = [
    "WeiSafetyRule",
    "DeterminismRule",
    "LayeringRule",
    "ApiHygieneRule",
    "SilentExceptRule",
    "BannedApiRule",
    "TaintRule",
    "PairingRule",
    "ParallelRule",
]
