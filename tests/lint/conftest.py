"""Shared helpers for the linter's own test suite.

``run_lint`` lints an inline snippet while *posing* as a given dotted
module (rule applicability is package-based).
"""

import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

from repro.lint import Finding, LintConfig, lint_source, make_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_lint(source: str, module: str,
             rules: Optional[Sequence[str]] = None,
             config: Optional[LintConfig] = None) -> List[Finding]:
    if config is None:
        config = LintConfig()
    rule_objs = make_rules(rules if rules is not None else config.enable,
                           config.options_for)
    return lint_source(textwrap.dedent(source),
                       path=Path("snippet.py"), config=config,
                       rules=rule_objs, module=module,
                       display_path="snippet.py")


def rule_ids(findings: Sequence[Finding]) -> List[str]:
    return [finding.rule_id for finding in findings]


@pytest.fixture
def fixture_tree(tmp_path):
    """Build a mini ``src/repro`` tree in tmp_path for engine/CLI tests.

    Returns a writer: ``add("repro/chain/mod.py", source)``.
    """
    src = tmp_path / "src"

    def add(relative: str, source: str = "") -> Path:
        path = src / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        directory = path.parent
        while directory != src and directory != directory.parent:
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
            directory = directory.parent
        path.write_text(textwrap.dedent(source))
        return path

    return add
