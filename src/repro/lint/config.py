"""Lint configuration, optionally loaded from ``pyproject.toml``.

The ``[tool.repro-lint]`` table configures which rules run and where::

    [tool.repro-lint]
    enable = ["R001", "R002", "R003", "R005"]
    exclude = ["src/repro/_vendor"]

    [tool.repro-lint.rules.R003]
    allow = ["repro.sim.calendar"]

TOML parsing uses the stdlib :mod:`tomllib`, so the linter needs no
third-party package.
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Rule ids shipped with the linter, in report order.
DEFAULT_RULES = ("R001", "R002", "R003", "R005", "R006", "R007")


@dataclass
class LintConfig:
    """Engine + rule configuration."""

    #: Rule ids to run (defaults to every registered rule).
    enable: List[str] = field(
        default_factory=lambda: list(DEFAULT_RULES))
    #: fnmatch-style path globs to skip entirely.
    exclude: List[str] = field(default_factory=list)
    #: Per-rule option tables, keyed by rule id.
    rule_options: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def options_for(self, rule_id: str) -> Dict[str, Any]:
        return self.rule_options.get(rule_id, {})

    def is_excluded(self, path: Path) -> bool:
        text = path.as_posix()
        return any(fnmatch.fnmatch(text, pattern)
                   or fnmatch.fnmatch(text, pattern.rstrip("/") + "/*")
                   for pattern in self.exclude)


def _coerce_str_list(value: Any) -> List[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple)):
        return [str(item) for item in value]
    return []


def from_mapping(table: Dict[str, Any]) -> LintConfig:
    """Build a config from an already-parsed ``[tool.repro-lint]`` table."""
    config = LintConfig()
    if "enable" in table:
        config.enable = [rule.upper()
                         for rule in _coerce_str_list(table["enable"])]
    config.exclude = _coerce_str_list(table.get("exclude", []))
    rules = table.get("rules", {})
    if isinstance(rules, dict):
        for rule_id, options in rules.items():
            if isinstance(options, dict):
                config.rule_options[rule_id.upper()] = dict(options)
    return config


def load_config(pyproject: Optional[Path] = None,
                search_from: Optional[Path] = None) -> LintConfig:
    """Load config from ``pyproject.toml``.

    ``pyproject`` names the file explicitly; otherwise the directories
    from ``search_from`` upward are searched.  A missing or
    unreadable file, or a missing section, yields the default config.
    """
    path = pyproject
    if path is None and search_from is not None:
        for directory in [search_from.resolve(),
                          *search_from.resolve().parents]:
            candidate = directory / "pyproject.toml"
            if candidate.is_file():
                path = candidate
                break
    if path is None or not path.is_file():
        return LintConfig()
    try:
        with open(path, "rb") as stream:
            data = tomllib.load(stream)
    except (OSError, ValueError):
        return LintConfig()
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        return LintConfig()
    config = from_mapping(table)
    # A relative tests root names a place in the project, so it
    # resolves against the pyproject's directory, not the working one.
    base = path.resolve().parent
    pairing = config.rule_options.get("R102", {})
    tests_root = pairing.get("tests-root")
    if isinstance(tests_root, str) and tests_root:
        pairing["tests-root"] = str(base / tests_root)
    return config


def common_search_root(paths: Sequence[Path]) -> Path:
    """Directory to start the pyproject search from."""
    for path in paths:
        resolved = path.resolve()
        return resolved if resolved.is_dir() else resolved.parent
    return Path.cwd()
