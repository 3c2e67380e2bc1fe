"""``python -m repro.lint`` — run the domain-invariant linter.

Exit status: 0 when clean, 1 when findings exist, 2 on usage errors.

``--deep`` additionally runs the whole-program analyzers (R101–R103,
see :mod:`repro.lint.flow`) after the per-file rules.  Deep runs can
diff against a committed findings baseline (``--baseline``) so CI only
fails on regressions, and cache module summaries by content hash
(``--flow-cache``) so re-runs are incremental.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.config import (
    LintConfig,
    common_search_root,
    load_config,
)
from repro.lint.engine import lint_paths
from repro.lint.flow import (
    FLOW_RULES,
    filter_baselined,
    load_baseline,
    run_deep,
    write_baseline,
)
from repro.lint.registry import all_rules
from repro.lint.reporters import (
    render_json,
    render_sarif,
    render_text,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based linter for this repo's domain "
                    "invariants: wei-safety (R001), determinism "
                    "(R002), layering (R003), event-schema (R004), "
                    "public-API hygiene (R005), no silent except "
                    "(R006), banned APIs (R007); with --deep also the "
                    "whole-program analyzers R101 (determinism "
                    "taint), R102 (fast-path pairing), R103 "
                    "(parallel safety).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--format",
                        choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(overrides config; per-file rules "
                             "only)")
    parser.add_argument("--config", metavar="PYPROJECT",
                        help="explicit pyproject.toml to read "
                             "[tool.repro-lint] from")
    parser.add_argument("--no-config", action="store_true",
                        help="ignore pyproject.toml and use defaults")
    parser.add_argument("--deep", action="store_true",
                        help="also run the whole-program analyzers "
                             "(R101-R103)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="committed findings baseline; findings "
                             "recorded there are filtered, only new "
                             "ones fail the run")
    parser.add_argument("--write-baseline", action="store_true",
                        help="refresh --baseline with the current "
                             "findings and exit 0")
    parser.add_argument("--flow-cache", metavar="DIR",
                        help="directory for content-hash summary "
                             "cache (incremental --deep re-runs)")
    parser.add_argument("--tests-root", metavar="DIR",
                        help="test tree R102 searches for "
                             "equivalence coverage (default: tests)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule_id, cls in sorted(all_rules().items()):
        lines.append(f"{rule_id}  {cls.title}: {cls.rationale}")
    for rule_id, (name, rationale) in sorted(FLOW_RULES.items()):
        lines.append(f"{rule_id}  {name} (--deep): {rationale}")
    return "\n".join(lines)


def _rules_meta() -> dict:
    meta = {rule_id: (cls.title, cls.rationale)
            for rule_id, cls in all_rules().items()}
    meta.update(FLOW_RULES)
    return meta


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    if args.write_baseline and not args.baseline:
        print("repro.lint: --write-baseline requires --baseline",
              file=sys.stderr)
        return 2
    paths = [Path(raw) for raw in args.paths]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"repro.lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.no_config:
        config = LintConfig()
    else:
        explicit = Path(args.config) if args.config else None
        config = load_config(pyproject=explicit,
                             search_from=common_search_root(paths))
    if args.select:
        config.enable = [rule.strip().upper()
                         for rule in args.select.split(",")
                         if rule.strip()]
    unknown = sorted(set(config.enable) - set(all_rules()))
    if unknown:
        # A typo'd rule id silently linting nothing would read as a
        # clean CI run; fail loudly instead.
        print(f"repro.lint: unknown rule id: {', '.join(unknown)} "
              f"(known: {', '.join(sorted(all_rules()))})",
              file=sys.stderr)
        return 2
    findings = lint_paths(paths, config)
    if args.deep:
        cache_dir = Path(args.flow_cache) if args.flow_cache else None
        report = run_deep(paths, config, cache_dir=cache_dir,
                          tests_root=args.tests_root)
        findings = sorted(findings + report.findings,
                          key=lambda f: f.sort_key())
        print(report.stats_line(), file=sys.stderr)
    if args.write_baseline:
        write_baseline(Path(args.baseline), findings)
        print(f"repro.lint: baseline written "
              f"({len(findings)} findings) to {args.baseline}",
              file=sys.stderr)
        return 0
    if args.baseline:
        baseline_path = Path(args.baseline)
        if baseline_path.exists():
            try:
                accepted = load_baseline(baseline_path)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"repro.lint: bad baseline: {exc}",
                      file=sys.stderr)
                return 2
            findings = filter_baselined(findings, accepted)
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings, _rules_meta()))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
