"""R007 — banned identifiers whose deprecation cycle has ended.

The rule must catch every way a removed name can sneak back in:
definition, import (with or without an alias), attribute access, bare
reference, and string smuggling through ``__all__``/``getattr``.
"""

import pytest

from tests.lint.conftest import run_lint, rule_ids

BANNED = "shield" "_sources"  # avoid the literal token in one piece

#: the source wrapper classes folded into the three typed sources
REMOVED_SOURCE_CLASSES = (
    "FaultyArchiveNode", "FaultyMempoolObserver", "FaultyFlashbotsApi",
    "ReliableArchiveNode", "ReliableMempoolObserver",
    "ReliableFlashbotsApi", "ReliableSource", "ArchiveNodeSource",
    "MempoolObserverSource", "FlashbotsApiSource")

#: the loose-kwarg helpers deleted once ``RunConfig`` became the only
#: run surface
REMOVED_CONFIG_HELPERS = (
    "resolve_config", "ensure_unmixed", "config_from_kwargs")

#: the bench's world-snapshot cache and the serial-plus-shard wrapper
#: folded into ``resimulate_and_splice``
REMOVED_BENCH_HELPERS = (
    "store_world", "load_world", "world_digest", "WORLD_CACHE_FORMAT",
    "simulate_sharded")

#: the hand-wired follow/serve builders replaced by
#: ``repro.follow_engine`` and ``repro.follow_reference``
REMOVED_SERVE_BUILDERS = ("serve_study", "batch_service", "stream_service")

#: the chain read index and the layers that fed it, deleted when a
#: ranged read became one offset slice of the chain
REMOVED_READ_INDEX = ("ChainIndex", "views_from_index", "warm_index")


def repo_config():
    from repro.lint.config import load_config
    from tests.lint.conftest import REPO_ROOT
    return load_config(pyproject=REPO_ROOT / "pyproject.toml")


class TestPositive:
    def test_definition_flagged(self):
        findings = run_lint(
            f"""
            def {BANNED}(sources):
                return sources
            """, module="repro.reliability.srcx", rules=["R007"])
        assert rule_ids(findings) == ["R007"]
        assert BANNED in findings[0].message

    def test_import_flagged(self):
        findings = run_lint(
            f"""
            from repro.reliability import {BANNED}
            """, module="repro.core.userx", rules=["R007"])
        assert rule_ids(findings) == ["R007"]

    @pytest.mark.parametrize(
        "name", REMOVED_SOURCE_CLASSES + REMOVED_CONFIG_HELPERS
        + REMOVED_BENCH_HELPERS + REMOVED_SERVE_BUILDERS
        + REMOVED_READ_INDEX)
    def test_removed_source_classes_flagged(self, name):
        findings = run_lint(
            f"""
            from repro.reliability import {name}
            """, module="repro.core.userx", rules=["R007"],
            config=repo_config())
        assert rule_ids(findings) == ["R007"]
        assert name in findings[0].message

    def test_aliased_import_flagged(self):
        findings = run_lint(
            f"""
            from repro.reliability import {BANNED} as harden
            """, module="repro.core.userx", rules=["R007"])
        assert rule_ids(findings) == ["R007"]

    def test_attribute_reference_flagged(self):
        findings = run_lint(
            f"""
            import repro.reliability

            def wire(node):
                return repro.reliability.{BANNED}(node)
            """, module="repro.core.userx", rules=["R007"])
        assert "R007" in rule_ids(findings)

    def test_string_smuggling_flagged(self):
        findings = run_lint(
            f"""
            import repro.reliability as r

            __all__ = ["{BANNED}"]

            def wire(node):
                return getattr(r, "{BANNED}")(node)
            """, module="repro.core.userx", rules=["R007"])
        assert rule_ids(findings).count("R007") >= 2


class TestNegative:
    def test_similar_names_pass(self):
        findings = run_lint(
            """
            def shield(sources):
                return sources

            def shielded_sources(sources):
                return shield(sources)

            def adapt(source):
                return ArchiveSource(source)

            def run_config(args):
                return RunConfig(chunk_size=args.chunk_size)
            """, module="repro.reliability.srcx", rules=["R007"],
            config=repo_config())
        assert findings == []

    def test_lint_package_is_exempt(self):
        # The rule's own configuration names the banned identifiers;
        # repro.lint must not flag itself.
        findings = run_lint(
            f"""
            DEFAULT_BANNED = ("{BANNED}",)
            """, module="repro.lint.rules.banned_apix",
            rules=["R007"])
        assert findings == []

    def test_configured_list_extends(self):
        from repro.lint import LintConfig
        config = LintConfig(rule_options={
            "R007": {"banned": ["legacy_probe"]}})
        findings = run_lint(
            """
            def legacy_probe():
                return 1
            """, module="repro.core.userx", rules=["R007"],
            config=config)
        assert rule_ids(findings) == ["R007"]
