"""Engine walking, reporters, config loading, and CLI exit codes."""

import json

import pytest

from repro.lint import LintConfig, lint_paths, render_json, render_text
from repro.lint.cli import main as lint_main
from repro.lint.config import load_config

BAD_WEI = """
def fee(amount: int) -> int:
    return amount / 2
"""

GOOD_WEI = """
def fee(amount: int) -> int:
    return amount // 2
"""


class TestEngine:
    def test_walks_tree_and_derives_modules(self, fixture_tree,
                                            tmp_path):
        fixture_tree("repro/chain/bad.py", BAD_WEI)
        fixture_tree("repro/chain/good.py", GOOD_WEI)
        findings = lint_paths([tmp_path / "src"], LintConfig())
        assert [f.rule_id for f in findings] == ["R001"]
        assert findings[0].path.endswith("bad.py")
        assert findings[0].line == 3

    def test_syntax_error_reported_not_raised(self, fixture_tree,
                                              tmp_path):
        fixture_tree("repro/chain/broken.py", "def broken(:\n")
        findings = lint_paths([tmp_path / "src"], LintConfig())
        assert [f.rule_id for f in findings] == ["E000"]

    def test_exclude_globs(self, fixture_tree, tmp_path):
        fixture_tree("repro/chain/vendored/junk.py", BAD_WEI)
        config = LintConfig(exclude=["*/vendored/*"])
        assert lint_paths([tmp_path / "src"], config) == []

    def test_enable_subset(self, fixture_tree, tmp_path):
        fixture_tree("repro/chain/bad.py", BAD_WEI)
        config = LintConfig(enable=["R002"])
        assert lint_paths([tmp_path / "src"], config) == []

    def test_event_schema_resolved_from_tree(self, fixture_tree,
                                             tmp_path):
        fixture_tree("repro/core/heuristics/bad.py", """
            from repro.chain.events import SwapEvent

            def gain(event: SwapEvent) -> int:
                return event.amount_inn
            """)
        findings = lint_paths([tmp_path / "src"], LintConfig())
        assert [f.rule_id for f in findings] == ["R004"]


class TestReporters:
    @pytest.fixture
    def findings(self, fixture_tree, tmp_path):
        fixture_tree("repro/chain/bad.py", BAD_WEI)
        return lint_paths([tmp_path / "src"], LintConfig())

    def test_text_report(self, findings):
        text = render_text(findings)
        assert "R001" in text
        assert "bad.py:3" in text
        assert "1 finding" in text

    def test_text_report_empty(self):
        assert "no findings" in render_text([])

    def test_json_report(self, findings):
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        entry = payload["findings"][0]
        assert entry["rule"] == "R001"
        assert entry["line"] == 3
        assert entry["severity"] == "error"
        assert entry["path"].endswith("bad.py")
        assert "message" in entry


class TestConfigLoading:
    def test_pyproject_section_parsed(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("""
[tool.repro-lint]
enable = ["r001", "R003"]
exclude = ["src/vendor"]

[tool.repro-lint.rules.R003]
allow = ["repro.sim.calendar"]
""")
        config = load_config(search_from=tmp_path)
        assert config.enable == ["R001", "R003"]
        assert config.exclude == ["src/vendor"]
        assert config.options_for("R003")["allow"] == \
            ["repro.sim.calendar"]

    def test_missing_section_yields_defaults(self, tmp_path):
        from repro.lint.config import DEFAULT_RULES
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        config = load_config(search_from=tmp_path)
        assert config.enable == list(DEFAULT_RULES)

    def test_repo_pyproject_enables_all_rules(self):
        from repro.lint import all_rules
        from tests.lint.conftest import REPO_ROOT
        config = load_config(pyproject=REPO_ROOT / "pyproject.toml")
        assert config.enable == sorted(all_rules())


class TestCli:
    def test_exit_zero_on_clean_tree(self, fixture_tree, tmp_path,
                                     capsys):
        fixture_tree("repro/chain/good.py", GOOD_WEI)
        code = lint_main([str(tmp_path / "src"), "--no-config"])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, fixture_tree, tmp_path,
                                  capsys):
        fixture_tree("repro/chain/bad.py", BAD_WEI)
        code = lint_main([str(tmp_path / "src"), "--no-config"])
        assert code == 1
        assert "R001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        code = lint_main([str(tmp_path / "nope"), "--no-config"])
        assert code == 2

    def test_json_format(self, fixture_tree, tmp_path, capsys):
        fixture_tree("repro/chain/bad.py", BAD_WEI)
        code = lint_main([str(tmp_path / "src"), "--no-config",
                          "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_select_subset(self, fixture_tree, tmp_path, capsys):
        fixture_tree("repro/chain/bad.py", BAD_WEI)
        code = lint_main([str(tmp_path / "src"), "--no-config",
                          "--select", "R002"])
        assert code == 0

    def test_unknown_rule_id_exits_two(self, fixture_tree, tmp_path,
                                       capsys):
        fixture_tree("repro/chain/bad.py", BAD_WEI)
        code = lint_main([str(tmp_path / "src"), "--no-config",
                          "--select", "R999"])
        assert code == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005"):
            assert rule_id in out

    def test_repo_source_tree_is_clean(self):
        """The merged tree must lint clean under every rule."""
        from tests.lint.conftest import REPO_ROOT
        config = load_config(pyproject=REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "src"], config)
        assert findings == [], render_text(findings)

    def test_lint_from_another_directory_finds_the_tests(self,
                                                         monkeypatch,
                                                         capsys):
        """R102 reads the tests root the pyproject names, wherever
        the linter is started from."""
        from tests.lint.conftest import REPO_ROOT
        monkeypatch.chdir(REPO_ROOT / "src")
        assert lint_main(["repro", "--select", "R102"]) == 0, \
            capsys.readouterr().out

    def test_relative_config_paths_resolve_against_pyproject(
            self, tmp_path, monkeypatch):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nevents_path = "src/events.py"\n'
            '[tool.repro-lint.rules.R102]\ntests-root = "tests"\n')
        monkeypatch.chdir(tmp_path.parent)
        config = load_config(pyproject=tmp_path / "pyproject.toml")
        base = tmp_path.resolve()
        assert config.events_path == str(base / "src" / "events.py")
        assert config.options_for("R102")["tests-root"] == \
            str(base / "tests")


class TestDegeneratePackages:
    """The CLI must survive packages that barely parse: empty
    ``__init__.py`` files everywhere and modules with syntax errors."""

    def build(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "chain"
        pkg.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "broken.py").write_text("def broken(:\n")
        (pkg / "mangled.py").write_text("class :\n    pass\n")
        (pkg / "fine.py").write_text(GOOD_WEI)
        return tmp_path / "src"

    def test_syntax_errors_become_findings_not_crashes(self, tmp_path,
                                                       capsys):
        code = lint_main([str(self.build(tmp_path)), "--no-config"])
        out = capsys.readouterr().out
        assert code == 1
        assert "broken.py:1" in out
        assert "mangled.py:1" in out
        assert "E000×2" in out

    def test_empty_inits_lint_clean(self, tmp_path, capsys):
        src = tmp_path / "src" / "repro" / "chain"
        src.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (src / "__init__.py").write_text("")
        code = lint_main([str(tmp_path / "src"), "--no-config"])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_report_carries_syntax_findings(self, tmp_path,
                                                 capsys):
        code = lint_main([str(self.build(tmp_path)), "--no-config",
                          "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["count"] == 2
        assert {e["rule"] for e in payload["findings"]} == {"E000"}

    def test_deep_mode_skips_unparseable_and_survives(self, tmp_path,
                                                      capsys):
        code = lint_main([str(self.build(tmp_path)), "--no-config",
                          "--select", "R001,R002,R003,R004,R005,"
                                      "R006,R007,R101,R102,R103"])
        out = capsys.readouterr().out
        assert code == 1
        assert "broken.py:1" in out
        assert "mangled.py:1" in out


class TestReproCliIntegration:
    def test_repro_lint_subcommand(self, fixture_tree, tmp_path,
                                   capsys):
        from repro.cli import main as repro_main
        fixture_tree("repro/chain/bad.py", BAD_WEI)
        code = repro_main(["lint", str(tmp_path / "src")])
        assert code == 1
        assert "R001" in capsys.readouterr().out
