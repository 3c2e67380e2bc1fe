"""Project-rule infrastructure: one pass, suppressions, SARIF, CLI."""

import ast
import json
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import repro.lint.engine as engine
from repro.lint import LintConfig, all_rules, lint_paths
from repro.lint.cli import _rules_meta
from repro.lint.cli import main as lint_main
from repro.lint.findings import Finding
from repro.lint.reporters import render_sarif

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flow"

R103_OPTIONS = {"R103": {"roots": ["proj.engine:Runner.run_chunk"],
                         "allow-globals": []}}

ALL_RULES = ["R001", "R002", "R003", "R005", "R006", "R007",
             "R101", "R102", "R103"]


def write_proj(tmp_path, name, source):
    proj = tmp_path / "proj"
    proj.mkdir(exist_ok=True)
    (proj / "__init__.py").write_text("")
    (proj / name).write_text(textwrap.dedent(source))
    return proj


class TestDeepSuppression:
    UNSAFE = """
        G = dict()

        class Runner:
            def run_chunk(self, c):
                G[c] = 1@DIRECTIVE@
                return G
    """

    def run(self, tmp_path, directive=""):
        proj = write_proj(tmp_path, "engine.py",
                          self.UNSAFE.replace("@DIRECTIVE@",
                                              directive))
        config = LintConfig(enable=ALL_RULES,
                            rule_options=R103_OPTIONS)
        return lint_paths([proj], config)

    def test_finding_without_directive(self, tmp_path):
        findings = self.run(tmp_path)
        assert [f.rule_id for f in findings] == ["R103"]

    def test_inline_directive_silences_deep_finding(self, tmp_path):
        findings = self.run(tmp_path,
                            directive="  # repro-lint: disable=R103")
        assert findings == []


class TestSarif:
    def test_document_shape(self):
        findings = [Finding(path="src/x.py", line=3, rule_id="R101",
                            severity="error", message="tainted", col=4)]
        meta = {rule_id: entry for rule_id, entry in _rules_meta().items()
                if rule_id.startswith("R1")}
        document = json.loads(render_sarif(findings, meta))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["R101", "R102", "R103"]
        result = run["results"][0]
        assert result["ruleId"] == "R101"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 5}

    def test_empty_run_is_valid(self):
        document = json.loads(render_sarif([], {}))
        assert document["runs"][0]["results"] == []


class TestDeepCli:
    def test_deep_findings_fail_the_run(self, capsys):
        code = lint_main([str(FIXTURES / "r101_tp" / "proj"),
                          "--no-config", "--select", "R101"])
        out = capsys.readouterr()
        assert code == 1
        assert "R101" in out.out
        assert out.err == ""

    def test_clean_fixture_exits_zero(self):
        code = lint_main([str(FIXTURES / "r101_tn" / "proj"),
                          "--no-config", "--select", "R101,R103"])
        assert code == 0

    def test_sarif_output_parses(self, capsys):
        code = lint_main([str(FIXTURES / "r101_tp" / "proj"),
                          "--no-config", "--format", "sarif",
                          "--select", "R101"])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert code == 1
        assert document["runs"][0]["results"]
        listed = {r["id"]
                  for r in document["runs"][0]["tool"]["driver"]["rules"]}
        assert {"R101", "R102", "R103"} <= listed

    def test_list_rules_includes_flow_analyzers(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R101", "R102", "R103"):
            assert rule_id in out
        assert "--deep" not in out

    @pytest.mark.parametrize("flag", [
        ["--deep"], ["--baseline", "lint-baseline.json"],
        ["--write-baseline"], ["--tests-root", "tests"]])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["--no-config", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOnePass:
    def test_each_file_is_parsed_once(self, monkeypatch):
        """Per-module and project rules share one parse per file."""
        parsed = Counter()
        parse = ast.parse

        def counting(source, filename="<unknown>", *args, **kwargs):
            parsed[filename] += 1
            return parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        proj = FIXTURES / "r101_tp" / "proj"
        findings = lint_paths([proj], LintConfig(enable=ALL_RULES))
        files = sorted(proj.glob("*.py"))
        assert len(parsed) == len(files) == 4
        assert set(parsed.values()) == {1}
        assert {Path(name).name for name in parsed} == \
            {path.name for path in files}
        assert [f.rule_id for f in findings] == ["R101", "R101"]

    def test_select_runs_a_project_rule_alone(self, capsys):
        code = lint_main([str(FIXTURES / "r102_tp" / "proj"),
                          "--no-config", "--select", "R101"])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_per_module_rules_build_no_project(self, monkeypatch,
                                                capsys):
        def refuse():
            raise AssertionError("Project built for per-module rules")

        monkeypatch.setattr(engine, "Project", refuse)
        code = lint_main([str(FIXTURES / "r101_tp" / "proj"),
                          "--no-config", "--select", "R001"])
        assert code == 0
        assert lint_paths([FIXTURES / "r103_tp" / "proj"],
                          LintConfig()) == []

    def test_every_rule_comes_from_the_registry(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        listed = {line.split()[0]
                  for line in capsys.readouterr().out.splitlines()}
        assert listed == set(all_rules()) == set(_rules_meta()) \
            == set(ALL_RULES)


class TestMarkerRuntime:
    def test_fast_path_is_inert_and_introspectable(self):
        from repro.markers import FAST_PATH_ATTR, fast_path

        @fast_path(reference="slow", toggle="flag")
        def quick(x):
            return x + 1

        assert quick(1) == 2
        meta = getattr(quick, FAST_PATH_ATTR)
        assert meta["reference"] == "slow"
        assert meta["toggle"] == "flag"
        assert meta["tested_by"] is None
