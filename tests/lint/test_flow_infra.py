"""Deep-mode infrastructure: suppressions, SARIF, baseline, CLI."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig
from repro.lint.cli import main as lint_main
from repro.lint.findings import Finding
from repro.lint.flow import (
    FLOW_RULES,
    filter_baselined,
    load_baseline,
    run_deep,
    write_baseline,
)
from repro.lint.reporters import render_sarif

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flow"

R103_OPTIONS = {"R103": {"roots": ["proj.engine:Runner.run_chunk"],
                         "allow-globals": []}}


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
        config = LintConfig(rule_options=R103_OPTIONS)
        return run_deep([proj], config,
                        tests_root=str(tmp_path)).findings

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
        meta = dict(FLOW_RULES)
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


class TestBaseline:
    def test_round_trip_and_filter(self, tmp_path):
        old = Finding(path="a.py", line=10, rule_id="R103",
                      message="known issue")
        new = Finding(path="a.py", line=20, rule_id="R101",
                      message="fresh issue")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, [old])
        accepted = load_baseline(baseline_path)
        remaining = filter_baselined([old, new], accepted)
        assert remaining == [new]

    def test_line_drift_does_not_resurrect(self, tmp_path):
        old = Finding(path="a.py", line=10, rule_id="R103",
                      message="known issue")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, [old])
        moved = Finding(path="a.py", line=99, rule_id="R103",
                        message="known issue")
        accepted = load_baseline(baseline_path)
        assert filter_baselined([moved], accepted) == []

    def test_bad_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestDeepCli:
    def test_deep_findings_fail_the_run(self, tmp_path, capsys):
        code = lint_main([str(FIXTURES / "r101_tp" / "proj"),
                          "--deep", "--no-config",
                          "--tests-root", str(tmp_path)])
        out = capsys.readouterr()
        assert code == 1
        assert "R101" in out.out
        assert "deep-lint:" in out.err  # stats on stderr, not stdout

    def test_clean_fixture_exits_zero(self, tmp_path):
        code = lint_main([str(FIXTURES / "r101_tn" / "proj"),
                          "--deep", "--no-config",
                          "--tests-root", str(tmp_path)])
        assert code == 0

    def test_sarif_output_parses(self, tmp_path, capsys):
        code = lint_main([str(FIXTURES / "r101_tp" / "proj"),
                          "--deep", "--no-config", "--format", "sarif",
                          "--tests-root", str(tmp_path)])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert code == 1
        assert document["runs"][0]["results"]
        listed = {r["id"]
                  for r in document["runs"][0]["tool"]["driver"]["rules"]}
        assert {"R101", "R102", "R103"} <= listed

    def test_baseline_workflow(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = [str(FIXTURES / "r101_tp" / "proj"), "--deep",
                "--no-config", "--tests-root", str(tmp_path),
                "--baseline", str(baseline)]
        assert lint_main(args + ["--write-baseline"]) == 0
        capsys.readouterr()
        # identical findings now baselined: the run is clean
        assert lint_main(args) == 0
        out = capsys.readouterr()
        assert "no findings" in out.out

    def test_write_baseline_requires_baseline(self, capsys):
        assert lint_main(["--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_list_rules_includes_flow_analyzers(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R101", "R102", "R103"):
            assert rule_id in out
        assert "--deep" in out


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
