"""R101/R102/R103 against the seeded fixture packages.

Every ``*_tp`` fixture must produce its seeded findings; every paired
``*_tn`` fixture must produce **zero** (the analyzers' false-positive
budget on these shapes is exactly nothing).
"""

from pathlib import Path

import pytest

from repro.lint import LintConfig
from repro.lint.flow import run_deep

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flow"


def deep(fixture: str, rule_options=None, tests_root=None):
    config = LintConfig(rule_options=rule_options or {})
    report = run_deep([FIXTURES / fixture / "proj"], config,
                      tests_root=tests_root)
    return report.findings


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestR101Taint:
    def test_true_positives(self, tmp_path):
        findings = deep("r101_tp", tests_root=str(tmp_path))
        taint = by_rule(findings, "R101")
        assert len(taint) == 2
        paths = {f.path for f in taint}
        assert all(path.endswith("emit.py") for path in paths)
        messages = " | ".join(f.message for f in taint)
        assert "hash_of" in messages
        assert "time.time()" in messages
        # the two-hop flow names the intermediate helper it crossed
        assert "via " in messages

    def test_true_negatives(self, tmp_path):
        findings = deep("r101_tn", tests_root=str(tmp_path))
        assert by_rule(findings, "R101") == []

    def test_sanctioned_list_silences_a_source(self, tmp_path):
        options = {"R101": {
            "sanctioned": ["proj.clock:stamp", "proj.clock:jitter"]}}
        findings = deep("r101_tp", rule_options=options,
                        tests_root=str(tmp_path))
        assert by_rule(findings, "R101") == []


class TestR102Pairing:
    def test_true_positives(self, tmp_path):
        findings = by_rule(
            deep("r102_tp", tests_root=str(tmp_path)), "R102")
        messages = [f.message for f in findings]
        assert any("lost_reference" in m and "no such" in m
                   for m in messages)
        assert any("toggle='indexed'" in m and "never consults" in m
                   for m in messages)
        assert any("no test" in m and "walk_reference" in m
                   for m in messages)
        assert any("bypasses" in m and "scan_reference" in m
                   for m in messages)
        bypass = [f for f in findings if "bypasses" in f.message]
        assert bypass[0].path.endswith("bypass.py")

    def test_true_negatives(self):
        tests_root = str(FIXTURES / "r102_tn" / "tests")
        findings = deep("r102_tn", tests_root=tests_root)
        assert by_rule(findings, "R102") == []

    def test_missing_equivalence_coverage_flags(self, tmp_path):
        # same well-formed pairs, but pointed at an empty test tree
        findings = by_rule(
            deep("r102_tn", tests_root=str(tmp_path)), "R102")
        assert len(findings) == 2
        assert any("ordered_reference" in f.message for f in findings)
        assert any("fast_paths=False" in f.message for f in findings)


R103_ROOTS = {"R103": {
    "roots": ["proj.engine:Runner.run_chunk",
              "proj.engine:Executor.execute",
              "proj.engine:_init"],
    "allow-globals": ["proj.engine._WORKER"],
}}


class TestR103Parallel:
    def test_true_positives(self, tmp_path):
        findings = by_rule(
            deep("r103_tp", rule_options=R103_ROOTS,
                 tests_root=str(tmp_path)), "R103")
        messages = [f.message for f in findings]
        assert len(findings) == 3
        assert any("COUNTER" in m for m in messages)
        assert any("CACHE" in m and "shared" in m for m in messages)
        assert any("lambda" in m and "pickled" in m for m in messages)
        # reachability witness names the root
        assert any("run_chunk" in m for m in messages)

    def test_true_negatives(self, tmp_path):
        findings = by_rule(
            deep("r103_tn", rule_options=R103_ROOTS,
                 tests_root=str(tmp_path)), "R103")
        assert findings == []

    def test_allow_list_is_load_bearing(self, tmp_path):
        options = {"R103": {
            "roots": R103_ROOTS["R103"]["roots"],
            "allow-globals": []}}
        findings = by_rule(
            deep("r103_tn", rule_options=options,
                 tests_root=str(tmp_path)), "R103")
        assert len(findings) == 1
        assert "_WORKER" in findings[0].message


class TestRepoIsDeepClean:
    def test_src_tree_has_no_deep_findings(self):
        repo_root = Path(__file__).resolve().parents[2]
        from repro.lint import load_config
        config = load_config(pyproject=repo_root / "pyproject.toml")
        report = run_deep(
            [repo_root / "src"], config,
            tests_root=str(repo_root / "tests"))
        assert report.findings == []
        # all four registered fast-path modules were seen
        assert report.modules > 50
        assert report.functions > 500

    def test_all_known_pairs_are_registered(self):
        """The PR-5 pairs must carry @fast_path markers (R102 scope)."""
        repo_root = Path(__file__).resolve().parents[2]
        from repro.lint import LintConfig as Cfg
        from repro.lint.flow.project import load_project
        project = load_project([repo_root / "src"], Cfg())
        marked = set()
        for name, fn in project.functions.items():
            if any(d.get("name") == "fast_path"
                   for d in fn.decorators):
                marked.add(name)
        assert "repro.chain.mempool:Mempool.ordered" in marked
        assert "repro.chain.node:ArchiveNode.iter_blocks" in marked
        assert "repro.agents.searcher:Searcher._probe_cycle" in marked \
            or ("repro.agents.searcher:ArbitrageSearcher._probe_cycle"
                in marked)
        assert "repro.sim.world:World._run_searchers" in marked
        assert "repro.sim.world:World._self_mev_sequences" in marked
        assert "repro.sim.scenario:build_paper_scenario" in marked
