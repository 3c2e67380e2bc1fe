"""R101/R102/R103 against the seeded fixture packages.

Every ``*_tp`` fixture must produce its seeded findings; every paired
``*_tn`` fixture must produce **zero** (the analyzers' false-positive
budget on these shapes is exactly nothing).
"""

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flow"

PROJECT_RULES = ["R101", "R102", "R103"]


def deep(fixture: str, rule_options=None, tests_root=None):
    """The fixture's findings from the three project rules."""
    options = dict(rule_options or {})
    if tests_root is not None:
        options["R102"] = {**options.get("R102", {}),
                           "tests-root": tests_root}
    config = LintConfig(enable=PROJECT_RULES, rule_options=options)
    return lint_paths([FIXTURES / fixture / "proj"], config)


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

    def test_set_algebra_iteration_reaches_the_sink(self, tmp_path):
        """``for x in a | b`` walks hash order exactly like a set
        literal; R101 shares R002's set-expression check."""
        findings = by_rule(deep("r101_setops", tests_root=str(tmp_path)),
                           "R101")
        assert len(findings) == 1
        assert "iteration over a set expression" in findings[0].message
        assert "hash_of" in findings[0].message

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


def r103_options(*roots, allow=("proj.engine._WORKER",)):
    return {"R103": {"roots": ["proj.engine:Runner.run_chunk", *roots],
                     "allow-globals": list(allow)}}


#: each fixture's roots name only functions it defines: a root that
#: does not resolve is a finding of its own
R103_TP = r103_options("proj.engine:Executor.execute")
R103_TN = r103_options("proj.engine:_init")


class TestR103Parallel:
    def test_true_positives(self, tmp_path):
        findings = by_rule(
            deep("r103_tp", rule_options=R103_TP,
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
            deep("r103_tn", rule_options=R103_TN,
                 tests_root=str(tmp_path)), "R103")
        assert findings == []

    def test_allow_list_is_load_bearing(self, tmp_path):
        options = r103_options("proj.engine:_init", allow=())
        findings = by_rule(
            deep("r103_tn", rule_options=options,
                 tests_root=str(tmp_path)), "R103")
        assert len(findings) == 1
        assert "_WORKER" in findings[0].message

    def test_unresolved_root_is_a_finding(self, tmp_path):
        """A renamed entry point must not drop out of R103 silently."""
        options = r103_options("proj.engine:_init",
                               "proj.engine:renamed_away")
        findings = by_rule(
            deep("r103_tn", rule_options=options,
                 tests_root=str(tmp_path)), "R103")
        assert len(findings) == 1
        assert "proj.engine:renamed_away" in findings[0].message
        assert "does not resolve" in findings[0].message
        assert findings[0].path.endswith("engine.py")


@pytest.fixture(scope="module")
def src_pass():
    """Findings and the :class:`Project` of one all-rules pass over
    ``src/`` with the repo's config (R102's tests root is relative)."""
    import repro.lint.engine as engine
    from repro.lint import load_config
    repo_root = Path(__file__).resolve().parents[2]
    built = []

    class Recording(engine.Project):
        def __init__(self):
            super().__init__()
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "Project", Recording)
        patch.chdir(repo_root)
        config = load_config(pyproject=repo_root / "pyproject.toml")
        findings = lint_paths([repo_root / "src"], config)
    assert len(built) == 1
    return findings, built[0]


class TestRepoIsDeepClean:
    def test_src_tree_has_no_deep_findings(self, src_pass):
        findings, project = src_pass
        assert findings == []
        # all four registered fast-path modules were seen
        assert len(project.modules) > 50
        assert len(project.functions) > 500

    def test_all_known_pairs_are_registered(self, src_pass):
        """The PR-5 pairs must carry @fast_path markers (R102 scope)."""
        _, project = src_pass
        marked = set()
        for name, fn in project.functions.items():
            if any(d.get("name") == "fast_path"
                   for d in fn.decorators):
                marked.add(name)
        assert "repro.chain.mempool:Mempool.ordered" in marked
        assert "repro.agents.searcher:Searcher._probe_cycle" in marked \
            or ("repro.agents.searcher:ArbitrageSearcher._probe_cycle"
                in marked)
        assert "repro.sim.world:World._run_searchers" in marked
        assert "repro.sim.world:World._self_mev_sequences" in marked
        assert "repro.sim.scenario:build_paper_scenario" in marked
