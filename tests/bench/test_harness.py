"""Schema and gate tests for the benchmark harness.

Small scenarios only — these tests check the *shape* of the report
(stages, gates, the serve and shard blocks, profile tables) and that
the gates are actually wired to the data they claim to check, never
wall-clock numbers.  One plain and one profiled report are shared by
the whole module: every bench run runs every stage.
"""

import json
import os

import pytest

from repro.bench import BENCH_VERSION, render_report, run_bench, \
    write_report
from repro.bench import harness
from repro.bench.harness import SERVE_REQUESTS, SHARD_WORKERS, \
    _scale_flat_gate
from tests.bench import complete_report

SMALL = dict(bpm=3, seed=5, workers=(1, 2), quick=False)

STAGES = ["simulate", "detection_indexed", "detection_linear", "stream",
          "serve", "shard"]


@pytest.fixture(scope="module")
def counted_run():
    """The shared plain report, and the ``fast_paths`` flag of every
    world ``run_bench`` built for it."""
    builds = []
    real = harness.build_paper_scenario

    def counting(*args, **kwargs):
        builds.append(kwargs.get("fast_paths", True))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "build_paper_scenario", counting)
        return run_bench(**SMALL), builds


@pytest.fixture(scope="module")
def report(counted_run):
    return counted_run[0]


@pytest.fixture(scope="module")
def profiled():
    return run_bench(profile=True, **SMALL)


class TestReportSchema:
    def test_document_schema(self, report, tmp_path):
        assert report["version"] == BENCH_VERSION == 10
        assert [s["stage"] for s in report["stages"]] == STAGES
        # v10 moved the per-epoch rows and the scale_flat verdict from
        # ``shard`` to ``simulate`` and dropped ``shard.seal_pass_s``.
        assert "epoch_telemetry" not in report["shard"]
        assert "seal_pass_s" not in report["shard"]
        assert "world_cache" not in report  # removed in v9
        simulate = report["stages"][0]
        assert "fresh" not in simulate
        assert simulate["blocks_per_s"] > 0
        assert report["simulate_s"] == simulate["elapsed_s"] > 0
        assert report["lint_s"] > 0  # syntactic self-lint, since v4
        assert "profile" not in report  # only on request
        # Since v8 the machine block pins the host, not just its core
        # count — two BENCH files are only comparable when these match.
        machine = report["machine"]
        assert machine["cpu_count"] >= 1
        assert machine["platform"]  # non-empty platform string
        assert machine["python_version"].count(".") == 2
        # Every stage runs on every call: no block is null.
        assert report["serve"] is not None
        assert report["shard"] is not None
        for stage in report["stages"]:
            assert stage["blocks"] == report["scenario"]["blocks"]
        # The document round-trips as JSON (CI parses it).
        path = tmp_path / "bench.json"
        write_report(report, path)
        assert json.loads(path.read_text()) == report

    def test_every_stage_reports_worker_honesty(self, report):
        """Since v7 every stage row carries both the requested and the
        machine-clamped effective worker count, so CI can tell a real
        speedup apart from a single-core degradation."""
        cpus = os.cpu_count() or 1
        for stage in report["stages"]:
            assert stage["workers_requested"] >= 1
            assert 1 <= stage["workers_effective"] <= \
                min(stage["workers_requested"], cpus)
        for entry in report["end_to_end"]:
            assert entry["workers_effective"] == \
                min(entry["workers_requested"], cpus)

    def test_fast_vs_reference_gate_runs_and_passes(self, report):
        assert report["sim_identical"] is True
        assert report["sim_reference_s"] > 0
        assert report["parallel_identical"] is True
        assert report["indexed_matches_linear"] is True
        assert report["stream_identical"] is True
        stream = report["stream"]
        assert stream["events"] >= stream["reorgs"]
        assert stream["lag_p99_blocks"] >= stream["lag_p50_blocks"]
        # a skipped rescan reuses a payload some retraction kept
        assert 0 <= stream["rescans_skipped"] <= stream["retracted_blocks"]
        summary = render_report(report)
        assert "not run" not in summary
        assert "NO —" not in summary

    def test_one_bench_run_builds_two_worlds(self, counted_run):
        """The timed world and the ``fast_paths=False`` reference; the
        seals and per-epoch rows come from the timed one."""
        _, builds = counted_run
        assert sorted(builds) == [False, True]

    def test_profile_tables_cover_every_stage(self, profiled):
        assert set(profiled["profile"]) == set(STAGES)
        for table in profiled["profile"].values():
            assert "cumulative" in table  # a real pstats table


class TestServeStage:
    def test_serve_block_and_identity_gate(self, report):
        assert report["serve_identical"] is True
        serve = report["serve"]
        assert serve["seed"] == SMALL["seed"]
        # walks and conditional revalidations add extra requests
        assert serve["requests"] >= SERVE_REQUESTS
        assert serve["errors"] == 0
        assert serve["qps"] > 0
        assert serve["p99_ms"] >= serve["p50_ms"] > 0
        assert serve["connections"] > 0
        assert sum(serve["by_kind"].values()) == SERVE_REQUESTS
        # The serve stage rode a genuinely hostile stream.
        assert report["stream"]["reorgs"] > 0
        assert report["stream_identical"] is True


class TestShardStage:
    def test_shard_block_and_identity_gate(self, report):
        assert report["shard_identical"] is True
        shard = report["shard"]
        assert shard["scope"] == "full"
        assert shard["epochs"] == shard["resimulated_epochs"] > 0
        assert shard["epoch_blocks"] == SMALL["bpm"]
        assert shard["workers_requested"] == SHARD_WORKERS
        assert shard["workers_effective"] >= 1
        row = next(s for s in report["stages"] if s["stage"] == "shard")
        assert row["workers_requested"] == SHARD_WORKERS
        # The shard stage runs last; it must not perturb the gates the
        # earlier stages already decided.
        assert report["sim_identical"] is True
        assert report["parallel_identical"] is True

    def test_epoch_telemetry_and_scale_flat(self, report):
        """Since v10 the ``simulate`` stage reports one telemetry row
        per epoch (throughput + resident set) and judges the scale_flat
        verdict on activity-saturated epochs only."""
        simulate = report["simulate"]
        telemetry = simulate["epoch_telemetry"]
        assert len(telemetry) == report["shard"]["epochs"]
        assert sum(row["blocks"] for row in telemetry) == \
            report["scenario"]["blocks"]
        for index, row in enumerate(telemetry):
            assert row["epoch"] == index
            assert row["blocks"] == report["shard"]["epoch_blocks"]
            assert row["blocks_per_s"] > 0
            assert row["rss_mb"] is None or row["rss_mb"] > 0
        # Toy epochs are microseconds long, so the verdict itself is
        # noise — the schema contract is that it is judged (or honestly
        # skipped), never absent.
        assert simulate["scale_flat"] in (True, False, None)
        # The per-epoch seals feed the same chain as one uninterrupted
        # run: the splice gate passed above it.
        assert report["shard_identical"] is True


class TestScaleFlatSummary:
    """The scale-flat verdict compares the median throughput of the
    first and last quarter of activity-saturated epochs, and its
    summary line quotes the epochs it compared — never epoch 0."""

    @staticmethod
    def synthetic_report(saturated_rates):
        from repro.sim.world import activity_saturation_month

        saturated = activity_saturation_month()
        rates = [1631.0] * saturated + list(saturated_rates)
        telemetry = [{"epoch": epoch, "blocks": 60, "elapsed_s": 0.05,
                      "blocks_per_s": rate, "rss_mb": 90.0}
                     for epoch, rate in enumerate(rates)]
        report = complete_report(
            scenario={"blocks": 60 * len(rates),
                      "blocks_per_month": 60, "seed": 7,
                      "chunks": 1, "chunk_size": 60 * len(rates)})
        report["shard"].update(
            epochs=len(rates), resimulated_epochs=len(rates),
            epoch_blocks=60)
        report["simulate"] = {
            "epoch_telemetry": telemetry,
            "scale_flat": _scale_flat_gate(telemetry, 60, 60)}
        return report, saturated

    @staticmethod
    def scale_flat_line(report):
        return next(line for line in render_report(report).splitlines()
                    if "scale-flat" in line)

    def test_line_quotes_first_saturated_epoch(self):
        report, saturated = self.synthetic_report([1212.0, 1100.0, 529.0])
        line = self.scale_flat_line(report)
        assert "NO" in line
        assert f"(epoch {saturated}: 1212.0 blocks/s" in line
        assert f"epoch {saturated + 2}: 529.0 blocks/s" in line
        assert "epoch 0:" not in line

    def test_saturated_decay_to_seventy_percent_is_judged_no(self):
        report, saturated = self.synthetic_report(
            [1000.0] * 6 + [700.0] * 6)
        assert report["simulate"]["scale_flat"] is False
        line = self.scale_flat_line(report)
        assert "scale-flat: NO" in line
        assert (f"(epochs {saturated}–{saturated + 2} median: "
                f"1000.0 blocks/s") in line
        assert (f"epochs {saturated + 9}–{saturated + 11} median: "
                f"700.0 blocks/s") in line

    @pytest.mark.parametrize("rates", [
        [1000.0] * 11 + [500.0],   # one slow last epoch
        [2000.0] + [1000.0] * 11,  # one fast first epoch
    ], ids=["slow-last", "fast-first"])
    def test_one_outlier_endpoint_epoch_is_judged_flat(self, rates):
        """The per-epoch rows are ~100 ms long on the default world:
        one noisy endpoint epoch must not flip the verdict."""
        report, _ = self.synthetic_report(rates)
        assert report["simulate"]["scale_flat"] is True
        assert "scale-flat: yes" in self.scale_flat_line(report)

    def test_unjudged_gate_is_reported_skipped(self):
        report, _ = self.synthetic_report([1212.0, 1100.0, 529.0])
        report["simulate"]["scale_flat"] = None
        assert "scale-flat: skipped" in render_report(report)

    def test_one_saturated_epoch_is_not_judged(self):
        report, _ = self.synthetic_report([1212.0])
        assert report["simulate"]["scale_flat"] is None
        assert "scale-flat: skipped" in render_report(report)
