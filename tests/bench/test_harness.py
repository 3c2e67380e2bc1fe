"""Schema and gate tests for the benchmark harness.

Small scenarios only — these tests check the *shape* of the report
(stages, gates, the serve and shard blocks, profile tables) and that
the gates are actually wired to the data they claim to check, never
wall-clock numbers.
"""

import json
import os

from repro.bench import BENCH_VERSION, render_report, run_bench, \
    write_report

SMALL = dict(bpm=3, seed=5, workers=(1, 2), quick=False)


class TestReportSchema:
    def test_document_schema(self, tmp_path):
        report = run_bench(**SMALL)
        assert report["version"] == BENCH_VERSION == 9
        stage_names = [s["stage"] for s in report["stages"]]
        assert stage_names == ["simulate", "detection_indexed",
                               "detection_linear", "stream"]
        # v9 removed keys only: the subtracted detection/joins rows,
        # the world-snapshot cache block and the simulate stage's
        # ``fresh`` flag.
        assert "world_cache" not in report
        simulate = report["stages"][0]
        assert "fresh" not in simulate
        assert simulate["blocks_per_s"] > 0
        assert report["simulate_s"] > 0
        assert report["lint_s"] > 0  # syntactic self-lint, since v4
        assert "profile" not in report  # only on request
        # Since v8 the machine block pins the host, not just its core
        # count — two BENCH files are only comparable when these match.
        machine = report["machine"]
        assert machine["cpu_count"] >= 1
        assert machine["platform"]  # non-empty platform string
        assert machine["python_version"].count(".") == 2
        # Without --serve/--shard the blocks are explicitly null, not
        # absent — CI parses every key unconditionally.
        assert report["serve"] is None
        assert report["serve_identical"] is None
        assert report["shard"] is None
        assert report["shard_identical"] is None
        assert "serve" not in stage_names
        assert "shard" not in stage_names
        # The document round-trips as JSON (CI parses it).
        path = tmp_path / "bench.json"
        write_report(report, path)
        assert json.loads(path.read_text())["version"] == 9

    def test_every_stage_reports_worker_honesty(self):
        """Since v7 every stage row carries both the requested and the
        machine-clamped effective worker count, so CI can tell a real
        speedup apart from a single-core degradation."""
        report = run_bench(**SMALL)
        cpus = os.cpu_count() or 1
        for stage in report["stages"]:
            assert stage["workers_requested"] >= 1
            assert 1 <= stage["workers_effective"] <= \
                min(stage["workers_requested"], cpus)
        for entry in report["end_to_end"]:
            assert entry["workers_effective"] == \
                min(entry["workers_requested"], cpus)

    def test_fast_vs_reference_gate_runs_and_passes(self):
        report = run_bench(**SMALL)
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

    def test_profile_tables_cover_every_stage(self):
        report = run_bench(profile=True, **SMALL)
        stage_names = {s["stage"] for s in report["stages"]}
        assert set(report["profile"]) == stage_names
        for table in report["profile"].values():
            assert "cumulative" in table  # a real pstats table


class TestServeStage:
    def test_serve_block_and_identity_gate(self):
        report = run_bench(serve=True, serve_requests=80, **SMALL)
        assert report["serve_identical"] is True
        stage_names = [s["stage"] for s in report["stages"]]
        assert "serve" in stage_names
        serve = report["serve"]
        assert serve["seed"] == SMALL["seed"]
        # walks and conditional revalidations add extra requests
        assert serve["requests"] >= 80
        assert serve["errors"] == 0
        assert serve["qps"] > 0
        assert serve["p99_ms"] >= serve["p50_ms"] > 0
        assert serve["connections"] > 0
        assert sum(serve["by_kind"].values()) == 80
        # The serve stage rode a genuinely hostile stream.
        assert report["stream"]["reorgs"] > 0
        assert report["stream_identical"] is True


class TestShardStage:
    def test_shard_block_and_identity_gate(self):
        report = run_bench(shard=True, shard_workers=2, **SMALL)
        assert report["shard_identical"] is True
        stage_names = [s["stage"] for s in report["stages"]]
        assert "shard" in stage_names
        shard = report["shard"]
        assert shard["scope"] == "full"
        assert shard["epochs"] == shard["resimulated_epochs"] > 0
        assert shard["epoch_blocks"] == SMALL["bpm"]
        assert shard["seal_pass_s"] > 0
        assert shard["workers_requested"] == 2
        assert shard["workers_effective"] >= 1
        row = next(s for s in report["stages"] if s["stage"] == "shard")
        assert row["workers_requested"] == 2
        # The shard stage runs last; it must not perturb the gates the
        # earlier stages already decided.
        assert report["sim_identical"] is True
        assert report["parallel_identical"] is True

    def test_epoch_telemetry_and_scale_flat(self):
        """Since v8 the seal pass reports one telemetry row per epoch
        (throughput + resident set) and judges the scale_flat gate on
        activity-saturated epochs only."""
        report = run_bench(shard=True, **SMALL)
        shard = report["shard"]
        telemetry = shard["epoch_telemetry"]
        assert len(telemetry) == shard["epochs"]
        for index, row in enumerate(telemetry):
            assert row["epoch"] == index
            assert row["blocks"] == shard["epoch_blocks"]
            assert row["blocks_per_s"] > 0
            assert row["rss_mb"] is None or row["rss_mb"] > 0
        # Toy epochs are microseconds long, so the verdict itself is
        # noise — the schema contract is that it is judged (or honestly
        # skipped), never absent.
        assert shard["scale_flat"] in (True, False, None)
        # The telemetry pass feeds the same seals as one uninterrupted
        # collect_seals run: the splice gate passed above it.
        assert report["shard_identical"] is True

    def test_profile_adds_per_epoch_shard_tables(self):
        report = run_bench(shard=True, shard_prefix_epochs=1,
                           profile=True, **SMALL)
        epoch_tables = [name for name in report["profile"]
                        if name.startswith("shard_epoch[")]
        assert len(epoch_tables) == report["shard"]["epochs"]
        for name in epoch_tables + ["shard"]:
            assert "cumulative" in report["profile"][name]

    def test_prefix_scope(self):
        report = run_bench(shard=True, shard_prefix_epochs=2, **SMALL)
        assert report["shard_identical"] is True
        shard = report["shard"]
        assert shard["resimulated_epochs"] == 2
        assert shard["scope"] == "prefix[2]"
        row = next(s for s in report["stages"] if s["stage"] == "shard")
        assert row["blocks"] == 2 * SMALL["bpm"]



class TestScaleFlatSummary:
    """The scale-flat summary line quotes the baseline the gate used:
    the first activity-saturated epoch, not epoch 0."""

    @staticmethod
    def synthetic_report():
        from repro.sim.world import activity_saturation_month

        saturated = activity_saturation_month()
        rates = [1631.0] * saturated + [1212.0, 1100.0, 529.0]
        telemetry = [{"epoch": epoch, "blocks": 60, "elapsed_s": 0.05,
                      "blocks_per_s": rate, "rss_mb": 90.0}
                     for epoch, rate in enumerate(rates)]
        return {
            "scenario": {"blocks": 60 * len(rates),
                         "blocks_per_month": 60, "seed": 7,
                         "chunks": 1, "chunk_size": 60 * len(rates)},
            "machine": {"cpu_count": 2},
            "simulate_s": 1.0,
            "stages": [],
            "end_to_end": [],
            "shard": {"epochs": len(rates), "resimulated_epochs":
                      len(rates), "scope": "full", "epoch_blocks": 60,
                      "workers_requested": 2, "workers_effective": 2,
                      "epoch_telemetry": telemetry,
                      "scale_flat": False},
        }, saturated

    def test_line_quotes_first_saturated_epoch(self):
        report, saturated = self.synthetic_report()
        line = next(line for line in render_report(report).splitlines()
                    if "scale-flat" in line)
        assert "NO" in line
        assert f"(epoch {saturated}: 1212.0 blocks/s" in line
        assert f"epoch {saturated + 2}: 529.0 blocks/s" in line
        assert "epoch 0:" not in line

    def test_unjudged_gate_is_reported_skipped(self):
        report, _ = self.synthetic_report()
        report["shard"]["scale_flat"] = None
        assert "scale-flat: skipped" in render_report(report)
