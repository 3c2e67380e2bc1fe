"""Smoke test for the benchmark harness (quick scenario).

Asserts the report's schema and every identity gate — parallel ≡
serial, indexed reads ≡ linear scan, stream, serve and shard — not
any wall-clock number: speed depends on the machine, correctness
never does.
"""

import json

from repro.bench import BENCH_VERSION, GATES, render_report, \
    run_bench, write_report

EXPECTED_STAGES = {"simulate", "detection_indexed", "detection_linear",
                   "stream", "serve", "shard"}


class TestBenchSmoke:
    def test_quick_bench_report(self, tmp_path):
        report = run_bench(quick=True, workers=(1, 2))

        assert report["version"] == BENCH_VERSION
        for key, _ in GATES:
            assert report[key] is True, key
        assert report["serve"] is not None
        assert report["shard"]["scope"] == "full"
        assert report["machine"]["cpu_count"] >= 1
        assert "world_cache" not in report  # deleted in v9

        scenario = report["scenario"]
        assert scenario["quick"] is True
        assert scenario["blocks"] > 0
        assert scenario["chunks"] > 1

        stages = {s["stage"] for s in report["stages"]}
        assert stages == EXPECTED_STAGES
        for stage in report["stages"]:
            assert stage["blocks"] == scenario["blocks"]
            assert stage["elapsed_s"] >= 0

        by_workers = {e["workers"]: e for e in report["end_to_end"]}
        assert set(by_workers) == {1, 2}
        assert all(e["identical_to_serial"]
                   for e in report["end_to_end"])
        assert by_workers[1]["speedup_vs_serial"] == 1.0
        for entry in report["end_to_end"]:
            assert 1 <= entry["workers_effective"] <= entry["workers"]

        out = tmp_path / "BENCH_pipeline.json"
        write_report(report, out)
        assert json.loads(out.read_text(encoding="utf-8")) == report

        summary = render_report(report)
        for key, _ in GATES:
            assert f"{key}: yes" in summary
