"""Shared fixtures for the benchmark tests."""

from typing import Any, Dict


def complete_report(**overrides: Any) -> Dict[str, Any]:
    """A minimal benchmark document with every key ``render_report``
    and ``repro bench`` read, and every gate true."""
    report: Dict[str, Any] = {
        "version": 10,
        "scenario": {"blocks": 10, "blocks_per_month": 1, "seed": 7,
                     "chunks": 1, "chunk_size": 10, "quick": True},
        "machine": {"cpu_count": 1},
        "simulate_s": 0.1,
        "simulate": {"epoch_telemetry": [], "scale_flat": None},
        "sim_reference_s": 0.2,
        "lint_s": 0.3,
        "stages": [],
        "end_to_end": [],
        "stream": {"reorgs": 1, "max_reorg_depth": 1,
                   "retracted_rows": 0, "lag_p50_blocks": 1,
                   "lag_p99_blocks": 2},
        "serve": {"requests": 1, "connections": 1, "qps": 1.0,
                  "p50_ms": 1.0, "p99_ms": 1.0, "not_modified": 0,
                  "errors": 0},
        "shard": {"epochs": 1, "resimulated_epochs": 1, "scope": "full",
                  "epoch_blocks": 10, "workers_requested": 2,
                  "workers_effective": 1},
        "sim_identical": True, "parallel_identical": True,
        "indexed_matches_linear": True, "stream_identical": True,
        "serve_identical": True, "shard_identical": True,
    }
    report.update(overrides)
    return report
