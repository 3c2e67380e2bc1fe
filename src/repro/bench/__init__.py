"""``repro.bench`` — seeded wall-clock benchmarks (``repro bench``).

The only package allowed to read the machine clock: it measures how
fast the pipeline runs, never what the pipeline computes, and it
re-verifies the engine's core invariant (parallel ≡ serial, bit for
bit) on every benchmark run.
"""

from repro.bench.harness import (
    BENCH_VERSION,
    DEFAULT_WORKERS,
    GATES,
    render_report,
    run_bench,
    write_report,
)

__all__ = [
    "BENCH_VERSION",
    "DEFAULT_WORKERS",
    "GATES",
    "render_report",
    "run_bench",
    "write_report",
]
