"""``repro.engine`` — the chunk-execution layer of the pipeline.

PR 2 taught ``MevInspector.run`` to chunk, checkpoint, and resume; this
package makes *how those chunks execute* pluggable without touching
what they compute:

* :class:`RunConfig` — one frozen object carrying the whole execution
  contract (range, chunking, checkpointing, faults, workers, caching);
* :class:`ChunkRunner` — the picklable unit of work: one chunk's
  detections under chunk-isolated retry/breaker state;
* :class:`SerialExecutor` / :class:`ParallelExecutor` /
  :class:`CachedExecutor` — in-process, process-pool, and disk-memoized
  execution strategies, all yielding the same :class:`ChunkResult`
  stream;
* :mod:`repro.engine.merge` — order-independent reassembly of rows,
  flash-loan sets, and resilience ledgers.

The invariant the whole package defends: for a fixed world, fault plan,
and chunk plan, every executor produces a bit-identical dataset and an
identical :class:`~repro.reliability.quality.DataQualityReport` —
``--workers 4`` buys wall-clock time, never different numbers.
"""

from repro.engine.config import CACHE_VERSION, RunConfig
from repro.engine.executors import (
    CachedExecutor,
    ChunkResult,
    ChunkStats,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    SupportsRunChunk,
    effective_workers,
    make_executor,
)
from repro.engine.merge import (
    chunk_key,
    failed_ranges,
    merge_flash_txs,
    merge_rows,
    sum_chunk_stats,
)
from repro.engine.runner import CHUNK_FAILURES, ChunkRunner

__all__ = [
    "CACHE_VERSION",
    "CHUNK_FAILURES",
    "CachedExecutor",
    "ChunkResult",
    "ChunkRunner",
    "ChunkStats",
    "Executor",
    "ParallelExecutor",
    "RunConfig",
    "SerialExecutor",
    "SupportsRunChunk",
    "chunk_key",
    "effective_workers",
    "failed_ranges",
    "make_executor",
    "merge_flash_txs",
    "merge_rows",
    "sum_chunk_stats",
]
