"""``repro.engine`` — the chunk-execution layer of the pipeline.

``MevInspector.run`` chunks, checkpoints, and resumes; this package
runs those chunks without touching what they compute:

* :class:`RunConfig` — one frozen object carrying the whole execution
  contract (range, chunking, checkpointing, faults, workers);
* :class:`ChunkRunner` — the picklable unit of work: one chunk's
  detections under chunk-isolated retry/breaker state;
* :class:`ParallelExecutor` — the one executor: a process pool when
  more than one worker is effective, else in order in this process,
  yielding a :class:`ChunkResult` per chunk either way, which the
  pipeline merges back in chunk order.

The invariant the whole package defends: for a fixed world, fault plan,
and chunk plan, every worker count produces a bit-identical dataset
and an identical :class:`~repro.reliability.quality.DataQualityReport`
— ``--workers 4`` buys wall-clock time, never different numbers.
"""

from repro.engine.config import RunConfig
from repro.engine.executors import (
    ChunkResult,
    ParallelExecutor,
    SupportsRunChunk,
    effective_workers,
)
from repro.engine.runner import CHUNK_FAILURES, ChunkRunner

__all__ = [
    "CHUNK_FAILURES",
    "ChunkResult",
    "ChunkRunner",
    "ParallelExecutor",
    "RunConfig",
    "SupportsRunChunk",
    "effective_workers",
]
