"""The unit of work the executor schedules: one chunk's detections.

``ChunkRunner`` owns everything a worker process needs to detect MEV in
one block range: the archive surface, the price service, and the one
:class:`~repro.core.scan.Detector` every chunk it runs reuses.  It is
picklable by construction — plain data, no open handles, no lambdas —
so the parallel executor can ship one copy to each worker.

**Chunk contract.**  A chunk is one ranged read: ``run_chunk((lo, hi))``
issues exactly one archive op, ``iter_blocks(lo, hi)``, and every
heuristic runs over the blocks it returns (see :mod:`repro.core.scan`).

**Chunk isolation.**  When ``node`` is an
:class:`~repro.reliability.ArchiveSource`, every chunk runs against a
fresh copy of it (fresh breaker, fresh stats ledger, fresh
fault-attempt counters, the same frozen retry policy and fault plan).
Injected faults are pure in ``(seed, source, op, key)`` and every
operation key is chunk-local, and the detector starts every chunk
empty, so a chunk's result — records, flash-loan transactions,
resilience counters, or a permanent failure — is a pure function of
``(world, fault plan, chunk)``, however often and in whatever order
the chunk runs.  That is what makes execution order
irrelevant and parallel runs bit-identical to serial ones; it also
scopes a blackout's breaker trips to the chunks the blackout actually
covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

from repro.engine.executors import ChunkResult
from repro.faults.errors import DataSourceError
from repro.reliability.retry import RetryExhaustedError
from repro.reliability.sources import fresh_source, source_stats

BlockRange = Tuple[int, int]

#: errors that mark a chunk as permanently failed instead of crashing
CHUNK_FAILURES = (DataSourceError, RetryExhaustedError)


@dataclass
class ChunkRunner:
    """Detect MEV in one chunk with chunk-isolated resilience state.

    ``node`` is the archive surface the pipeline reads: a bare node,
    or an :class:`~repro.reliability.ArchiveSource` (fault plan and/or
    retry/breaker armor), which each chunk copies fresh.
    """

    node: Any
    prices: Any
    #: this runner's one detector, reused by every chunk it runs
    _detector: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Imported here, not at module top: repro.core imports the
        # engine (pipeline → executors/runner), so the runner reaches
        # back into repro.core lazily to keep the import DAG acyclic.
        from repro.core.scan import Detector

        self._detector = Detector(self.prices)

    def run_chunk(self, chunk: BlockRange) -> ChunkResult:
        """One chunk's detections as a checkpointable artifact.

        :meth:`~repro.core.scan.Detector.scan_range` over the chunk:
        one ranged ``iter_blocks(lo, hi)`` is the chunk's only archive
        op.  A :data:`CHUNK_FAILURES` error marks the chunk failed.
        """
        node = fresh_source(self.node)
        try:
            payload = self._detector.scan_range(node, *chunk)
        except CHUNK_FAILURES:
            payload = None
        return ChunkResult(chunk=chunk, payload=payload,
                           stats=source_stats(node))
