"""The unit of work executors schedule: one chunk's detections.

``ChunkRunner`` owns everything a worker process needs to detect MEV in
one block range: the archive surface and the price service.  It is
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
operation key is chunk-local, so a chunk's result — rows, flash-loan
transactions, resilience counters, or a permanent failure — is a pure
function of ``(world, fault plan, chunk)``, however often and in
whatever order the chunk runs.  That is what makes execution order
irrelevant and parallel runs bit-identical to serial ones; it also
scopes a blackout's breaker trips to the chunks the blackout actually
covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.engine.executors import ChunkResult, ChunkStats
from repro.engine.merge import chunk_payload
from repro.faults.errors import DataSourceError
from repro.reliability.retry import RetryExhaustedError
from repro.reliability.sources import fresh_source

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

    def run_chunk(self, chunk: BlockRange) -> ChunkResult:
        """One chunk's detections as a checkpointable artifact.

        :func:`~repro.core.scan.scan_range` over the chunk: one ranged
        ``iter_blocks(lo, hi)`` is the chunk's only archive op.  A
        :data:`CHUNK_FAILURES` error marks the chunk failed.
        """
        # Imported here, not at module top: repro.core imports the
        # engine (pipeline → executors/runner), so the runner reaches
        # back into repro.core lazily to keep the import DAG acyclic.
        from repro.core.scan import scan_range

        node = fresh_source(self.node)
        try:
            partial, flash_txs = scan_range(node, self.prices, *chunk)
        except CHUNK_FAILURES:
            return ChunkResult(chunk=chunk, payload=None,
                               stats=self._stats_of(node))
        return ChunkResult(chunk=chunk,
                           payload=chunk_payload(partial, flash_txs),
                           stats=self._stats_of(node))

    @staticmethod
    def _stats_of(node: Any) -> ChunkStats:
        caller = getattr(node, "caller", None)
        if caller is None:
            return ChunkStats()
        stats = caller.stats
        return ChunkStats(
            requests=stats.requests,
            retries=stats.retries,
            failed_attempts=stats.failed_attempts,
            exhausted=stats.exhausted,
            simulated_backoff_s=stats.simulated_backoff_s,
            breaker_trips=caller.breaker_trips)
