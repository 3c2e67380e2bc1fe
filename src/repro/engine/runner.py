"""The unit of work executors schedule: one chunk's detections.

``ChunkRunner`` owns everything a worker process needs to detect MEV in
one block range: the archive surface and the price service.  It is
picklable by construction — plain data, no open handles, no lambdas —
so the parallel executor can ship one copy to each worker.

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
from repro.faults.errors import DataSourceError
from repro.reliability.retry import RetryExhaustedError
from repro.reliability.sources import ArchiveSource

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

    def _chunk_node(self) -> Any:
        if isinstance(self.node, ArchiveSource):
            return self.node.fresh()
        return self.node

    def warm_index(self) -> None:
        """Build the chain's read index once, here in the parent,
        before any fan-out: forked workers inherit the built index
        copy-on-write instead of each paying the first-query build.
        Walks wrapping sources (``.inner``) down to whatever exposes
        ``warm_index``; a no-op for surfaces that don't."""
        node = self.node
        while node is not None:
            warm = getattr(node, "warm_index", None)
            if warm is not None:
                warm()
                return
            node = getattr(node, "inner", None)

    def _read_index(self) -> Any:
        """The chain's shared read index, when the underlying archive
        surface is an indexed ``ArchiveNode``; ``None`` for linear
        surfaces (then the scan walks receipts directly).  A wrapping
        source is unwrapped via ``.inner``."""
        node = self.node
        while node is not None:
            chain = getattr(node, "chain", None)
            if chain is not None:
                # Segment-backed chains have no in-memory index; their
                # ranged reads bisect the segment manifest instead, so
                # the chunk scan treats them as a linear surface.
                if getattr(node, "segmented", False):
                    return None
                return chain.index if getattr(node, "indexed",
                                              False) else None
            node = getattr(node, "inner", None)
        return None

    def run_chunk(self, chunk: BlockRange) -> ChunkResult:
        """One chunk's detections as a checkpointable artifact.

        Single pass: one ranged block read feeds all four heuristics
        through :class:`~repro.core.scan.BlockScan`, instead of the four
        independent range scans the heuristics historically made.

        **Transport compatibility.**  The historical per-heuristic scans
        produced a fixed archive-op sequence per chunk — three
        ``iter_blocks`` fetches, the sandwich/liquidation receipt
        lookups, one ``get_logs`` — and injected faults, retries, and
        breaker state are all keyed to that sequence.  The fused pass
        replays it exactly (the two extra ``iter_blocks`` fetches are
        issued and discarded; under the chain index they are O(range)
        slices, not rescans), so the rows *and* the resilience ledger —
        the ``DataQualityReport`` — stay bit-identical to the pre-fusion
        pipeline under any fault plan.
        """
        # Imported here, not at module top: repro.core imports the
        # engine (pipeline → executors/runner), so the runner reaches
        # back into repro.core lazily to keep the import DAG acyclic.
        from repro.chain.events import FlashLoanEvent
        from repro.core.datasets import MevDataset
        from repro.core.heuristics.arbitrage import ArbitrageVisitor
        from repro.core.heuristics.flashloan import flash_loan_hashes
        from repro.core.heuristics.liquidation import LiquidationVisitor
        from repro.core.heuristics.sandwich import SandwichVisitor
        from repro.core.scan import BlockScan, views_from_index

        node = self._chunk_node()
        index = self._read_index()
        lo, hi = chunk
        try:
            sandwich = SandwichVisitor(self.prices)
            arbitrage = ArbitrageVisitor(self.prices)
            liquidation = LiquidationVisitor(self.prices)
            scan = BlockScan([sandwich, arbitrage, liquidation])
            if index is not None:
                # Bucket from the shared postings lists: the fetched
                # blocks are the chain's own sealed objects, so the
                # index coordinates address them exactly, and reading
                # the index issues no archive ops — the transport
                # sequence below is unchanged.
                scan.scan_views(views_from_index(
                    index, list(node.iter_blocks(lo, hi))))
            else:
                scan.scan(node.iter_blocks(lo, hi))
            sandwiches = sandwich.finalize(node)
            # Replay the arbitrage and liquidation scans' ranged
            # fetches (results discarded — the single pass above
            # already consumed the data they would have returned).
            node.iter_blocks(lo, hi)
            node.iter_blocks(lo, hi)
            partial = MevDataset(
                sandwiches=sandwiches,
                arbitrages=arbitrage.finalize(),
                liquidations=liquidation.finalize(node),
            )
            flash_txs = flash_loan_hashes(
                node.get_logs(FlashLoanEvent, lo, hi))
        except CHUNK_FAILURES:
            return ChunkResult(chunk=chunk, payload=None,
                               stats=self._stats_of(node))
        payload = {"rows": partial.to_rows(),
                   "flash_txs": sorted(flash_txs)}
        return ChunkResult(chunk=chunk, payload=payload,
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
