"""The end-to-end measurement pipeline (paper Figure 2).

``MevInspector`` consumes exactly the three data sources the paper
collects — an archive node, the pending-transaction trace, and the public
Flashbots blocks dataset — runs every detection heuristic over a block
range, and applies the joins (flash loans, Flashbots labels, privacy
inference).  It never touches simulator ground truth.

The run is engineered for imperfect sources, the way the real study's
five-month crawl had to be:

* the block range is processed in **chunks**; each completed chunk is
  appended to a checkpoint log, so a crashed run restarted with
  ``RunConfig(resume=True)`` skips finished work and still produces a
  bit-identical dataset;
* chunks execute through :class:`~repro.engine.ParallelExecutor` —
  in-process, or across ``workers=N`` processes — and every worker
  count is guaranteed to produce the same dataset and quality ledger,
  because each chunk runs under chunk-isolated resilience state and
  results merge in chunk order;
* a chunk whose source data is permanently unavailable (archive
  blackout, breaker open, retries exhausted) is recorded as a *failed
  range* and the run continues — degradation is visible, never fatal;
* every run attaches a :class:`DataQualityReport` covering per-source
  coverage, retries, breaker trips, gap ranges, and the count of
  ``unknown``/``unobserved`` labels the joins were forced to emit.

The execution contract is one frozen :class:`RunConfig` — the CLI
builds a config once and threads it through unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.chain.node import ArchiveNode
from repro.chain.p2p import MempoolObserver
from repro.core.datasets import ChunkPayload, MevDataset
from repro.core.flashbots_join import annotate_flashbots
from repro.core.private_inference import annotate_privacy
from repro.core.profit import PriceService
from repro.engine.config import RunConfig
from repro.engine.executors import ParallelExecutor
from repro.engine.runner import CHUNK_FAILURES, ChunkRunner
from repro.flashbots.api import FlashbotsBlocksApi
from repro.reliability.checkpoint import CheckpointStore
from repro.reliability.quality import DataQualityReport, SourceQuality
from repro.reliability.sources import SourceStats, fresh_source, \
    source_stats

__all__ = ["CHUNK_FAILURES", "MevInspector", "apply_joins",
           "finish_quality", "merge_payloads", "plan_chunks"]

BlockRange = Tuple[int, int]


def plan_chunks(first_block: int, last_block: int,
                chunk_size: Optional[int]) -> List[BlockRange]:
    """Inclusive, contiguous chunk ranges covering the block span.

    ``chunk_size=None`` and ``chunk_size=0`` both mean "the whole range
    in one chunk"; negative sizes are a caller bug and rejected loudly
    instead of being silently coerced.
    """
    if chunk_size is not None and chunk_size < 0:
        raise ValueError(
            f"chunk_size must be >= 0 or None, got {chunk_size}")
    if last_block < first_block:
        return []
    size = chunk_size or (last_block - first_block + 1)
    return [(lo, min(lo + size - 1, last_block))
            for lo in range(first_block, last_block + 1, size)]


def _clip_ranges(ranges: Any, first_block: int,
                 last_block: int) -> Tuple[BlockRange, ...]:
    """Ranges intersected with the run span; empty intersections drop."""
    clipped = []
    for lo, hi in ranges or ():
        lo, hi = max(int(lo), first_block), min(int(hi), last_block)
        if lo <= hi:
            clipped.append((lo, hi))
    return tuple(sorted(clipped))


def _resolve_range(node: ArchiveNode, from_block: Optional[int],
                   to_block: Optional[int]) -> Optional[BlockRange]:
    first = from_block if from_block is not None else \
        node.earliest_block_number()
    last = to_block if to_block is not None else \
        node.latest_block_number()
    if first is None or last is None or last < first:
        return None
    return (first, last)


def _blocks_in(ranges: Tuple[BlockRange, ...]) -> int:
    return sum(hi - lo + 1 for lo, hi in ranges)


def _chunk_key(chunk: BlockRange) -> str:
    """The canonical checkpoint/state key for one chunk."""
    return f"{chunk[0]}-{chunk[1]}"


def merge_payloads(dataset: MevDataset,
                   payloads: Iterable[Optional[ChunkPayload]]) -> Set[str]:
    """Append copies of each payload's records to ``dataset`` and
    return the union of their flash-loan transactions.

    Payloads come in chunk order (``None`` for a failed chunk), so
    every worker count merges alike; copies, so the joins never reach
    a payload its owner keeps.  Shared with :mod:`repro.stream`.
    """
    flash_txs: Set[str] = set()
    for payload in payloads:
        if payload is not None:
            dataset.extend(payload.records)
            flash_txs.update(payload.flash_txs)
    return flash_txs


def apply_joins(dataset: MevDataset, flash_txs: Set[str],
                quality: DataQualityReport,
                flashbots_api: Optional[FlashbotsBlocksApi],
                observer: Optional[MempoolObserver]) -> None:
    """Apply every post-detection join and count degraded labels.

    Shared verbatim by the batch pipeline and :mod:`repro.stream` — the
    streaming engine converging bit-identically on the batch dataset
    depends on both paths labelling through this one function.
    """
    _join_flash_loans(dataset, flash_txs)
    if flashbots_api is not None:
        annotate_flashbots(dataset, flashbots_api)
    if observer is not None:
        annotate_privacy(dataset, observer)
    quality.unknown_flashbots_records = sum(
        1 for record in dataset.all_records()
        if record.via_flashbots is None)
    quality.unobserved_records = sum(
        1 for record in dataset.all_records()
        if record.privacy == "unobserved")


def _join_flash_loans(dataset: MevDataset, flash_txs: Set[str]) -> None:
    if not flash_txs:
        return
    for record in dataset.arbitrages:
        record.via_flashloan = record.tx_hash in flash_txs
    for record in dataset.liquidations:
        record.via_flashloan = record.tx_hash in flash_txs
    # Sandwiches structurally cannot use flash loans (two separate
    # transactions); the join still runs as a sanity check.
    for record in dataset.sandwiches:
        record.via_flashloan = (record.front_tx in flash_txs
                                or record.back_tx in flash_txs)


def finish_quality(quality: DataQualityReport, completed: int,
                   failed: List[BlockRange],
                   detection_stats: SourceStats,
                   node: Optional[ArchiveNode],
                   flashbots_api: Optional[FlashbotsBlocksApi],
                   observer: Optional[MempoolObserver]) -> None:
    """Finalize the quality ledger for one completed run.

    Like :func:`apply_joins`, this is the single implementation both
    the batch and streaming pipelines finish through.  ``completed``
    counts the chunks whose payload was merged.  ``node`` is the
    archive surface whose retry counters land in the ``archive`` entry,
    plus ``detection_stats``, the chunks' ledgers summed in chunk
    order; the stream engine reads no archive and passes ``None`` and
    an empty ledger.
    """
    first, last = quality.from_block, quality.to_block
    total_blocks = last - first + 1
    quality.chunks_completed = completed
    quality.failed_ranges = tuple(sorted(failed))

    archive = quality.source("archive")
    covered = total_blocks - _blocks_in(quality.failed_ranges)
    archive.coverage = covered / total_blocks
    archive.gap_ranges = quality.failed_ranges
    # Detection traffic ran inside the executor (possibly in worker
    # processes) under chunk-isolated state; fold its ledger into
    # the parent's own (range resolution + joins) counters.
    ledger = source_stats(node)
    ledger.add(detection_stats)
    _apply_stats(archive, ledger)

    if flashbots_api is not None:
        flashbots = quality.source("flashbots")
        gaps = _clip_ranges(_coverage_gaps(flashbots_api), first, last)
        flashbots.gap_ranges = gaps
        flashbots.coverage = \
            (total_blocks - _blocks_in(gaps)) / total_blocks
        _apply_stats(flashbots, source_stats(flashbots_api))

    if observer is not None:
        mempool = quality.source("mempool")
        observed_coverage = getattr(observer, "observed_coverage", None)
        if observed_coverage is not None:
            mempool.coverage = observed_coverage()
        mempool.gap_ranges = _clip_ranges(
            getattr(observer, "downtime_ranges", ()), first, last)
        _apply_stats(mempool, source_stats(observer))


def _coverage_gaps(api: FlashbotsBlocksApi) -> List[BlockRange]:
    coverage_gaps = getattr(api, "coverage_gaps", None)
    return [] if coverage_gaps is None else list(coverage_gaps())


def _apply_stats(entry: SourceQuality, stats: SourceStats) -> None:
    """Copy a source's retry/breaker ledger onto its quality entry."""
    entry.requests = stats.requests
    entry.retries = stats.retries
    entry.failed_attempts = stats.failed_attempts
    entry.exhausted = stats.exhausted
    entry.simulated_backoff_s = stats.simulated_backoff_s
    entry.breaker_trips = stats.breaker_trips


class MevInspector:
    """Runs the full detection + labelling pipeline over a chain."""

    def __init__(self, node: ArchiveNode, prices: PriceService,
                 flashbots_api: Optional[FlashbotsBlocksApi] = None,
                 observer: Optional[MempoolObserver] = None) -> None:
        self.node = node
        self.prices = prices
        self.flashbots_api = flashbots_api
        self.observer = observer

    # The run -------------------------------------------------------------

    def run(self, config: Optional[RunConfig] = None) -> MevDataset:
        """Detect all MEV in the range and apply every join.

        ``config`` (see :mod:`repro.engine.config`; ``None`` means
        ``RunConfig()``) carries every run setting.  With
        ``chunk_size`` the range is processed in that many blocks at a
        time; with ``checkpoint`` each completed chunk is persisted and
        ``resume=True`` continues a crashed run from where it stopped.
        ``workers=N`` fans chunks out over N worker processes,
        guaranteed bit-identical to the in-process run.
        """
        if config is None:
            config = RunConfig()

        # Each run reads through fresh copies of armed sources (fresh
        # breakers, stats and fault-attempt counters), so a run's
        # quality ledger covers that run alone.
        node = fresh_source(self.node)
        flashbots_api = fresh_source(self.flashbots_api)
        observer = fresh_source(self.observer)
        store = CheckpointStore.coerce(config.checkpoint)
        bounds = _resolve_range(node, config.from_block, config.to_block)
        if bounds is None:
            dataset = MevDataset()
            dataset.quality = DataQualityReport()
            return dataset
        first, last = bounds
        chunks = plan_chunks(first, last, config.chunk_size)

        quality = DataQualityReport(
            from_block=first, to_block=last,
            chunk_size=config.chunk_size or (last - first + 1),
            chunks_total=len(chunks))
        state: Dict[str, ChunkPayload] = {}
        if store is not None:
            records = store.open(
                {"from_block": first, "to_block": last,
                 "chunk_size": config.chunk_size}, "key", config.resume)
            state = {key: ChunkPayload.from_document(record["payload"])
                     for key, record in records.items()}
            quality.resumed = bool(state)
            quality.chunks_resumed = len(state)

        failed: List[BlockRange] = []
        chunk_stats: Dict[BlockRange, SourceStats] = {}
        pending = [chunk for chunk in chunks
                   if _chunk_key(chunk) not in state]
        runner = ChunkRunner(node=node, prices=self.prices)
        executor = ParallelExecutor(config.workers)
        for result in executor.execute(runner, pending):
            key = _chunk_key(result.chunk)
            chunk_stats[result.chunk] = result.stats
            if result.failed:
                failed.append(result.chunk)
                continue
            state[key] = result.payload
            if store is not None:
                store.append({"key": key,
                              "payload": result.payload.document()})

        payloads = [state.get(_chunk_key(chunk)) for chunk in chunks]
        dataset = MevDataset()
        apply_joins(dataset, merge_payloads(dataset, payloads), quality,
                    flashbots_api, observer)
        # Quality is finalized after the joins so the snapshot of each
        # source's retry/breaker counters includes the join traffic.
        detection_stats = SourceStats()
        for chunk in chunks:
            if chunk in chunk_stats:
                detection_stats.add(chunk_stats[chunk])
        completed = sum(1 for payload in payloads if payload is not None)
        finish_quality(quality, completed, failed, detection_stats,
                       node, flashbots_api, observer)
        dataset.quality = quality
        return dataset
