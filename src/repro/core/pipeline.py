"""The end-to-end measurement pipeline (paper Figure 2).

``MevInspector`` consumes exactly the three data sources the paper
collects — an archive node, the pending-transaction trace, and the public
Flashbots blocks dataset — runs every detection heuristic over a block
range, and applies the joins (flash loans, Flashbots labels, privacy
inference).  It never touches simulator ground truth.

The run is engineered for imperfect sources, the way the real study's
five-month crawl had to be:

* the block range is processed in **chunks**; each completed chunk is
  written to an atomic JSON checkpoint, so a crashed run restarted with
  ``RunConfig(resume=True)`` skips finished work and still produces a
  bit-identical dataset;
* chunks execute through a pluggable :mod:`repro.engine` executor —
  serial, process-parallel (``workers=N``), or disk-cached
  (``cache_dir``) — and every executor is guaranteed to produce the
  same dataset and quality ledger, because each chunk runs under
  chunk-isolated resilience state and results merge in chunk order;
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

from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.chain.node import ArchiveNode
from repro.chain.p2p import MempoolObserver
from repro.core.datasets import MevDataset
from repro.core.flashbots_join import annotate_flashbots
from repro.core.private_inference import annotate_privacy
from repro.core.profit import PriceService
from repro.engine.config import RunConfig
from repro.engine.executors import ChunkStats, Executor, make_executor
from repro.engine.merge import (
    chunk_key,
    merge_flash_txs,
    merge_rows,
    sum_chunk_stats,
)
from repro.engine.runner import CHUNK_FAILURES, ChunkRunner
from repro.flashbots.api import FlashbotsBlocksApi
from repro.reliability.checkpoint import CheckpointError, CheckpointStore
from repro.reliability.circuit import CircuitBreaker
from repro.reliability.quality import DataQualityReport, SourceQuality
from repro.reliability.sources import fresh_source

__all__ = ["CHUNK_FAILURES", "MevInspector", "apply_joins",
           "finish_quality", "plan_chunks"]

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


def finish_quality(quality: DataQualityReport, chunks: List[BlockRange],
                   state: Dict[str, Any], failed: List[BlockRange],
                   detection_stats: ChunkStats,
                   node: Optional[ArchiveNode],
                   flashbots_api: Optional[FlashbotsBlocksApi],
                   observer: Optional[MempoolObserver]) -> None:
    """Finalize the quality ledger for one completed run.

    Like :func:`apply_joins`, this is the single implementation both
    the batch and streaming pipelines finish through.  ``node`` is the
    archive surface whose retry counters land in the ``archive`` entry;
    the stream engine reads no archive and passes ``None``.
    """
    first, last = quality.from_block, quality.to_block
    total_blocks = last - first + 1
    quality.chunks_completed = sum(
        1 for chunk in chunks if chunk_key(chunk) in state)
    quality.failed_ranges = tuple(sorted(failed))

    archive = quality.source("archive")
    covered = total_blocks - _blocks_in(quality.failed_ranges)
    archive.coverage = covered / total_blocks
    archive.gap_ranges = quality.failed_ranges
    _apply_caller_stats(archive, node)
    # Detection traffic ran inside the executor (possibly in worker
    # processes) under chunk-isolated state; fold its ledger into
    # the parent's own (range resolution + joins) counters.
    archive.requests += detection_stats.requests
    archive.retries += detection_stats.retries
    archive.failed_attempts += detection_stats.failed_attempts
    archive.exhausted += detection_stats.exhausted
    archive.simulated_backoff_s += detection_stats.simulated_backoff_s
    archive.breaker_trips += detection_stats.breaker_trips

    if flashbots_api is not None:
        flashbots = quality.source("flashbots")
        gaps = _clip_ranges(_coverage_gaps(flashbots_api), first, last)
        flashbots.gap_ranges = gaps
        flashbots.coverage = \
            (total_blocks - _blocks_in(gaps)) / total_blocks
        _apply_caller_stats(flashbots, flashbots_api)

    if observer is not None:
        mempool = quality.source("mempool")
        observed_coverage = getattr(observer, "observed_coverage", None)
        if observed_coverage is not None:
            mempool.coverage = observed_coverage()
        mempool.gap_ranges = _clip_ranges(
            getattr(observer, "downtime_ranges", ()), first, last)
        _apply_caller_stats(mempool, observer)


def _coverage_gaps(api: FlashbotsBlocksApi) -> List[BlockRange]:
    coverage_gaps = getattr(api, "coverage_gaps", None)
    return [] if coverage_gaps is None else list(coverage_gaps())


def _apply_caller_stats(entry: SourceQuality, source: object) -> None:
    """Copy retry/breaker counters off an armed source's caller."""
    caller = getattr(source, "caller", None)
    if caller is None:
        return
    stats = caller.stats
    entry.requests = stats.requests
    entry.retries = stats.retries
    entry.failed_attempts = stats.failed_attempts
    entry.exhausted = stats.exhausted
    entry.simulated_backoff_s = stats.simulated_backoff_s
    entry.breaker_trips = caller.breaker_trips


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
        ``workers=N`` fans chunks out over N worker processes and
        ``cache_dir`` memoizes per-chunk artifacts on disk — both are
        guaranteed bit-identical to the serial, uncached run.
        """
        if config is None:
            config = RunConfig()

        # Each run reads through fresh copies of armed sources (fresh
        # breakers, stats and fault-attempt counters), so a run's
        # quality ledger covers that run alone.
        node = fresh_source(self.node)
        flashbots_api = fresh_source(self.flashbots_api)
        observer = fresh_source(self.observer)
        store = self._store(config.checkpoint)
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
        state = self._load_state(store, first, last, config.chunk_size,
                                 config.resume, quality)

        failed: List[BlockRange] = []
        chunk_stats: Dict[str, ChunkStats] = {}
        pending = [chunk for chunk in chunks
                   if chunk_key(chunk) not in state]
        runner = ChunkRunner(node=node, prices=self.prices)
        executor = self._executor(config, runner)
        for result in executor.execute(runner, pending):
            key = chunk_key(result.chunk)
            chunk_stats[key] = result.stats
            if result.failed:
                failed.append(result.chunk)
                continue
            state[key] = result.payload
            if store is not None:
                self._save_state(store, first, last, config.chunk_size,
                                 state)

        dataset = merge_rows(MevDataset(), chunks, state)
        apply_joins(dataset, merge_flash_txs(chunks, state), quality,
                    flashbots_api, observer)
        # Quality is finalized after the joins so the snapshot of each
        # source's retry/breaker counters includes the join traffic.
        finish_quality(quality, chunks, state, failed,
                       sum_chunk_stats(chunks, chunk_stats), node,
                       flashbots_api, observer)
        dataset.quality = quality
        return dataset

    # Range & chunk machinery ---------------------------------------------

    def _executor(self, config: RunConfig,
                  runner: ChunkRunner) -> Executor:
        digest = None
        if config.cache_dir is not None:
            # An unarmed node digests as no plan, no retry and the
            # default breaker.
            plan = getattr(runner.node, "plan", None)
            caller = getattr(runner.node, "caller", None)
            breaker = CircuitBreaker("archive") if caller is None \
                else caller.breaker
            digest = config.artifact_digest(extra={
                "plan": None if plan is None else asdict(plan),
                "retry": None if caller is None else asdict(caller.retry),
                "breaker": [breaker.failure_threshold,
                            breaker.cooldown_calls]})
        return make_executor(workers=config.workers,
                             cache_dir=config.cache_dir, digest=digest)

    @staticmethod
    def _store(checkpoint: Union[CheckpointStore, str, Path, None],
               ) -> Optional[CheckpointStore]:
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            return checkpoint
        return CheckpointStore(checkpoint)

    @staticmethod
    def _load_state(store: Optional[CheckpointStore], first: int,
                    last: int, chunk_size: Optional[int], resume: bool,
                    quality: DataQualityReport) -> Dict[str, Any]:
        if store is None or not resume:
            return {}
        document = store.load()
        if document is None:
            return {}
        expected = {"from_block": first, "to_block": last,
                    "chunk_size": chunk_size}
        actual = {key: document.get(key) for key in expected}
        if actual != expected:
            raise CheckpointError(
                f"checkpoint {store.path} was written for "
                f"{actual}, cannot resume a run over {expected}")
        state = dict(document.get("chunks") or {})
        quality.resumed = True
        quality.chunks_resumed = len(state)
        return state

    @staticmethod
    def _save_state(store: CheckpointStore, first: int, last: int,
                    chunk_size: Optional[int],
                    state: Dict[str, Any]) -> None:
        store.save({"from_block": first, "to_block": last,
                    "chunk_size": chunk_size, "chunks": state})
