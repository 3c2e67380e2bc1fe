"""The incremental detection engine behind ``repro stream``.

:class:`StreamEngine` follows an appending chain head the way the
paper's collectors did, one announcement at a time, and is robust — by
construction, not by luck — to everything a real feed does:

* **out-of-order delivery** — blocks above ``head + 1`` wait in a
  future buffer (last announcement wins per height) and drain once the
  gap fills;
* **duplicates** — a re-announcement of a block the follower already
  holds (same height, same hash) is counted and dropped;
* **reorgs** — a different block at-or-below the head retracts every
  pending payload from the fork point up (into a retraction ledger),
  rolls the follower chain back through the
  :meth:`~repro.chain.node.Blockchain.rollback` seam, and replays;
  a fork that reaches at-or-below the confirmation watermark raises
  :class:`StreamDivergenceError`, because confirmed rows are immutable;
* **crashes** — the watermark and the per-height payload window are
  checkpointed through :class:`~repro.reliability.checkpoint.CheckpointStore`;
  a resumed run replays the feed and reuses every payload whose
  ``(height, hash)`` still matches, reproducing the uninterrupted run's
  rows bit-for-bit.

Detection itself is *not* reimplemented: every appended block runs
through the batch pipeline's own :class:`~repro.engine.runner.ChunkRunner`
as a single-block chunk, and :meth:`StreamEngine.finalize` assembles the
dataset with the batch pipeline's own merge/join/quality functions over
per-height chunks.  Convergence with
``MevInspector.run(config=RunConfig(chunk_size=1))`` over the final
canonical chain is therefore structural: both paths
execute the same code over the same blocks — the stream just found out
about them the hard way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.chain.block import Block
from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.p2p import MempoolObserver
from repro.chain.types import Hash32
from repro.core.datasets import MevDataset
from repro.core.pipeline import apply_joins, finish_quality
from repro.core.profit import PriceService
from repro.engine.merge import (
    chunk_key,
    merge_flash_txs,
    merge_rows,
    sum_chunk_stats,
)
from repro.engine.runner import ChunkRunner
from repro.faults.feed import FeedEvent
from repro.flashbots.api import FlashbotsBlocksApi
from repro.reliability.checkpoint import CheckpointError, CheckpointStore
from repro.reliability.quality import DataQualityReport

__all__ = ["RetractionEntry", "StreamDivergenceError", "StreamEngine",
           "StreamReport", "StreamSubscriber"]


class StreamSubscriber:
    """Downstream observer of the engine's block-level state changes.

    The hook a serving layer (or any other consumer) attaches through
    :meth:`StreamEngine.subscribe` instead of re-running batches.  The
    engine calls these synchronously from :meth:`StreamEngine.ingest`
    / :meth:`StreamEngine.finalize`; the stream package stays blind to
    who is listening (it must never import ``repro.serve`` — the R003
    layering edge points the other way).

    Every method is a no-op here so subscribers override only what
    they consume.
    """

    def block_indexed(self, height: int, block_hash: Hash32,
                      rows: List[Dict[str, Any]]) -> None:
        """``height`` joined the follower chain with these detection
        rows (detection-time labels; joins happen at finalize)."""

    def block_retracted(self, height: int, block_hash: Hash32,
                        rows_retracted: int) -> None:
        """A reorg retracted ``height``; its rows are no longer part
        of any servable view."""

    def watermark_advanced(self, height: int) -> None:
        """The confirmation watermark moved up to ``height``."""

    def stream_finalized(self, dataset: MevDataset) -> None:
        """The engine assembled the final joined dataset."""


class StreamDivergenceError(Exception):
    """A reorg reached at-or-below the confirmation watermark.

    Rows behind the watermark have been emitted as final; a fork deep
    enough to touch them means ``confirm_depth`` was smaller than the
    chain's actual reorg depth, and the stream's output can no longer
    converge on the canonical chain.  The engine fails loudly instead
    of silently keeping stale rows.
    """


@dataclass(frozen=True)
class RetractionEntry:
    """One reorged-away block's accounting in the retraction ledger."""

    height: int
    block_hash: Hash32
    rows_retracted: int


@dataclass
class StreamReport:
    """Live counters describing what the feed did to the follower."""

    #: announcements ingested (every event, good or degenerate)
    events: int = 0
    #: blocks accepted onto the follower chain (including fork blocks
    #: that were later retracted)
    appended: int = 0
    #: re-announcements of a block already on the follower chain
    duplicates: int = 0
    #: announcements buffered because they arrived above ``head + 1``
    out_of_order: int = 0
    #: announcements below the stream window, dropped unexamined
    ignored: int = 0
    #: reorg events (each fork-in and each rejoin counts once)
    reorgs: int = 0
    #: deepest single reorg observed, in blocks
    max_reorg_depth: int = 0
    #: blocks whose pending payloads were retracted
    retracted_blocks: int = 0
    #: detection rows retracted with them
    retracted_rows: int = 0
    #: heights promoted behind the watermark
    confirmed: int = 0
    #: payloads reused from a checkpoint instead of recomputed
    payloads_reused: int = 0
    #: per-confirmation lag samples, in blocks (head height at the
    #: moment of confirmation minus the confirmed height)
    confirmation_lags: List[int] = field(default_factory=list)
    #: every retraction, in the order it happened
    ledger: List[RetractionEntry] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "appended": self.appended,
            "duplicates": self.duplicates,
            "out_of_order": self.out_of_order,
            "ignored": self.ignored,
            "reorgs": self.reorgs,
            "max_reorg_depth": self.max_reorg_depth,
            "retracted_blocks": self.retracted_blocks,
            "retracted_rows": self.retracted_rows,
            "confirmed": self.confirmed,
            "payloads_reused": self.payloads_reused,
            "confirmation_lags": list(self.confirmation_lags),
            "retractions": [
                {"height": entry.height,
                 "block_hash": entry.block_hash,
                 "rows_retracted": entry.rows_retracted}
                for entry in self.ledger],
        }


class StreamEngine:
    """Incremental MEV detection over a block-announcement feed.

    The engine owns a private *follower* :class:`Blockchain` — its view
    of the canonical chain, grown one validated announcement at a time
    and rolled back across reorgs — plus one detection payload per
    appended height, computed by the batch pipeline's
    :class:`ChunkRunner` as the single-block chunk ``(h, h)`` the moment
    the block lands.  Heights at-or-below ``head - confirm_depth`` are
    *confirmed*: their payloads are immutable (a reorg reaching them is
    a :class:`StreamDivergenceError`) and checkpointed.
    """

    def __init__(self, prices: PriceService, first_block: int,
                 confirm_depth: int = 3,
                 flashbots_api: Optional[FlashbotsBlocksApi] = None,
                 observer: Optional[MempoolObserver] = None,
                 checkpoint: Union[CheckpointStore, str, Path,
                                   None] = None,
                 resume: bool = False) -> None:
        if confirm_depth < 0:
            raise ValueError("confirm_depth must be >= 0")
        self.prices = prices
        self.first_block = first_block
        self.confirm_depth = confirm_depth
        self.flashbots_api = flashbots_api
        self.observer = observer
        self.report = StreamReport()
        self.follower = Blockchain()
        self.node = ArchiveNode(self.follower, indexed=True)
        self._runner = ChunkRunner(node=self.node, prices=self.prices)
        #: per appended height: the block's detection payload + hash
        self._payloads: Dict[int, Dict[str, Any]] = {}
        self._hashes: Dict[int, Hash32] = {}
        #: announcements above ``head + 1``, last-wins per height
        self._future: Dict[int, Block] = {}
        self._watermark = first_block - 1
        self._subscribers: List[StreamSubscriber] = []
        self._store = self._make_store(checkpoint)
        self._resumed = False
        self._saved: Dict[int, Dict[str, Any]] = {}
        if resume and self._store is not None:
            self._saved = self._load_saved()
            self._resumed = bool(self._saved)

    # Construction helpers ------------------------------------------------

    @staticmethod
    def _make_store(checkpoint: Union[CheckpointStore, str, Path, None],
                    ) -> Optional[CheckpointStore]:
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            return checkpoint
        return CheckpointStore(checkpoint)

    def _load_saved(self) -> Dict[int, Dict[str, Any]]:
        assert self._store is not None
        document = self._store.load()
        if document is None:
            return {}
        expected = {"stream": True, "first_block": self.first_block,
                    "confirm_depth": self.confirm_depth}
        actual = {key: document.get(key) for key in expected}
        if actual != expected:
            raise CheckpointError(
                f"checkpoint {self._store.path} was written for "
                f"{actual}, cannot resume a stream over {expected}")
        return {int(height): entry for height, entry
                in (document.get("blocks") or {}).items()}

    def _save(self) -> None:
        if self._store is None:
            return
        self._store.save({
            "stream": True,
            "first_block": self.first_block,
            "confirm_depth": self.confirm_depth,
            "watermark": self._watermark,
            "blocks": {str(height): {"hash": self._hashes[height],
                                     "payload": payload}
                       for height, payload
                       in sorted(self._payloads.items())},
        })

    # Subscribers ---------------------------------------------------------

    def subscribe(self, subscriber: StreamSubscriber) -> None:
        """Attach a :class:`StreamSubscriber` to this engine's feed."""
        self._subscribers.append(subscriber)

    # Introspection -------------------------------------------------------

    @property
    def head(self) -> Optional[int]:
        """The follower chain's current tip height."""
        return self.follower.height

    @property
    def watermark(self) -> int:
        """Highest confirmed height (``first_block - 1`` before any)."""
        return self._watermark

    # Ingestion -----------------------------------------------------------

    def ingest(self, announcement: Union[Block, FeedEvent]) -> None:
        """Fold one block announcement into the follower state."""
        block = announcement.block \
            if isinstance(announcement, FeedEvent) else announcement
        self.report.events += 1
        number = block.number
        if number < self.first_block:
            self.report.ignored += 1
            return
        head = self.follower.height
        next_height = self.first_block if head is None else head + 1
        if number > next_height:
            if number not in self._future:
                self.report.out_of_order += 1
            self._future[number] = block
            return
        if number < next_height:
            if block.hash == self._hashes.get(number):
                self.report.duplicates += 1
                return
            self._reorg(block)
        else:
            self._append(block)
        self._drain_future()
        self._advance_watermark()
        self._save()

    def _append(self, block: Block) -> None:
        self.follower.append(block)
        self.report.appended += 1
        number = block.number
        saved = self._saved.get(number)
        if saved is not None and saved.get("hash") == block.hash:
            payload = saved["payload"]
            self.report.payloads_reused += 1
        else:
            result = self._runner.run_chunk((number, number))
            payload = result.payload
            if payload is None:  # pragma: no cover - bare node never fails
                raise StreamDivergenceError(
                    f"detection failed for streamed block {number}")
        self._payloads[number] = payload
        self._hashes[number] = block.hash
        for subscriber in self._subscribers:
            subscriber.block_indexed(number, block.hash,
                                     payload["rows"])

    def _reorg(self, block: Block) -> None:
        """Replace the follower's suffix from ``block.number`` up."""
        number = block.number
        head = self.follower.height
        assert head is not None
        if number <= self._watermark:
            raise StreamDivergenceError(
                f"reorg to height {number} reaches below the "
                f"confirmation watermark {self._watermark} "
                f"(confirm_depth={self.confirm_depth} is smaller than "
                f"the chain's actual reorg depth)")
        depth = head - number + 1
        self.report.reorgs += 1
        self.report.max_reorg_depth = max(self.report.max_reorg_depth,
                                          depth)
        for height in range(number, head + 1):
            payload = self._payloads.pop(height, None)
            stale_hash = self._hashes.pop(height, "")
            rows = len(payload["rows"]) if payload is not None else 0
            self.report.retracted_blocks += 1
            self.report.retracted_rows += rows
            self.report.ledger.append(RetractionEntry(
                height=height, block_hash=stale_hash,
                rows_retracted=rows))
            for subscriber in self._subscribers:
                subscriber.block_retracted(height, stale_hash, rows)
        if number <= self.follower.blocks[0].number:
            # The fork replaces the entire streamed window: start the
            # follower over (the chain store cannot hold zero blocks
            # once started).
            self.follower = Blockchain()
            self.node = ArchiveNode(self.follower, indexed=True)
            self._runner = ChunkRunner(node=self.node,
                                       prices=self.prices)
        else:
            self.follower.rollback(number - 1)
        self._append(block)

    def _drain_future(self) -> None:
        head = self.follower.height
        while head is not None and head + 1 in self._future:
            block = self._future[head + 1]
            tip = self.follower.blocks[-1]
            if block.parent_hash is not None and \
                    block.parent_hash != tip.hash:
                # The buffered block belongs to the other side of a
                # reorg (a stale fork block, or a canonical block while
                # a fork is the current tip).  Leave it buffered: the
                # feed's re-delivery sequence reconciles the branch, and
                # either this entry drains cleanly afterwards or a
                # later announcement for its height supersedes it.
                return
            self._append(self._future.pop(head + 1))
            head = self.follower.height

    def _advance_watermark(self) -> None:
        head = self.follower.height
        if head is None:
            return
        target = head - self.confirm_depth
        advanced = self._watermark < target
        while self._watermark < target:
            self._watermark += 1
            self.report.confirmed += 1
            self.report.confirmation_lags.append(head - self._watermark)
        if advanced:
            for subscriber in self._subscribers:
                subscriber.watermark_advanced(self._watermark)

    # Completion ----------------------------------------------------------

    def run(self, feed: Any) -> MevDataset:
        """Ingest every announcement from ``feed``, then finalize."""
        for event in feed:
            self.ingest(event)
        return self.finalize()

    def finalize(self) -> MevDataset:
        """Confirm the pending window and assemble the final dataset.

        Assembly is the batch pipeline, verbatim, over per-height
        chunks: ``merge_rows`` in height order, then the shared
        :func:`~repro.core.pipeline.apply_joins` and
        :func:`~repro.core.pipeline.finish_quality` — which is why a
        converged stream's dataset is bit-identical to
        ``MevInspector.run(config=RunConfig(chunk_size=1))`` over the
        canonical chain.
        """
        head = self.follower.height
        if head is None:
            dataset = MevDataset()
            dataset.quality = DataQualityReport()
            for subscriber in self._subscribers:
                subscriber.stream_finalized(dataset)
            return dataset
        advanced = self._watermark < head
        while self._watermark < head:
            self._watermark += 1
            self.report.confirmed += 1
            self.report.confirmation_lags.append(head - self._watermark)
        if advanced:
            for subscriber in self._subscribers:
                subscriber.watermark_advanced(self._watermark)
        self._save()
        first = self.follower.blocks[0].number
        chunks = [(height, height) for height in range(first, head + 1)]
        state = {chunk_key(chunk): self._payloads[chunk[0]]
                 for chunk in chunks}
        quality = DataQualityReport(
            from_block=first, to_block=head, chunk_size=1,
            chunks_total=len(chunks))
        if self._resumed:
            quality.resumed = True
            quality.chunks_resumed = self.report.payloads_reused
        dataset = merge_rows(MevDataset(), chunks, state)
        apply_joins(dataset, merge_flash_txs(chunks, state), quality,
                    self.flashbots_api, self.observer)
        finish_quality(quality, chunks, state, [],
                       sum_chunk_stats(chunks, {}), self.node,
                       self.flashbots_api, self.observer)
        dataset.quality = quality
        for subscriber in self._subscribers:
            subscriber.stream_finalized(dataset)
        return dataset
