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
  truncates the follower's height → hash map, and replays (a block
  that comes back reuses its retracted payload); a fork that reaches
  at-or-below the confirmation watermark raises
  :class:`StreamDivergenceError`, because confirmed rows are immutable;
* **crashes** — every appended block's ``(height, hash, payload)`` is
  one record appended to a
  :class:`~repro.reliability.checkpoint.CheckpointStore` log; a resumed
  run replays the feed and reuses every payload whose ``(height,
  hash)`` is the log's last record for that height, reproducing the
  uninterrupted run's rows bit-for-bit.

Detection itself is *not* reimplemented: the engine owns one
:class:`~repro.core.scan.Detector`, as each batch chunk runner does,
and scans every appended block where it stands.  The typed
:class:`~repro.core.datasets.ChunkPayload` it returns is kept per
height; rows are rendered from it only for the checkpoint.
:meth:`StreamEngine.finalize` assembles the dataset with the batch
pipeline's own merge/join/quality functions over per-height chunks.
Convergence with ``MevInspector.run(config=RunConfig(chunk_size=1))``
over the final canonical chain is therefore structural: both paths
execute the same detection code over the same blocks — the stream just
found out about them the hard way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.chain.block import Block
from repro.chain.p2p import MempoolObserver
from repro.chain.types import Hash32
from repro.core.datasets import ChunkPayload, MevDataset
from repro.core.pipeline import apply_joins, finish_quality, merge_payloads
from repro.core.profit import PriceService
from repro.core.scan import Detector
from repro.faults.feed import FeedEvent
from repro.flashbots.api import FlashbotsBlocksApi
from repro.reliability.checkpoint import CheckpointStore
from repro.reliability.quality import DataQualityReport
from repro.reliability.sources import SourceStats

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
                      records: Tuple[Any, ...]) -> None:
        """``height`` joined the follower chain with these detection
        records, in row order (detection-time labels; joins happen at
        finalize).  They are the engine's own: never relabel them."""

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
    #: appends served from a checkpointed payload instead of scanned
    #: (a block re-appended after a reorg counts each time)
    payloads_reused: int = 0
    #: appends of a block a reorg had retracted, served from its kept
    #: payload instead of scanned again
    rescans_skipped: int = 0
    #: per-confirmation lag samples, in blocks (head height at the
    #: moment of confirmation minus the confirmed height)
    confirmation_lags: List[int] = field(default_factory=list)
    #: every retraction, in the order it happened
    ledger: List[RetractionEntry] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        document = asdict(self)
        document["retractions"] = document.pop("ledger")
        return document


class StreamEngine:
    """Incremental MEV detection over a block-announcement feed.

    The engine's view of the canonical chain is a height → hash map,
    contiguous from ``first_block`` to the head: it is grown one
    validated announcement at a time (contiguous number, parent hash
    equal to the tip's) and truncated across reorgs.  Beside it sits
    one detection payload per appended height, computed by the
    engine's :class:`~repro.core.scan.Detector` over the block in hand
    the moment it lands, and appended to the checkpoint log.  Heights
    at-or-below ``head - confirm_depth`` are *confirmed*: their payloads
    are immutable (a reorg reaching them is a
    :class:`StreamDivergenceError`).
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
        self._detector = Detector(prices)
        self._payloads: Dict[int, ChunkPayload] = {}
        self._hashes: Dict[int, Hash32] = {}
        self._head: Optional[int] = None
        #: payloads a reorg retracted, per height by block hash; dropped
        #: as the watermark passes their height
        self._retracted: Dict[int, Dict[Hash32, ChunkPayload]] = {}
        #: announcements above ``head + 1``, last-wins per height
        self._future: Dict[int, Block] = {}
        self._watermark = first_block - 1
        self._subscribers: List[StreamSubscriber] = []
        self._store = CheckpointStore.coerce(checkpoint)
        #: the resumed log's last record per height: its block hash
        #: and payload
        self._saved: Dict[int, Tuple[Hash32, ChunkPayload]] = {}
        if self._store is not None:
            records = self._store.open(
                {"stream": True, "first_block": first_block,
                 "confirm_depth": confirm_depth}, "height", resume)
            self._saved = {
                height: (record["hash"],
                         ChunkPayload.from_document(record["payload"]))
                for height, record in records.items()}
        self._resumed = bool(self._saved)

    # Subscribers ---------------------------------------------------------

    def subscribe(self, subscriber: StreamSubscriber) -> None:
        """Attach a :class:`StreamSubscriber` to this engine's feed."""
        self._subscribers.append(subscriber)

    # Introspection -------------------------------------------------------

    @property
    def head(self) -> Optional[int]:
        """The follower chain's current tip height."""
        return self._head

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
        head = self._head
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
        self._advance_watermark(self.confirm_depth)

    def _append(self, block: Block) -> None:
        """Link ``block`` to the tip as ``Blockchain.append`` does,
        then index it."""
        number = block.number
        head = self._head
        if head is not None:
            if number != head + 1:
                raise ValueError(
                    f"non-contiguous block: got {number}, "
                    f"expected {head + 1}")
            tip_hash = self._hashes[head]
            if block.parent_hash is None:
                block.parent_hash = tip_hash
            elif block.parent_hash != tip_hash:
                raise ValueError(
                    f"parent hash mismatch at block {number}: "
                    f"block links to {block.parent_hash!r}, tip is "
                    f"{tip_hash!r}")
        self._head = number
        self.report.appended += 1
        block_hash = block.hash
        saved = self._saved.get(number)
        if saved is not None and saved[0] == block_hash:
            payload = saved[1]
            self.report.payloads_reused += 1
        else:
            if block_hash in self._retracted.get(number, ()):
                payload = self._retracted[number].pop(block_hash)
                self.report.rescans_skipped += 1
            else:
                payload = self._detector.scan_block(block)
            if self._store is not None:
                self._store.append({"height": number, "hash": block_hash,
                                    "payload": payload.document()})
        self._payloads[number] = payload
        self._hashes[number] = block_hash
        for subscriber in self._subscribers:
            subscriber.block_indexed(number, block_hash, payload.records)

    def _reorg(self, block: Block) -> None:
        """Replace the follower's suffix from ``block.number`` up."""
        number = block.number
        head = self._head
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
            payload = self._payloads.pop(height)
            stale_hash = self._hashes.pop(height)
            self._retracted.setdefault(height, {})[stale_hash] = payload
            rows = len(payload.records)
            self.report.retracted_blocks += 1
            self.report.retracted_rows += rows
            self.report.ledger.append(RetractionEntry(
                height=height, block_hash=stale_hash,
                rows_retracted=rows))
            for subscriber in self._subscribers:
                subscriber.block_retracted(height, stale_hash, rows)
        self._head = number - 1 if number > self.first_block else None
        self._append(block)

    def _drain_future(self) -> None:
        head = self._head
        while head is not None and head + 1 in self._future:
            block = self._future[head + 1]
            if block.parent_hash is not None and \
                    block.parent_hash != self._hashes[head]:
                # The buffered block belongs to the other side of a
                # reorg (a stale fork block, or a canonical block while
                # a fork is the current tip).  Leave it buffered: the
                # feed's re-delivery sequence reconciles the branch, and
                # either this entry drains cleanly afterwards or a
                # later announcement for its height supersedes it.
                return
            self._append(self._future.pop(head + 1))
            head = self._head

    def _advance_watermark(self, depth: int) -> None:
        """Confirm every height at-or-below ``head - depth``."""
        head = self._head
        if head is None:
            return
        target = head - depth
        advanced = self._watermark < target
        while self._watermark < target:
            self._watermark += 1
            self._retracted.pop(self._watermark, None)
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
        chunks: ``merge_payloads`` in height order (copies: the kept
        payloads keep their detection-time labels, so finalizing twice
        gives the same dataset), then the shared
        :func:`~repro.core.pipeline.apply_joins` and
        :func:`~repro.core.pipeline.finish_quality` — which is why a
        converged stream's dataset is bit-identical to
        ``MevInspector.run(config=RunConfig(chunk_size=1))`` over the
        canonical chain.
        """
        head = self._head
        if head is None:
            dataset = MevDataset()
            dataset.quality = DataQualityReport()
            for subscriber in self._subscribers:
                subscriber.stream_finalized(dataset)
            return dataset
        self._advance_watermark(0)
        first = self.first_block
        heights = range(first, head + 1)
        quality = DataQualityReport(
            from_block=first, to_block=head, chunk_size=1,
            chunks_total=len(heights))
        if self._resumed:
            quality.resumed = True
            # Final canonical heights whose payload is the checkpoint's
            # (``payloads_reused`` also counts reuse after a reorg).
            quality.chunks_resumed = sum(
                1 for height, (block_hash, _) in self._saved.items()
                if self._hashes.get(height) == block_hash)
        dataset = MevDataset()
        flash_txs = merge_payloads(
            dataset, [self._payloads[height] for height in heights])
        apply_joins(dataset, flash_txs, quality, self.flashbots_api,
                    self.observer)
        finish_quality(quality, len(heights), [], SourceStats(), None,
                       self.flashbots_api, self.observer)
        dataset.quality = quality
        for subscriber in self._subscribers:
            subscriber.stream_finalized(dataset)
        return dataset
