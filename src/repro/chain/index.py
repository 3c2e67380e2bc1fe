"""Read-optimized indexes over an append-only :class:`Blockchain`.

The measurement pipeline is fundamentally a range-scan over the chain's
logs, and before this layer every ranged query paid O(chain): each
``ArchiveNode.iter_blocks(lo, hi)`` walked from genesis and every
``get_logs`` ``isinstance``-filtered every log of every receipt in the
range.  :class:`ChainIndex` turns both into O(result):

* **block positions** — the ascending block-number list supports bisect,
  so a range query resolves to one ``blocks[start:stop]`` slice;
* **log postings** — per concrete event type, the coordinates
  ``(block_number, tx_index, log_index)`` and the log object itself, in
  chain traversal order; a ranged ``get_logs`` bisects each matching
  type's postings and merges by a global traversal ordinal, reproducing
  the linear scan's order element for element (including subclass
  matches: querying a base type returns every subclass's logs, exactly
  as ``isinstance`` filtering did).

**Invalidation contract.**  :class:`Blockchain` grows one contiguous
block at a time and sealed blocks are immutable, so appends never
rebuild the index.  Every query calls :meth:`refresh`, which folds
only the blocks appended since the last fold; an append therefore
*invalidates* the index only in the sense that the next query first
consumes the new tail.  ``Blockchain.rollback`` discards the index
instead, and the next query builds a fresh one.  Blocks are folded
into the position index eagerly on any query, but logs are folded only
once a log query arrives, so pure block-range readers never pay for
postings.

The index is built lazily per :class:`Blockchain` (see
``Blockchain.index``) and shared read-only by every reader — chunks,
workers (fork-inherited), and joins all bisect the same structure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple, Type

from repro.chain.events import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids module cycle
    from repro.chain.block import Block
    from repro.chain.node import Blockchain

__all__ = ["ChainIndex", "Posting"]


class Posting(NamedTuple):
    """One log's inclusion coordinates in a per-event-type postings list."""

    block_number: int
    tx_index: Optional[int]
    log_index: Optional[int]


class ChainIndex:
    """Bisect-friendly read index over one append-only chain."""

    def __init__(self, chain: "Blockchain") -> None:
        self.chain = chain
        #: blocks folded into the position index / the postings lists
        self._blocks_consumed = 0
        self._logs_consumed = 0
        #: ascending block numbers, parallel to ``chain.blocks``
        self._numbers: List[int] = []
        #: concrete event type -> logs in chain traversal order
        self._logs: Dict[Type[EventLog], List[EventLog]] = {}
        #: concrete event type -> the logs' block numbers (bisect keys)
        self._log_blocks: Dict[Type[EventLog], List[int]] = {}
        #: concrete event type -> global traversal ordinal per log (the
        #: merge key that reproduces linear-scan order across types)
        self._log_order: Dict[Type[EventLog], List[int]] = {}
        self._next_ordinal = 0

    # Refresh (the invalidation-on-append mechanism) ----------------------

    def refresh(self) -> None:
        """Fold any blocks appended since the last fold into the index."""
        self._refresh_blocks()
        if self._logs_consumed < len(self._numbers) and self._logs:
            # Postings exist, so log queries are live: keep them current.
            self._refresh_logs()

    def warm(self) -> None:
        """Build both tiers eagerly — block positions *and* postings —
        so forked workers inherit a fully-built index."""
        self._refresh_blocks()
        self._refresh_logs()

    def _refresh_blocks(self) -> None:
        blocks = self.chain.blocks
        if self._blocks_consumed == len(blocks):
            return
        for block in blocks[self._blocks_consumed:]:
            self._numbers.append(block.number)
        self._blocks_consumed = len(blocks)

    def _refresh_logs(self) -> None:
        blocks = self.chain.blocks
        if self._logs_consumed == len(blocks):
            return
        ordinal = self._next_ordinal
        for block in blocks[self._logs_consumed:]:
            for receipt in block.receipts:
                for log in receipt.logs:
                    cls = type(log)
                    entry = self._logs.get(cls)
                    if entry is None:
                        entry = self._logs[cls] = []
                        self._log_blocks[cls] = []
                        self._log_order[cls] = []
                    entry.append(log)
                    self._log_blocks[cls].append(block.number)
                    self._log_order[cls].append(ordinal)
                    ordinal += 1
        self._next_ordinal = ordinal
        self._logs_consumed = len(blocks)

    # Introspection -------------------------------------------------------

    @property
    def blocks_indexed(self) -> int:
        """How many blocks the position index has folded so far."""
        return self._blocks_consumed

    @property
    def logs_indexed_through(self) -> int:
        """How many blocks the postings lists have folded so far."""
        return self._logs_consumed

    def postings(self, event_type: Type[EventLog]) -> List[Posting]:
        """The coordinates list for one *concrete* event type."""
        self._refresh_blocks()
        self._refresh_logs()
        logs = self._logs.get(event_type, [])
        blocks = self._log_blocks.get(event_type, [])
        return [Posting(number, log.tx_index, log.log_index)
                for number, log in zip(blocks, logs)]

    # Queries -------------------------------------------------------------

    def block_positions(self, from_block: Optional[int] = None,
                        to_block: Optional[int] = None) -> Tuple[int, int]:
        """``(start, stop)`` offsets into ``chain.blocks`` for the range."""
        self._refresh_blocks()
        start = 0 if from_block is None else \
            bisect_left(self._numbers, from_block)
        stop = len(self._numbers) if to_block is None else \
            bisect_right(self._numbers, to_block)
        return start, max(start, stop)

    def blocks_in_range(self, from_block: Optional[int] = None,
                        to_block: Optional[int] = None) -> List["Block"]:
        """The blocks in ``[from_block, to_block]``, ascending."""
        start, stop = self.block_positions(from_block, to_block)
        return self.chain.blocks[start:stop]

    def logs_in_range(self, event_type: Type[EventLog],
                      from_block: Optional[int] = None,
                      to_block: Optional[int] = None) -> List[EventLog]:
        """All logs of ``event_type`` (or a subclass) in the range, in
        chain traversal order — element-for-element what the linear
        ``isinstance`` scan returned."""
        self._refresh_blocks()
        self._refresh_logs()
        slices: List[Tuple[List[int], List[EventLog]]] = []
        for cls, logs in self._logs.items():
            if not issubclass(cls, event_type):
                continue
            block_keys = self._log_blocks[cls]
            lo = 0 if from_block is None else \
                bisect_left(block_keys, from_block)
            hi = len(block_keys) if to_block is None else \
                bisect_right(block_keys, to_block)
            if lo < hi:
                slices.append((self._log_order[cls][lo:hi],
                               logs[lo:hi]))
        if not slices:
            return []
        if len(slices) == 1:
            return list(slices[0][1])
        merged: List[Tuple[int, EventLog]] = []
        for order, logs in slices:
            merged.extend(zip(order, logs))
        merged.sort(key=lambda pair: pair[0])
        return [log for _, log in merged]
