"""Single-pass detection: one ranged block read feeds every heuristic.

:class:`BlockScan` walks a block range exactly once: every block is
bucketed into a :class:`BlockView` (swaps per successful receipt,
liquidation events, flash-loan events) and each registered visitor
consumes that view.  The per-heuristic visitors live next to their
standalone entry points in :mod:`repro.core.heuristics`; the standalone
``detect_*`` functions are thin wrappers over them and stay as the
linear reference the indexed scan is checked against.

**Scan contract.**  Visitors see blocks in ascending order, exactly
once each, and never touch the archive: everything a record needs —
the attacker receipts behind a sandwich's gas accounting, the
liquidating transaction's receipt — is already in the view's block.
A scanned range therefore costs one archive op, the ranged
``iter_blocks(lo, hi)`` that :func:`read_views` issues, and extra
detection definitions plug in as further visitors at no read cost.
:func:`scan_block` runs the same visitors over a block already in hand
(the stream engine's) and costs no archive op at all.

:func:`read_views` is also the one read-path policy: on an indexed
in-memory ``ArchiveNode`` (possibly wrapped by sources exposing
``.inner``) the views come from the chain index's postings; on a
linear or segment-backed node they come from walking the receipts.

Bucketing mirrors the heuristics' historical filters bit for bit:
swap and liquidation events are taken from *successful* receipts only,
while flash-loan events are status-blind (``get_logs`` never filtered
on receipt status).  Venue/platform filtering stays inside each
visitor — the buckets are shared, the coverage policies are not.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, Optional, Protocol, Sequence,
                    Set, Tuple)

from repro.chain.block import Block
from repro.chain.events import (EventLog, FlashLoanEvent, LiquidationEvent,
                                SwapEvent)
from repro.chain.index import ChainIndex
from repro.chain.receipt import Receipt
from repro.chain.types import Hash32
from repro.core.datasets import MevDataset
from repro.core.profit import PriceService

__all__ = ["BlockScan", "BlockView", "BlockVisitor", "read_index",
           "read_views", "scan_block", "scan_range", "views_from_index"]

# Log classification, memoized per concrete event class: the bucketing
# below is the scan's innermost loop, and one dict probe beats a chain
# of isinstance checks.  Classification still *is* isinstance (so
# subclasses bucket exactly as before) — it just runs once per class.
_KIND_OTHER = 0
_KIND_SWAP = 1
_KIND_LIQUIDATION = 2
_KIND_FLASH_LOAN = 3

_LOG_KINDS: dict = {}


def _classify(log_class: type) -> int:
    if issubclass(log_class, SwapEvent):
        kind = _KIND_SWAP
    elif issubclass(log_class, LiquidationEvent):
        kind = _KIND_LIQUIDATION
    elif issubclass(log_class, FlashLoanEvent):
        kind = _KIND_FLASH_LOAN
    else:
        kind = _KIND_OTHER
    _LOG_KINDS[log_class] = kind
    return kind


class BlockView:
    """One block's receipts and logs, pre-bucketed for the visitors."""

    __slots__ = ("block", "swap_receipts", "liquidations", "flash_loans")

    def __init__(self, block: Block,
                 swap_receipts: List[Tuple[Receipt, List[SwapEvent]]],
                 liquidations: List[LiquidationEvent],
                 flash_loans: List[FlashLoanEvent]) -> None:
        self.block = block
        #: ``(receipt, its swap events)`` for successful receipts that
        #: emitted at least one swap, in block order
        self.swap_receipts = swap_receipts
        #: liquidation events from successful receipts, in block order
        self.liquidations = liquidations
        #: flash-loan events from *all* receipts (status-blind, matching
        #: the ``get_logs`` crawl), in block order
        self.flash_loans = flash_loans

    @classmethod
    def of(cls, block: Block) -> "BlockView":
        """Bucket one block's logs in a single receipts walk."""
        swap_receipts: List[Tuple[Receipt, List[SwapEvent]]] = []
        liquidations: List[LiquidationEvent] = []
        flash_loans: List[FlashLoanEvent] = []
        kinds = _LOG_KINDS
        for receipt in block.receipts:
            if receipt.status:
                swaps: List[SwapEvent] = []
                for log in receipt.logs:
                    kind = kinds.get(type(log))
                    if kind is None:
                        kind = _classify(type(log))
                    if kind == _KIND_SWAP:
                        swaps.append(log)
                    elif kind == _KIND_LIQUIDATION:
                        liquidations.append(log)
                    elif kind == _KIND_FLASH_LOAN:
                        flash_loans.append(log)
                if swaps:
                    swap_receipts.append((receipt, swaps))
            else:
                for log in receipt.logs:
                    if isinstance(log, FlashLoanEvent):
                        flash_loans.append(log)
        return cls(block, swap_receipts, liquidations, flash_loans)


def _by_block(logs: List[EventLog]) -> Dict[int, List[EventLog]]:
    """Group an ordered ``logs_in_range`` result by block number,
    preserving traversal order inside each block."""
    grouped: Dict[int, List[EventLog]] = {}
    for log in logs:
        bucket = grouped.get(log.block_number)
        if bucket is None:
            bucket = grouped[log.block_number] = []
        bucket.append(log)
    return grouped


def _view_from_buckets(block: Block,
                       swaps: Optional[List[EventLog]],
                       liquidations: Optional[List[EventLog]],
                       flash_loans: Optional[List[EventLog]],
                       ) -> BlockView:
    receipts = block.receipts
    swap_receipts: List[Tuple[Receipt, List[SwapEvent]]] = []
    if swaps:
        # Within a block the postings run in receipt order, so one
        # receipt's swaps are consecutive: group on tx_index change.
        current_index: Optional[int] = None
        current: Optional[List[SwapEvent]] = None
        for log in swaps:
            tx_index = log.tx_index
            if tx_index != current_index:
                current_index = tx_index
                receipt = receipts[tx_index]
                current = [] if receipt.status else None
                if current is not None:
                    swap_receipts.append((receipt, current))
            if current is not None:
                current.append(log)
    kept_liquidations: List[LiquidationEvent] = []
    if liquidations:
        kept_liquidations = [log for log in liquidations
                             if receipts[log.tx_index].status]
    return BlockView(block, swap_receipts, kept_liquidations,
                     flash_loans or [])


def views_from_index(index: ChainIndex,
                     blocks: Sequence[Block]) -> List[BlockView]:
    """Pre-bucketed views for already-fetched blocks, read from the
    chain index's postings instead of walking every receipt log.

    Equivalent to ``[BlockView.of(b) for b in blocks]`` — same log
    objects, same order, same status filtering — but O(matching
    events): the postings already separate the swap, liquidation and
    flash-loan logs, so the far more numerous transfer/sync events are
    never touched.  Sealed logs carry positional coordinates
    (``log.tx_index`` indexes ``block.receipts``); any block whose
    logs lack them falls back to the plain receipts walk.
    """
    if not blocks:
        return []
    lo, hi = blocks[0].number, blocks[-1].number
    swaps_by = _by_block(index.logs_in_range(SwapEvent, lo, hi))
    liquidations_by = _by_block(
        index.logs_in_range(LiquidationEvent, lo, hi))
    flash_by = _by_block(index.logs_in_range(FlashLoanEvent, lo, hi))
    if None in swaps_by or None in liquidations_by or None in flash_by:
        # Unstamped block coordinates cannot be placed — walk receipts.
        return [BlockView.of(block) for block in blocks]
    views: List[BlockView] = []
    for block in blocks:
        number = block.number
        try:
            views.append(_view_from_buckets(
                block, swaps_by.get(number), liquidations_by.get(number),
                flash_by.get(number)))
        except (IndexError, TypeError):
            views.append(BlockView.of(block))
    return views


def read_index(node: Any) -> Optional[ChainIndex]:
    """The chain index the scan may bucket from, or ``None``.

    Walks wrapping sources down ``.inner`` to the object holding the
    chain.  Only an indexed, in-memory ``ArchiveNode`` qualifies: a
    linear node is the reference path, and a segment-backed chain keeps
    only a bounded tail resident, so its reads go through the segment
    reader instead of an in-memory index.
    """
    while node is not None:
        chain = getattr(node, "chain", None)
        if chain is not None:
            if getattr(node, "segmented", False) or \
                    not getattr(node, "indexed", False):
                return None
            return chain.index
        node = getattr(node, "inner", None)
    return None


def read_views(node: Any, from_block: Optional[int] = None,
               to_block: Optional[int] = None) -> Iterable[BlockView]:
    """One ranged ``iter_blocks`` read, bucketed for the visitors.

    The only archive op a scan issues.  Reading the chain index (see
    :func:`read_index`) is local and issues none.
    """
    blocks = node.iter_blocks(from_block, to_block)
    index = read_index(node)
    if index is None:
        return map(BlockView.of, blocks)
    return views_from_index(index, list(blocks))


class BlockVisitor(Protocol):
    """A per-block heuristic consumer fed by :class:`BlockScan`."""

    def visit(self, view: BlockView) -> None: ...


class BlockScan:
    """Walk blocks once, feeding every visitor from shared buckets."""

    def __init__(self, visitors: Sequence[BlockVisitor]) -> None:
        self.visitors = list(visitors)

    def scan_views(self, views: Iterable[BlockView]) -> None:
        """Feed views (e.g. from :func:`read_views`) to every visitor in
        registration order, each view exactly once."""
        visitors = self.visitors
        for view in views:
            for visitor in visitors:
                visitor.visit(view)


def _detect(views: Iterable[BlockView], prices: PriceService,
            ) -> Tuple[MevDataset, Set[Hash32]]:
    """All four heuristics over ascending block views in one pass.

    Returns the partial dataset (sandwiches, arbitrages, liquidations —
    no joins applied) and the flash-loan transaction hashes.  The one
    visitor set and finalize step behind both :func:`scan_range` and
    :func:`scan_block`, so batch and stream detection cannot drift.
    """
    # Imported here, not at module top: the heuristics import this
    # module for BlockView/BlockScan, so the one-stop helper reaches
    # back lazily to keep the import DAG acyclic.
    from repro.core.heuristics.arbitrage import ArbitrageVisitor
    from repro.core.heuristics.flashloan import FlashLoanVisitor
    from repro.core.heuristics.liquidation import LiquidationVisitor
    from repro.core.heuristics.sandwich import SandwichVisitor

    sandwich = SandwichVisitor(prices)
    arbitrage = ArbitrageVisitor(prices)
    liquidation = LiquidationVisitor(prices)
    flash = FlashLoanVisitor()
    BlockScan([sandwich, arbitrage, liquidation, flash]).scan_views(views)
    dataset = MevDataset(
        sandwiches=sandwich.finalize(),
        arbitrages=arbitrage.finalize(),
        liquidations=liquidation.finalize(),
    )
    return dataset, flash.finalize()


def scan_range(node: Any, prices: PriceService,
               from_block: Optional[int] = None,
               to_block: Optional[int] = None,
               ) -> Tuple[MevDataset, Set[Hash32]]:
    """All four heuristics over a block range of ``node`` in one pass.

    The only archive traffic is the one ranged block read of
    :func:`read_views`.
    """
    return _detect(read_views(node, from_block, to_block), prices)


def scan_block(block: Block, prices: PriceService,
               ) -> Tuple[MevDataset, Set[Hash32]]:
    """All four heuristics over one block already in hand, with no
    archive read (the stream engine's per-announcement path)."""
    return _detect((BlockView.of(block),), prices)
