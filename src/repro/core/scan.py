"""Single-pass detection: one ranged block read feeds every heuristic.

:class:`BlockScan` walks a block range exactly once: every block is
bucketed into a :class:`BlockView` (swaps per successful receipt,
liquidation events, flash-loan events) and each registered visitor
consumes that view.  The per-heuristic visitors live next to their
standalone entry points in :mod:`repro.core.heuristics`; the standalone
``detect_*`` functions are thin wrappers over them and stay as the
reference the fused scan is checked against (they import
:class:`BlockView` lazily, so this module can import the visitors).

**Scan contract.**  Visitors see blocks in ascending order, exactly
once each, and never touch the archive: everything a record needs —
the attacker receipts behind a sandwich's gas accounting, the
liquidating transaction's receipt — is already in the view's block.
A scanned range therefore costs one archive op, the ranged
``iter_blocks(lo, hi)`` that :func:`read_views` issues, and extra
detection definitions plug in as further visitors at no read cost.
:func:`scan_block` runs the same visitors over a block already in hand
(the stream engine's) and costs no archive op at all.

:func:`read_views` is the one read path: whatever the node — in
memory, segment-backed, or wrapped by a fault/retry source — each block
``iter_blocks`` yields is bucketed by one walk of its receipts.

Bucketing mirrors the heuristics' historical filters bit for bit:
swap and liquidation events are taken from *successful* receipts only,
while flash-loan events are status-blind (``get_logs`` never filtered
on receipt status).  Venue/platform filtering stays inside each
visitor — the buckets are shared, the coverage policies are not.
"""

from __future__ import annotations

from typing import (Any, Iterable, List, Optional, Protocol, Sequence, Set,
                    Tuple)

from repro.chain.block import Block
from repro.chain.events import FlashLoanEvent, LiquidationEvent, SwapEvent
from repro.chain.receipt import Receipt
from repro.chain.types import Hash32
from repro.core.datasets import MevDataset
from repro.core.heuristics.arbitrage import ArbitrageVisitor
from repro.core.heuristics.flashloan import FlashLoanVisitor
from repro.core.heuristics.liquidation import LiquidationVisitor
from repro.core.heuristics.sandwich import SandwichVisitor
from repro.core.profit import PriceService

__all__ = ["BlockScan", "BlockView", "BlockVisitor", "read_views",
           "scan_block", "scan_range"]

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


def read_views(node: Any, from_block: Optional[int] = None,
               to_block: Optional[int] = None) -> Iterable[BlockView]:
    """One ranged ``iter_blocks`` read, each block bucketed by
    :meth:`BlockView.of` — the only archive op a scan issues."""
    return map(BlockView.of, node.iter_blocks(from_block, to_block))


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
