"""Single-pass detection: one ranged block read feeds every heuristic.

:class:`Detector` walks a block range exactly once: every block is
bucketed into a :class:`BlockView` (swaps per successful receipt,
liquidation events, flash-loan events) and each of its four visitors
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
``iter_blocks(lo, hi)`` of :meth:`Detector.scan_range`, and extra
detection definitions plug in as further visitors at no read cost.
:meth:`Detector.scan_block` runs the same visitors over a block
already in hand (the stream engine's) and costs no archive op at all.
Whatever the node — in memory, segment-backed, or wrapped by a
fault/retry source — each block it yields is bucketed by one walk of
its receipts.

Bucketing mirrors the heuristics' historical filters bit for bit:
swap and liquidation events are taken from *successful* receipts only,
while flash-loan events are status-blind (``get_logs`` never filtered
on receipt status).  Venue/platform filtering stays inside each
visitor — the buckets are shared, the coverage policies are not.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.chain.block import Block
from repro.chain.events import FlashLoanEvent, LiquidationEvent, SwapEvent
from repro.chain.receipt import Receipt
from repro.core.datasets import ChunkPayload
from repro.core.heuristics.arbitrage import ArbitrageVisitor
from repro.core.heuristics.flashloan import FlashLoanVisitor
from repro.core.heuristics.liquidation import LiquidationVisitor
from repro.core.heuristics.sandwich import SandwichVisitor
from repro.core.profit import PriceService

__all__ = ["BlockView", "Detector"]

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


class Detector:
    """The four heuristics' visitors, built once per consumer (each
    :class:`~repro.engine.ChunkRunner` and
    :class:`~repro.stream.StreamEngine`) and reused for every call.

    A call buckets each block into one :class:`BlockView` for every
    visitor and returns its :class:`~repro.core.datasets.ChunkPayload`.
    It starts the visitors empty, so a call that raised part-way
    leaves nothing behind for the next.
    """

    def __init__(self, prices: PriceService) -> None:
        self._sandwich = SandwichVisitor(prices)
        self._arbitrage = ArbitrageVisitor(prices)
        self._liquidation = LiquidationVisitor(prices)
        self._flash = FlashLoanVisitor()
        self._visitors = (self._sandwich, self._arbitrage,
                          self._liquidation, self._flash)

    def scan_range(self, node: Any, from_block: Optional[int] = None,
                   to_block: Optional[int] = None) -> ChunkPayload:
        """A block range of ``node``; its one ranged ``iter_blocks``
        read is the only archive op."""
        return self._scan(node.iter_blocks(from_block, to_block))

    def scan_block(self, block: Block) -> ChunkPayload:
        """One block already in hand, with no archive read (the stream
        engine's per-announcement path)."""
        return self._scan((block,))

    def _scan(self, blocks: Iterable[Block]) -> ChunkPayload:
        visitors = self._visitors
        for visitor in visitors:
            visitor.reset()
        for block in blocks:
            view = BlockView.of(block)
            for visitor in visitors:
                visitor.visit(view)
        return ChunkPayload((*self._sandwich.finalize(),
                             *self._arbitrage.finalize(),
                             *self._liquidation.finalize()),
                            frozenset(self._flash.finalize()))
