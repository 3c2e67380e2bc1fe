"""Liquidation-MEV detection: crawl lending-platform liquidation events.

The paper's script extracts ``Liquidation`` events from Aave V1/V2 and
Compound and computes, per event::

    gain  = value of the received collateral (in ETH, at the block)
    costs = transaction fees + value of the liquidated debt + tips

Our lending pools emit the same event shape, so the extraction is a
direct crawl.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.chain.events import LiquidationEvent
from repro.chain.node import ArchiveNode
from repro.chain.receipt import Receipt
from repro.chain.types import Address
from repro.core.datasets import LiquidationRecord
from repro.core.profit import PriceService, transaction_cost

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids module cycle
    from repro.core.scan import BlockView

DEFAULT_PLATFORMS = ("AaveV1", "AaveV2", "Compound")


class LiquidationVisitor:
    """Per-block liquidation detector for
    :class:`~repro.core.scan.Detector`.

    ``reset`` empties it for the next call; ``visit`` collects the platform-covered liquidation events with
    the liquidating transaction's receipt from the view's block;
    ``finalize`` builds the records — price checks and gas accounting —
    in discovery order.  No archive access.
    """

    def __init__(self, prices: PriceService,
                 platforms: Sequence[str] = DEFAULT_PLATFORMS) -> None:
        self.prices = prices
        self.platforms = platforms
        self.reset()

    def reset(self) -> None:
        self._pending: List[Tuple[LiquidationEvent, Address,
                                  Optional[Receipt]]] = []

    def visit(self, view: BlockView) -> None:
        block = view.block
        for event in view.liquidations:
            if event.platform in self.platforms:
                self._pending.append((event, block.miner,
                                      _receipt_of(block, event)))

    def finalize(self) -> List[LiquidationRecord]:
        records: List[LiquidationRecord] = []
        for event, miner, receipt in self._pending:
            record = _build_record(self.prices, miner, event, receipt)
            if record is not None:
                records.append(record)
        return records


def detect_liquidations(node: ArchiveNode, prices: PriceService,
                        from_block: Optional[int] = None,
                        to_block: Optional[int] = None,
                        platforms: Sequence[str] = DEFAULT_PLATFORMS,
                        ) -> List[LiquidationRecord]:
    """Scan a block range and return every detected liquidation.

    Thin wrapper over :class:`LiquidationVisitor`: one block pass, then
    record construction in discovery order.
    """
    from repro.core.scan import BlockView  # scan imports this module
    visitor = LiquidationVisitor(prices, platforms)
    for block in node.iter_blocks(from_block, to_block):
        visitor.visit(BlockView.of(block))
    return visitor.finalize()


def _receipt_of(block: Block,
                event: LiquidationEvent) -> Optional[Receipt]:
    """The receipt in ``block`` of the transaction that emitted
    ``event``."""
    return next((receipt for receipt in block.receipts
                 if receipt.tx_hash == event.tx_hash), None)


def _build_record(prices: PriceService, miner: str,
                  event: LiquidationEvent, receipt: Optional[Receipt],
                  ) -> Optional[LiquidationRecord]:
    gain_wei = prices.value_in_eth(event.collateral_token,
                                   event.collateral_seized,
                                   event.block_number)
    debt_wei = prices.value_in_eth(event.debt_token, event.debt_repaid,
                                   event.block_number)
    if gain_wei is None or debt_wei is None or receipt is None:
        return None
    cost_wei = transaction_cost([receipt]) + debt_wei
    return LiquidationRecord(
        block_number=event.block_number, tx_hash=event.tx_hash,
        platform=event.platform, liquidator=event.liquidator,
        borrower=event.borrower, debt_token=event.debt_token,
        debt_repaid=event.debt_repaid,
        collateral_token=event.collateral_token,
        collateral_seized=event.collateral_seized, gain_wei=gain_wei,
        cost_wei=cost_wei, miner=miner)
