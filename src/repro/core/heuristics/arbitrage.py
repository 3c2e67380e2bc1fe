"""Cyclic-arbitrage detection — Qin et al. heuristic.

A transaction is an arbitrage when its swap events, taken in execution
order for a single taker, chain into a *closed cycle*: each swap consumes
the token the previous one produced, at least two swaps (across one or
more venues) are involved, and the cycle returns to its starting token.
The extraction's gain is the surplus of the final output over the initial
input, valued in ETH at the block.

Coverage matches the paper's script: 0x, Balancer, Bancor, Curve,
SushiSwap and Uniswap (everything the venue registry deploys).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, List, Optional, Sequence

from repro.chain.events import SwapEvent
from repro.chain.node import ArchiveNode
from repro.chain.receipt import Receipt
from repro.core.datasets import ArbitrageRecord
from repro.core.profit import PriceService, transaction_cost

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids module cycle
    from repro.core.scan import BlockView

DEFAULT_VENUES = ("0x", "Balancer", "Bancor", "Curve", "SushiSwap",
                  "UniswapV2", "UniswapV3")


def _cycle_of(swaps: List[SwapEvent]) -> Optional[List[SwapEvent]]:
    """Return the swap chain if it forms a single closed cycle."""
    if len(swaps) < 2:
        return None
    taker = swaps[0].taker
    if any(swap.taker != taker for swap in swaps):
        return None
    for previous, current in zip(swaps, swaps[1:]):
        if current.token_in != previous.token_out:
            return None
        # Amount chaining: the attacker reinvests the whole hop output.
        if current.amount_in > previous.amount_out:
            return None
    if swaps[-1].token_out != swaps[0].token_in:
        return None
    return swaps


def _record_from_swaps(receipt: Receipt, swaps: List[SwapEvent],
                       prices: PriceService, miner: str,
                       venues: Container[str],
                       ) -> Optional[ArbitrageRecord]:
    # A cycle takes at least two covered swaps; most receipts carry a
    # single ordinary swap, so bail before filtering and sorting.
    if len(swaps) < 2:
        return None
    swaps = [log for log in swaps if log.venue in venues]
    if len(swaps) < 2:
        return None
    swaps.sort(key=lambda s: s.log_index)
    cycle = _cycle_of(swaps)
    if cycle is None:
        return None
    start_token = cycle[0].token_in
    surplus = cycle[-1].amount_out - cycle[0].amount_in
    gain_wei = prices.value_in_eth(start_token, surplus,
                                   receipt.block_number)
    if gain_wei is None:
        return None
    cost_wei = transaction_cost([receipt])
    return ArbitrageRecord(
        block_number=receipt.block_number, tx_hash=receipt.tx_hash,
        extractor=cycle[0].taker,
        venues=tuple(swap.venue for swap in cycle),
        token_cycle=tuple([cycle[0].token_in]
                          + [swap.token_out for swap in cycle]),
        amount_in=cycle[0].amount_in, amount_out=cycle[-1].amount_out,
        gain_wei=gain_wei, cost_wei=cost_wei, miner=miner)


class ArbitrageVisitor:
    """Per-block arbitrage detector for :class:`~repro.core.scan.Detector`.

    Entirely local: a cyclic arbitrage is decided from one receipt's
    swap events, so records are complete at ``visit`` time and
    ``finalize`` just hands them back — no archive traffic at all.
    ``reset`` starts a new list, leaving the one handed back intact.
    """

    def __init__(self, prices: PriceService,
                 venues: Sequence[str] = DEFAULT_VENUES) -> None:
        self.prices = prices
        self.venues = venues
        self._venue_set = frozenset(venues)
        self.reset()

    def reset(self) -> None:
        self._records: List[ArbitrageRecord] = []

    def visit(self, view: BlockView) -> None:
        for receipt, swaps in view.swap_receipts:
            if len(swaps) < 2:  # a cycle takes at least two swaps
                continue
            record = _record_from_swaps(receipt, swaps, self.prices,
                                        view.block.miner,
                                        self._venue_set)
            if record is not None:
                self._records.append(record)

    def finalize(self) -> List[ArbitrageRecord]:
        return self._records


def detect_arbitrages(node: ArchiveNode, prices: PriceService,
                      from_block: Optional[int] = None,
                      to_block: Optional[int] = None,
                      venues: Sequence[str] = DEFAULT_VENUES,
                      ) -> List[ArbitrageRecord]:
    """Scan a block range and return every detected cyclic arbitrage.

    Thin wrapper over :class:`ArbitrageVisitor` (one block pass).
    """
    from repro.core.scan import BlockView  # scan imports this module
    visitor = ArbitrageVisitor(prices, venues)
    for block in node.iter_blocks(from_block, to_block):
        visitor.visit(BlockView.of(block))
    return visitor.finalize()
