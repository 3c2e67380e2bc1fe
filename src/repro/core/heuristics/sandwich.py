"""Sandwich (insertion-frontrunning) detection — Torres et al. heuristic.

Operating purely on archive-node data, a sandwich is three swaps on the
*same pool* in the *same block*:

* ``t1`` (frontrun) and ``t2`` (backrun) share a taker and are distinct
  transactions, with ``t1`` trading X→Y and ``t2`` trading Y→X;
* the victim ``V`` sits strictly between them in block order, trades the
  same direction X→Y as ``t1``, and has a different taker;
* the amount ``t2`` sells matches (within tolerance) the amount ``t1``
  bought — the attacker is unwinding exactly the frontrun position.

Coverage matches the paper's script: Bancor, SushiSwap and Uniswap pools
(the venue registry tags every swap event with its venue).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.chain.events import SwapEvent
from repro.chain.node import ArchiveNode
from repro.chain.receipt import Receipt
from repro.chain.types import Hash32
from repro.core.datasets import SandwichRecord
from repro.core.profit import PriceService, transaction_cost

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids module cycle
    from repro.core.scan import BlockView

#: Venues the sandwich script covers (paper Section 3.1.1).
DEFAULT_VENUES = ("Bancor", "SushiSwap", "UniswapV1", "UniswapV2",
                  "UniswapV3")

#: Max relative mismatch between frontrun output and backrun input, in
#: parts per thousand (the unwind-consistency check).
AMOUNT_TOLERANCE_PERMILLE = 10


def _amounts_match(bought: int, sold: int,
                   tolerance_permille: int = AMOUNT_TOLERANCE_PERMILLE,
                   ) -> bool:
    if bought <= 0 or sold <= 0:
        return False
    return abs(bought - sold) * 1_000 <= tolerance_permille * bought


def _find_in_pool(swaps: List[SwapEvent]) -> List[Tuple[SwapEvent,
                                                        SwapEvent,
                                                        SwapEvent]]:
    """All (front, victim, back) triples within one pool's block swaps."""
    triples = []
    used_txs = set()
    swaps = sorted(swaps, key=lambda s: (s.tx_index, s.log_index))
    for i, front in enumerate(swaps):
        if front.tx_hash in used_txs:
            continue
        for k in range(len(swaps) - 1, i + 1, -1):
            back = swaps[k]
            if back.tx_hash in used_txs:
                continue
            if back.taker != front.taker:
                continue
            if back.tx_hash == front.tx_hash:
                continue
            if (back.token_in, back.token_out) != (front.token_out,
                                                   front.token_in):
                continue
            if not _amounts_match(front.amount_out, back.amount_in):
                continue
            victim = _pick_victim(swaps, i, k, front)
            if victim is None:
                continue
            triples.append((front, victim, back))
            used_txs.update({front.tx_hash, back.tx_hash,
                             victim.tx_hash})
            break
    return triples


def _pick_victim(swaps: List[SwapEvent], front_index: int,
                 back_index: int, front: SwapEvent,
                 ) -> Optional[SwapEvent]:
    """The largest same-direction, different-taker swap strictly between
    the attacker's two legs."""
    best: Optional[SwapEvent] = None
    for j in range(front_index + 1, back_index):
        candidate = swaps[j]
        if candidate.taker == front.taker:
            continue
        if candidate.tx_index <= front.tx_index:
            continue
        if (candidate.token_in, candidate.token_out) != (front.token_in,
                                                         front.token_out):
            continue
        if best is None or candidate.amount_in > best.amount_in:
            best = candidate
    return best


class SandwichVisitor:
    """Per-block sandwich detector for :class:`~repro.core.scan.Detector`.

    ``reset`` empties it for the next call; ``visit`` finds the (front, victim, back) triples from the view's
    pre-bucketed swaps, keeping the two attacker receipts the view
    already holds; ``finalize`` builds the records — price checks and
    gas accounting — in discovery order.  No archive access.
    """

    def __init__(self, prices: PriceService,
                 venues: Sequence[str] = DEFAULT_VENUES) -> None:
        self.prices = prices
        self.venues = venues
        self._venue_set = frozenset(venues)
        self.reset()

    def reset(self) -> None:
        self._pending: List[Tuple[Block, str, SwapEvent, SwapEvent,
                                  SwapEvent, List[Receipt]]] = []

    def visit(self, view: BlockView) -> None:
        venues = self._venue_set
        matched: List[SwapEvent] = []
        for _, swaps in view.swap_receipts:
            for log in swaps:
                if log.venue in venues:
                    matched.append(log)
        # A sandwich needs three swaps in one pool; fewer than three in
        # the whole block cannot group into one.
        if len(matched) < 3:
            return
        grouped: Dict[str, List[SwapEvent]] = defaultdict(list)
        for log in matched:
            grouped[log.address].append(log)
        receipt_of: Optional[Dict[Hash32, Receipt]] = None
        for pool_address, swaps in grouped.items():
            if len(swaps) < 3:
                continue
            for front, victim, back in _find_in_pool(swaps):
                if receipt_of is None:
                    receipt_of = {log.tx_hash: receipt
                                  for receipt, logs in view.swap_receipts
                                  for log in logs}
                self._pending.append((
                    view.block, pool_address, front, victim, back,
                    [receipt_of[front.tx_hash], receipt_of[back.tx_hash]]))

    def finalize(self) -> List[SandwichRecord]:
        records: List[SandwichRecord] = []
        for block, pool_address, front, victim, back, receipts \
                in self._pending:
            record = _build_record(self.prices, block, pool_address,
                                   front, victim, back, receipts)
            if record is not None:
                records.append(record)
        return records


def detect_sandwiches(node: ArchiveNode, prices: PriceService,
                      from_block: Optional[int] = None,
                      to_block: Optional[int] = None,
                      venues: Sequence[str] = DEFAULT_VENUES,
                      ) -> List[SandwichRecord]:
    """Scan a block range and return every detected sandwich.

    Thin wrapper over :class:`SandwichVisitor`: one block pass, then
    record construction in discovery order.
    """
    from repro.core.scan import BlockView  # scan imports this module
    visitor = SandwichVisitor(prices, venues)
    for block in node.iter_blocks(from_block, to_block):
        visitor.visit(BlockView.of(block))
    return visitor.finalize()


def _build_record(prices: PriceService, block: Block, pool_address: str,
                  front: SwapEvent, victim: SwapEvent, back: SwapEvent,
                  receipts: List[Receipt]) -> Optional[SandwichRecord]:
    # Gain: what the backrun recovered minus what the frontrun spent,
    # valued in ETH at this block (paper Section 3.1.1).
    gain_raw = back.amount_out - front.amount_in
    gain_wei = prices.value_in_eth(front.token_in, gain_raw,
                                   block.number)
    if gain_wei is None:
        return None
    cost_wei = transaction_cost(receipts)
    miner_revenue = sum(receipt.total_miner_payment
                        for receipt in receipts)
    return SandwichRecord(
        block_number=block.number, pool_address=pool_address,
        venue=front.venue, extractor=front.taker, victim=victim.taker,
        front_tx=front.tx_hash, victim_tx=victim.tx_hash,
        back_tx=back.tx_hash, token_in=front.token_in,
        token_out=front.token_out,
        frontrun_amount_in=front.amount_in,
        backrun_amount_out=back.amount_out, gain_wei=gain_wei,
        cost_wei=cost_wei, miner_revenue_wei=miner_revenue,
        miner=block.miner)
