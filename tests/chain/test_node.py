"""Tests for the blockchain store and archive-node queries.

A ranged read is one clamped offset slice of the chain
(``Blockchain.iter_range``), and every ranged query must return exactly
the blocks in its bounds — including on chains whose first block is
above 1 and for bounds outside the stored blocks.
"""

import random

import pytest

from repro.chain.block import Block, BlockBuilder
from repro.chain.events import (
    EventLog,
    FlashLoanEvent,
    LiquidationEvent,
    OracleUpdateEvent,
    SwapEvent,
    TransferEvent,
)
from repro.chain.intents import TokenTransferIntent
from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.receipt import Receipt
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label, ether, gwei

A = address_from_label("alice")
B = address_from_label("bob")
MINER = address_from_label("miner")
SENDER = address_from_label("node-sender")
POOL = address_from_label("node-pool")


def build_chain(num_blocks=3):
    state = WorldState()
    state.credit_eth(A, ether(1_000))
    state.mint_token("DAI", A, 10**6)
    chain = Blockchain()
    for n in range(1, num_blocks + 1):
        bld = BlockBuilder(state, number=n, timestamp=13 * n,
                           coinbase=MINER, base_fee=0)
        tx = Transaction(sender=A, nonce=state.nonce(A), to=B,
                         gas_price=gwei(10), gas_limit=60_000,
                         intent=TokenTransferIntent("DAI", B, n))
        bld.apply_transaction(tx)
        chain.append(bld.finalize())
    return chain


def make_receipt(block_number, tx_index, logs, status=True):
    """A synthetic receipt carrying ``logs``, stamped like the block
    builder stamps them."""
    tx_hash = f"0x{block_number:032x}{tx_index:032x}"
    for log_index, log in enumerate(logs):
        log.stamp(block_number, tx_hash, tx_index, log_index)
    return Receipt(tx_hash=tx_hash, block_number=block_number,
                   tx_index=tx_index, sender=SENDER, to=POOL,
                   status=status, gas_used=21_000,
                   effective_gas_price=1, miner_tip_per_gas=1,
                   coinbase_transfer=0, logs=logs)


def make_block(number, receipts=()):
    return Block(number=number, timestamp=13 * number, miner=MINER,
                 base_fee=0, gas_limit=30_000_000,
                 receipts=list(receipts))


def chain_of(*blocks_logs, first=1):
    """One chain from per-block log lists: ``chain_of([log, ...], ...)``
    numbers blocks ``first..first+n-1``, one receipt per log list."""
    chain = Blockchain()
    for offset, logs in enumerate(blocks_logs):
        number = first + offset
        chain.append(make_block(
            number, [make_receipt(number, 0, list(logs))]))
    return chain


class TestBlockchain:
    def test_height_tracks_appends(self):
        chain = build_chain(3)
        assert chain.height == 3
        assert len(chain) == 3

    def test_empty_chain(self):
        chain = Blockchain()
        assert chain.height is None
        assert chain.block_by_number(1) is None

    def test_non_contiguous_rejected(self):
        chain = build_chain(2)
        rogue = build_chain(1).blocks[0]
        with pytest.raises(ValueError):
            chain.append(rogue)

    def test_block_lookup(self):
        chain = build_chain(3)
        assert chain.block_by_number(2).number == 2
        assert chain.block_by_number(99) is None

    def test_locate_transaction(self):
        chain = build_chain(2)
        tx = chain.blocks[1].transactions[0]
        block, index = chain.locate_transaction(tx.hash)
        assert block.number == 2
        assert index == 0


class TestArchiveNode:
    def test_get_transaction_and_receipt(self):
        chain = build_chain(2)
        node = ArchiveNode(chain)
        tx = chain.blocks[0].transactions[0]
        assert node.get_transaction(tx.hash) is tx
        assert node.get_receipt(tx.hash).tx_hash == tx.hash

    def test_missing_transaction(self):
        node = ArchiveNode(build_chain(1))
        assert node.get_transaction("0x" + "00" * 32) is None
        assert node.get_receipt("0x" + "00" * 32) is None

    def test_iter_blocks_bounds_inclusive(self):
        node = ArchiveNode(build_chain(5))
        numbers = [b.number for b in node.iter_blocks(2, 4)]
        assert numbers == [2, 3, 4]

    def test_get_logs_filters_by_type_and_range(self):
        node = ArchiveNode(build_chain(4))
        logs = node.get_logs(TransferEvent, from_block=2, to_block=3)
        assert [log.amount for log in logs] == [2, 3]
        assert all(isinstance(log, TransferEvent) for log in logs)

    def test_get_logs_in_chain_order(self):
        node = ArchiveNode(build_chain(4))
        logs = node.get_logs(TransferEvent)
        assert [log.block_number for log in logs] == [1, 2, 3, 4]

    def test_iter_receipts(self):
        node = ArchiveNode(build_chain(3))
        receipts = list(node.iter_receipts())
        assert len(receipts) == 3
        assert all(r.status for r in receipts)


class TestIterRange:
    def test_clamped_offset_slice(self):
        chain = chain_of([], [], [], [], [], first=10)

        def numbers(lo=None, hi=None):
            return [b.number for b in chain.iter_range(lo, hi)]

        assert numbers() == [10, 11, 12, 13, 14]
        assert numbers(11, 13) == [11, 12, 13]
        # Bounds outside the stored blocks clamp instead of wrapping:
        # a raw slice from ``lo - 10`` would start at a negative offset.
        assert numbers(3, 11) == [10, 11]
        assert numbers(-5, None) == [10, 11, 12, 13, 14]
        assert numbers(13, 99) == [13, 14]
        assert numbers(3, 8) == []
        assert numbers(15, None) == []
        assert numbers(13, 11) == []

    def test_empty_chain(self):
        chain = Blockchain()
        assert list(chain.iter_range()) == []
        assert list(chain.iter_range(1, 5)) == []
        assert chain.earliest_number is None

    def test_earliest_number_is_first_stored_block(self):
        assert chain_of([], [], first=7).earliest_number == 7
        assert ArchiveNode(chain_of([], first=7)) \
            .earliest_block_number() == 7


class TestGetLogs:
    def test_subclass_matching_mirrors_isinstance(self):
        liq = LiquidationEvent(POOL, platform="AaveV2")
        oracle = OracleUpdateEvent(POOL, token="WETH")
        swap = SwapEvent(POOL, venue="UniswapV2")
        chain = chain_of([liq], [oracle, swap])
        node = ArchiveNode(chain)
        # A base-type query returns every subclass, in traversal order.
        assert node.get_logs(EventLog) == [liq, oracle, swap]
        # A sibling lending event is not a LiquidationEvent.
        assert node.get_logs(LiquidationEvent) == [liq]
        assert node.get_logs(OracleUpdateEvent) == [oracle]

    def test_returns_the_log_objects_themselves(self):
        swap = SwapEvent(POOL, venue="SushiSwap")
        chain = chain_of([swap])
        (found,) = ArchiveNode(chain).get_logs(SwapEvent)
        assert found is swap

    def test_append_is_visible_to_the_next_query(self):
        chain = chain_of([TransferEvent(POOL, amount=1)],
                         [TransferEvent(POOL, amount=2)])
        node = ArchiveNode(chain)
        assert [log.amount for log in node.get_logs(TransferEvent)] \
            == [1, 2]
        chain.append(make_block(
            3, [make_receipt(3, 0, [TransferEvent(POOL, amount=3)])]))
        assert [log.amount for log in node.get_logs(TransferEvent)] \
            == [1, 2, 3]
        assert [b.number for b in node.iter_blocks(3, 3)] == [3]

    def test_empty_chain(self):
        node = ArchiveNode(Blockchain())
        assert list(node.iter_blocks()) == []
        assert node.get_logs(EventLog) == []


class CountingList(list):
    """A block list that counts traversals: iterations and slices."""

    def __init__(self, *args):
        super().__init__(*args)
        self.traversals = 0

    def __iter__(self):
        self.traversals += 1
        return super().__iter__()

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.traversals += 1
        return super().__getitem__(key)


class TestIterBlocksEdgeCases:
    """Empty and inclusive ranges on a chain from genesis and on one
    that starts above block 1, as a restored world's does."""

    @pytest.mark.parametrize("restored", [True, False])
    def test_from_block_past_tip_is_empty(self, restored):
        base = 10 if restored else 0
        chain = chain_of([], [], [], first=base + 1)
        chain.blocks = CountingList(chain.blocks)
        node = ArchiveNode(chain)
        assert list(node.iter_blocks(base + 4)) == []
        assert list(node.iter_blocks(base + 4, base + 9)) == []
        # Empty-by-construction ranges must not read the block list.
        assert chain.blocks.traversals == 0

    @pytest.mark.parametrize("restored", [True, False])
    def test_inverted_range_is_empty(self, restored):
        base = 10 if restored else 0
        chain = chain_of([], [], [], [], [], first=base + 1)
        chain.blocks = CountingList(chain.blocks)
        node = ArchiveNode(chain)
        assert list(node.iter_blocks(base + 4, base + 2)) == []
        assert chain.blocks.traversals == 0

    @pytest.mark.parametrize("restored", [True, False])
    def test_in_range_bounds_still_inclusive(self, restored):
        base = 10 if restored else 0
        node = ArchiveNode(chain_of([], [], [], [], [], first=base + 1))
        assert [b.number - base
                for b in node.iter_blocks(base + 2, base + 4)] == [2, 3, 4]
        assert [b.number - base for b in node.iter_blocks()] \
            == [1, 2, 3, 4, 5]


def _random_log(rng):
    choice = rng.randrange(5)
    if choice == 0:
        return TransferEvent(POOL, amount=rng.randrange(1000))
    if choice == 1:
        return SwapEvent(POOL, venue=rng.choice(["UniswapV2",
                                                 "SushiSwap"]),
                         amount_in=rng.randrange(1000))
    if choice == 2:
        return LiquidationEvent(POOL, platform="AaveV2",
                                debt_repaid=rng.randrange(1000))
    if choice == 3:
        return FlashLoanEvent(POOL, platform="Aave",
                              amount=rng.randrange(1000))
    return OracleUpdateEvent(POOL, token="WETH",
                             price_wei=rng.randrange(1000))


def _isinstance_walk(chain, event_type, lo, hi):
    """Every stored log of ``event_type`` in ``[lo, hi]``, by walking
    the whole block list and filtering with ``isinstance``."""
    return [log for block in chain.blocks
            if (lo is None or block.number >= lo)
            and (hi is None or block.number <= hi)
            for receipt in block.receipts
            for log in receipt.logs
            if isinstance(log, event_type)]


class TestIterBlocksMatchesLinearScan:
    """Property-style: on random chains, every ranged query equals a
    linear reference element for element — ``iter_blocks`` against the
    block numbers in its bounds, ``get_logs`` against an ``isinstance``
    walk of every stored block."""

    QUERY_TYPES = (EventLog, TransferEvent, SwapEvent,
                   LiquidationEvent, FlashLoanEvent,
                   OracleUpdateEvent)

    def test_random_chains_and_ranges(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(30):
            chain = Blockchain()
            node = ArchiveNode(chain)
            # Restored and spliced worlds start above block 1.
            first = rng.choice([1, 1, rng.randrange(2, 40)])
            length = rng.randrange(0, 12)
            height = first + length - 1
            for number in range(first, first + length):
                receipts = [
                    make_receipt(number, tx_index,
                                 [_random_log(rng) for _ in
                                  range(rng.randrange(0, 4))],
                                 status=rng.random() < 0.9)
                    for tx_index in range(rng.randrange(0, 3))]
                chain.append(make_block(number, receipts))
            for _ in range(15):
                event_type = rng.choice(self.QUERY_TYPES)
                # Bounds range from below the first block (a slice
                # start that would go negative) to past the tip.
                lo = rng.choice([None, rng.randrange(-2, height + 4)])
                hi = rng.choice([None, rng.randrange(-2, height + 4)])
                found = node.get_logs(event_type, lo, hi)
                walked = _isinstance_walk(chain, event_type, lo, hi)
                assert len(found) == len(walked)
                assert all(a is b for a, b in zip(found, walked))
                got = list(node.iter_blocks(lo, hi))
                if lo is not None and length and \
                        (lo > height or (hi is not None and lo > hi)):
                    assert got == []
                assert [b.number for b in got] == [
                    n for n in range(first, height + 1)
                    if (lo is None or n >= lo)
                    and (hi is None or n <= hi)]
