"""Blockchain rollback seam and parent-linkage validation.

``Blockchain.append`` validates every link; ``Blockchain.rollback``
truncates to a fork point keeping every derived structure — the tx
locator — consistent.  The anchor property: **rollback + re-append is
indistinguishable from a chain that never forked**, queries
element-for-element.
"""

import random

import pytest

from repro.chain.events import SwapEvent, TransferEvent
from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.types import address_from_label

from tests.chain.test_node import (
    POOL,
    chain_of,
    make_block,
    make_receipt,
)


def logs_chain(n_blocks, seed):
    """A chain of ``n_blocks`` with a seeded random mix of log kinds."""
    rng = random.Random(seed)
    per_block = []
    for _ in range(n_blocks):
        logs = []
        for _ in range(rng.randrange(0, 4)):
            if rng.random() < 0.5:
                logs.append(TransferEvent(POOL, amount=rng.randrange(9)))
            else:
                logs.append(SwapEvent(POOL, venue="UniswapV2"))
        per_block.append(logs)
    return per_block


class TestAppendValidation:
    def test_append_stamps_parent_hash(self):
        chain = chain_of([], [])
        genesis, child = chain.blocks
        assert genesis.parent_hash is None
        assert child.parent_hash == genesis.hash

    def test_non_contiguous_append_rejected(self):
        chain = chain_of([])
        with pytest.raises(ValueError, match="non-contiguous"):
            chain.append(make_block(3))

    def test_parent_hash_mismatch_rejected(self):
        chain = chain_of([], [])
        wrong = make_block(3)
        wrong.parent_hash = "0x" + "ab" * 32
        with pytest.raises(ValueError, match="parent hash mismatch"):
            chain.append(wrong)
        assert chain.height == 2  # nothing was stored

    def test_restamped_block_revalidates(self):
        """A block the chain already stamped re-appends cleanly after a
        rollback — the stream engine's replay path."""
        chain = chain_of([], [], [])
        removed = chain.rollback(1)
        assert [b.parent_hash for b in removed] \
            == [chain.blocks[0].hash, removed[0].hash]
        for block in removed:
            chain.append(block)
        assert chain.height == 3


class TestRollback:
    def test_rollback_truncates_and_returns_removed(self):
        chain = chain_of([], [], [], [], [])
        removed = chain.rollback(2)
        assert [b.number for b in removed] == [3, 4, 5]
        assert chain.height == 2
        assert chain.block_by_number(3) is None

    def test_rollback_at_or_above_tip_is_noop(self):
        chain = chain_of([], [])
        assert chain.rollback(2) == []
        assert chain.rollback(9) == []
        assert chain.height == 2

    def test_rollback_past_first_block_rejected(self):
        chain = chain_of([], [])
        with pytest.raises(ValueError, match="chain starts at"):
            chain.rollback(0)

    def test_rollback_drops_tx_locations(self):
        from repro.chain.block import BlockBuilder
        from repro.chain.intents import TokenTransferIntent
        from repro.chain.state import WorldState
        from repro.chain.transaction import Transaction
        from repro.chain.types import ether, gwei
        sender = address_from_label("rollback-sender")
        state = WorldState()
        state.credit_eth(sender, ether(1_000))
        state.mint_token("DAI", sender, 10**6)
        chain = Blockchain()
        for number in (1, 2):
            builder = BlockBuilder(state, number=number,
                                   timestamp=13 * number,
                                   coinbase=address_from_label("m"),
                                   base_fee=0)
            builder.apply_transaction(Transaction(
                sender=sender, nonce=state.nonce(sender), to=POOL,
                gas_price=gwei(10), gas_limit=60_000,
                intent=TokenTransferIntent("DAI", POOL, number)))
            chain.append(builder.finalize())
        kept = chain.blocks[0].transactions[0].hash
        dropped = chain.blocks[1].transactions[0].hash
        chain.rollback(1)
        assert chain.locate_transaction(kept) is not None
        assert chain.locate_transaction(dropped) is None

    def test_rollback_then_reappend_queries_current_chain(self):
        chain = chain_of([TransferEvent(POOL, amount=1)], [],
                         [TransferEvent(POOL, amount=2)])
        node = ArchiveNode(chain)
        assert [log.amount for log in node.get_logs(TransferEvent)] \
            == [1, 2]
        removed = chain.rollback(1)
        assert [log.amount for log in node.get_logs(TransferEvent)] \
            == [1]
        assert node.get_logs(TransferEvent, 2, 3) == []
        for block in removed:
            chain.append(block)
        assert [log.amount for log in node.get_logs(TransferEvent)] \
            == [1, 2]
        assert [log.block_number
                for log in node.get_logs(TransferEvent, 2, 3)] == [3]


class TestRollbackReplayEquivalence:
    """rollback + re-append ≡ a fresh chain, property-style."""

    @pytest.mark.parametrize("seed", range(5))
    def test_replayed_index_matches_fresh(self, seed):
        rng = random.Random(1000 + seed)
        per_block = logs_chain(rng.randrange(4, 12), seed)
        fork_point = rng.randrange(1, len(per_block))

        replayed = chain_of(*per_block)
        fresh = chain_of(*per_block)
        node = ArchiveNode(replayed)
        node.get_logs(TransferEvent)
        removed = replayed.rollback(fork_point)
        for block in removed:
            replayed.append(block)

        for cls in (TransferEvent, SwapEvent):
            assert node.get_logs(cls) \
                == ArchiveNode(fresh).get_logs(cls)
            lo = rng.randrange(1, len(per_block) + 1)
            hi = rng.randrange(lo, len(per_block) + 1)
            assert node.get_logs(cls, lo, hi) \
                == ArchiveNode(fresh).get_logs(cls, lo, hi)
            assert [b.hash for b in node.iter_blocks(lo, hi)] \
                == [b.hash for b in ArchiveNode(fresh).iter_blocks(lo, hi)]
        assert [b.hash for b in replayed.blocks] \
            == [b.hash for b in fresh.blocks]

    @pytest.mark.parametrize("seed", range(3))
    def test_replay_with_different_suffix_matches_fresh(self, seed):
        """Re-append a *different* suffix (the reorg case) and compare
        against a chain built with that suffix from scratch."""
        rng = random.Random(2000 + seed)
        shared = logs_chain(rng.randrange(3, 8), seed)
        suffix = logs_chain(rng.randrange(1, 5), seed + 99)
        miner = address_from_label(f"fork-miner-{seed}")

        def suffix_blocks(start):
            blocks = []
            for offset, logs in enumerate(suffix):
                number = start + offset
                receipt = make_receipt(number, 0, list(logs))
                block = make_block(number, [receipt])
                block.miner = miner  # distinct hash from the old branch
                blocks.append(block)
            return blocks

        reorged = chain_of(*shared)
        node = ArchiveNode(reorged)
        node.get_logs(SwapEvent)
        fork_point = rng.randrange(1, len(shared) + 1)
        reorged.rollback(fork_point)
        for block in suffix_blocks(fork_point + 1):
            reorged.append(block)

        fresh = chain_of(*shared[:fork_point])
        for block in suffix_blocks(fork_point + 1):
            fresh.append(block)

        for cls in (TransferEvent, SwapEvent):
            assert node.get_logs(cls) == ArchiveNode(fresh).get_logs(cls)
        assert [b.hash for b in node.iter_blocks()] \
            == [b.hash for b in ArchiveNode(fresh).iter_blocks()]
