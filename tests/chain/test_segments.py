"""Tests for the spillable segment store and segment-backed chain.

The segment store follows the world-cache integrity rule: any anomaly
— missing manifest, unknown format, truncated or tampered segment —
raises :class:`SegmentIntegrityError` with a clear message, and
``open_or_create`` answers every anomaly with a fresh store.  The
spilling chain must serve reads bit-identically to a plain in-memory
:class:`Blockchain` while keeping only a bounded tail resident.
"""

import json
import os
import pickle

import pytest

from repro.chain.block import BlockBuilder
from repro.chain.intents import TokenTransferIntent
from repro.chain.node import Blockchain
from repro.chain.segments import (
    MANIFEST_NAME,
    SEGMENT_FORMAT,
    SegmentIntegrityError,
    SegmentReader,
    SegmentStore,
    SpillingBlockchain,
)
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label, ether, gwei

A = address_from_label("alice")
B = address_from_label("bob")
MINER = address_from_label("miner")


def build_blocks(num_blocks):
    """``num_blocks`` contiguous blocks, one token transfer each."""
    state = WorldState()
    state.credit_eth(A, ether(1_000))
    state.mint_token("DAI", A, 10**6)
    blocks = []
    for n in range(1, num_blocks + 1):
        bld = BlockBuilder(state, number=n, timestamp=13 * n,
                           coinbase=MINER, base_fee=0)
        tx = Transaction(sender=A, nonce=state.nonce(A), to=B,
                         gas_price=gwei(10), gas_limit=60_000,
                         intent=TokenTransferIntent("DAI", B, n))
        bld.apply_transaction(tx)
        blocks.append(bld.finalize())
    return blocks


def filled_store(tmp_path, epochs=4, epoch_blocks=3):
    """A store with ``epochs`` spilled segments plus the source blocks."""
    store = SegmentStore.create(str(tmp_path / "segs"))
    blocks = build_blocks(epochs * epoch_blocks)
    for epoch in range(epochs):
        store.write_segment(
            epoch, blocks[epoch * epoch_blocks:(epoch + 1) * epoch_blocks])
    return store, blocks


class TestSegmentStore:
    def test_round_trip(self, tmp_path):
        store, blocks = filled_store(tmp_path)
        loaded = store.load_segment(1)
        assert [b.number for b in loaded] == [4, 5, 6]
        assert [b.hash for b in loaded] == [b.hash for b in blocks[3:6]]
        manifest = json.loads(
            (tmp_path / "segs" / MANIFEST_NAME).read_text())
        assert manifest["format"] == SEGMENT_FORMAT
        assert len(manifest["segments"]) == 4

    def test_segment_for_block_bisects(self, tmp_path):
        store, _ = filled_store(tmp_path)
        assert store.segment_for_block(1).epoch == 0
        assert store.segment_for_block(6).epoch == 1
        assert store.segment_for_block(12).epoch == 3
        assert store.segment_for_block(13) is None
        assert store.segment_for_block(0) is None

    def test_non_contiguous_segment_rejected(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        blocks = build_blocks(4)
        with pytest.raises(ValueError):
            store.write_segment(0, [blocks[0], blocks[2]])
        with pytest.raises(ValueError):
            store.write_segment(0, [])

    def test_reopen_reads_existing_manifest(self, tmp_path):
        store, blocks = filled_store(tmp_path)
        reopened = SegmentStore(store.root)
        assert [s.epoch for s in reopened.segments] == [0, 1, 2, 3]
        assert [b.hash for b in reopened.load_segment(2)] == \
            [b.hash for b in blocks[6:9]]


class TestIntegrity:
    def test_corrupt_segment_file(self, tmp_path):
        store, _ = filled_store(tmp_path)
        path = os.path.join(store.root, store.segments[1].filename)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle at all")
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(1)

    def test_truncated_segment_file(self, tmp_path):
        store, _ = filled_store(tmp_path)
        path = os.path.join(store.root, store.segments[2].filename)
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[:len(payload) // 2])
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(2)

    def test_missing_segment_file(self, tmp_path):
        store, _ = filled_store(tmp_path)
        os.remove(os.path.join(store.root, store.segments[0].filename))
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(0)

    def test_fingerprint_mismatch(self, tmp_path):
        store, blocks = filled_store(tmp_path)
        # Swap epoch 0's file for epoch 1's content: unpickles fine,
        # right count, but the content fingerprint gives it away.
        with open(os.path.join(store.root,
                               store.segments[0].filename), "wb") as out:
            pickle.dump(blocks[3:6], out)
        with pytest.raises(SegmentIntegrityError,
                           match="fingerprint mismatch"):
            store.load_segment(0)

    def test_unknown_epoch(self, tmp_path):
        store, _ = filled_store(tmp_path)
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(99)


class TestFormatRejection:
    def test_formatless_manifest_names_the_old_layout(self, tmp_path):
        """A cache written by <= 1.5.0 (no format marker) is rejected
        with a message that says so, never a pickle traceback."""
        root = tmp_path / "old"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(json.dumps({"segments": []}))
        with pytest.raises(SegmentIntegrityError,
                           match=r"older repro \(<= 1\.5\.0"):
            SegmentStore(str(root))

    def test_future_format_rejected_clearly(self, tmp_path):
        root = tmp_path / "future"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"format": SEGMENT_FORMAT + 1, "segments": []}))
        with pytest.raises(SegmentIntegrityError,
                           match=f"format {SEGMENT_FORMAT}"):
            SegmentStore(str(root))

    def test_nonempty_dir_without_manifest_refused(self, tmp_path):
        root = tmp_path / "junk"
        root.mkdir()
        (root / "unrelated.txt").write_text("keep out")
        with pytest.raises(SegmentIntegrityError, match="no manifest"):
            SegmentStore(str(root))

    def test_garbage_manifest(self, tmp_path):
        root = tmp_path / "garbage"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SegmentIntegrityError, match="unreadable"):
            SegmentStore(str(root))

    def test_open_or_create_answers_anomaly_with_fresh(self, tmp_path):
        """The PR-4 rule: any anomaly means re-simulate from scratch."""
        root = tmp_path / "recover"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(json.dumps({"segments": []}))
        (root / "seg-000000.pkl").write_bytes(b"stale garbage")
        store = SegmentStore.open_or_create(str(root))
        assert store.segments == []
        assert not (root / "seg-000000.pkl").exists()
        blocks = build_blocks(2)
        store.write_segment(0, blocks)
        assert [b.hash for b in store.load_segment(0)] == \
            [b.hash for b in blocks]


class TestSegmentReader:
    def test_lru_stays_bounded(self, tmp_path):
        store, _ = filled_store(tmp_path, epochs=5)
        reader = SegmentReader(store, max_resident=2)
        for number in (1, 4, 7, 10, 13):
            assert reader.block(number).number == number
            assert len(reader.resident_epochs) <= 2
        assert reader.resident_epochs == [3, 4]
        # Re-touching an older block recalls it through the LRU.
        assert reader.block(1).number == 1
        assert reader.resident_epochs == [4, 0]

    def test_bounded_matches_unbounded_reference(self, tmp_path):
        """The manifest-bisect fast path must yield exactly what the
        ``bounded=False`` reference (``_iter_range_unbounded``) yields,
        for full, partial, cross-segment, and empty ranges."""
        store, _ = filled_store(tmp_path, epochs=4, epoch_blocks=3)
        fast = SegmentReader(store, max_resident=1)
        reference = SegmentReader(store, bounded=False)
        ranges = [(None, None), (1, 12), (2, 11), (4, 6), (5, 8),
                  (1, 1), (12, 12), (9, 4), (20, 30)]
        for lo, hi in ranges:
            got = [b.hash for b in fast.iter_range(lo, hi)]
            want = [b.hash for b in reference.iter_range(lo, hi)]
            assert got == want, (lo, hi)
        # The reference never evicts; the fast path stayed bounded.
        assert len(fast.resident_epochs) <= 1
        assert len(reference.resident_epochs) == 4

    def test_block_outside_store(self, tmp_path):
        store, _ = filled_store(tmp_path)
        reader = SegmentReader(store)
        assert reader.block(999) is None

    def test_max_resident_must_be_positive(self, tmp_path):
        store, _ = filled_store(tmp_path)
        with pytest.raises(ValueError):
            SegmentReader(store, max_resident=0)


class TestSpillingBlockchain:
    def spilled_pair(self, tmp_path, num_blocks=14, epoch_blocks=3,
                     max_resident=2):
        """The same block sequence appended to a plain chain and a
        spilling chain (shared objects; both stamp identical linkage)."""
        blocks = build_blocks(num_blocks)
        plain = Blockchain()
        store = SegmentStore.create(str(tmp_path / "segs"))
        spilling = SpillingBlockchain(
            store, epoch_blocks=epoch_blocks,
            max_resident_epochs=max_resident)
        for block in blocks:
            plain.append(block)
            spilling.append(block)
        return plain, spilling

    def test_residency_stays_bounded(self, tmp_path):
        _, spilling = self.spilled_pair(tmp_path, num_blocks=20,
                                        epoch_blocks=3, max_resident=2)
        # Retained tail plus the in-progress epoch.
        assert len(spilling.blocks) <= (2 + 1) * 3
        assert spilling.height == 20
        assert spilling.earliest_number == 1

    def test_reads_match_in_memory_chain(self, tmp_path):
        plain, spilling = self.spilled_pair(tmp_path)
        for number in range(1, 15):
            assert spilling.block_by_number(number).hash == \
                plain.block_by_number(number).hash
        assert spilling.block_by_number(99) is None
        for lo, hi in ((None, None), (1, 14), (2, 5), (7, 13),
                       (14, 14), (10, 3)):
            got = [b.hash for b in spilling.iter_range(lo, hi)]
            want = [b.hash for b in plain.iter_range(lo, hi)] \
                if hasattr(plain, "iter_range") else \
                [b.hash for b in plain.blocks
                 if (lo is None or b.number >= lo)
                 and (hi is None or b.number <= hi)]
            assert got == want, (lo, hi)

    def test_locate_transaction_falls_back_to_segments(self, tmp_path):
        plain, spilling = self.spilled_pair(tmp_path)
        # Block 1 was evicted long ago; its tx resolves via segments.
        tx = plain.blocks[0].transactions[0]
        located = spilling.locate_transaction(tx.hash)
        assert located is not None
        block, position = located
        assert block.number == 1 and position == 0
        assert spilling.locate_transaction("0x" + "00" * 32) is None

    def test_index_property_raises(self, tmp_path):
        _, spilling = self.spilled_pair(tmp_path)
        with pytest.raises(RuntimeError, match="no in-memory index"):
            spilling.index

    def test_rollback_below_resident_window_raises(self, tmp_path):
        _, spilling = self.spilled_pair(tmp_path)
        resident_start = spilling.blocks[0].number
        with pytest.raises(ValueError, match="chain starts at"):
            spilling.rollback(resident_start - 2)
        # Shallow rollbacks inside the window still work.
        spilling.rollback(13)
        assert spilling.height == 13

    def test_validation(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        with pytest.raises(ValueError):
            SpillingBlockchain(store, epoch_blocks=0)
        with pytest.raises(ValueError):
            SpillingBlockchain(store, epoch_blocks=3,
                               max_resident_epochs=0)
