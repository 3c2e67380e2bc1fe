"""Tests for the spillable segment store and segment-backed chain.

The segment store follows the fail-closed integrity rule: any anomaly
— missing manifest, unknown format, truncated or tampered segment —
raises :class:`SegmentIntegrityError` with a clear message, and
``SegmentStore.create`` answers every anomaly with a fresh store.  The
spilling chain must serve reads bit-identically to a plain in-memory
:class:`Blockchain` while keeping only a bounded tail resident.
"""

import gc
import hashlib
import json
import os
import pickle
import re
import shutil
from dataclasses import asdict, replace

import pytest

import repro.chain.segments as segments_module
from repro.chain.block import BlockBuilder
from repro.chain.frames import SCHEMA_DIGEST, encode_frames
from repro.chain.intents import TokenTransferIntent
from repro.chain.events import TransferEvent
from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.segments import (
    _ENTRY,
    _HEADER,
    MANIFEST_HEADER,
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
        header, *entries = (tmp_path / "segs" / MANIFEST_NAME) \
            .read_text().splitlines()
        assert json.loads(header) == {"format": SEGMENT_FORMAT,
                                      "schema": SCHEMA_DIGEST}
        assert [json.loads(entry)["epoch"] for entry in entries] \
            == [0, 1, 2, 3]

    def test_segment_for_block_bisects(self, tmp_path):
        store, _ = filled_store(tmp_path)
        assert store.segment_for_block(1).epoch == 0
        assert store.segment_for_block(6).epoch == 1
        assert store.segment_for_block(12).epoch == 3
        assert store.segment_for_block(13) is None
        assert store.segment_for_block(0) is None
        # First and last block of every segment land in that segment.
        for info in store.segments:
            assert store.segment_for_block(info.first_block) == info
            assert store.segment_for_block(info.last_block) == info
        # Well past the store, and on an empty store.
        assert store.segment_for_block(10**9) is None
        empty = SegmentStore.create(str(tmp_path / "empty"))
        assert empty.segment_for_block(1) is None

    def test_rewrite_and_out_of_order_writes_keep_order(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        blocks = build_blocks(9)
        for epoch in (2, 0):
            store.write_segment(epoch, blocks[epoch * 3:epoch * 3 + 3])
        store.write_segment(1, blocks[3:6])
        store.write_segment(1, blocks[4:6])  # a rewrite replaces
        assert [(s.epoch, s.first_block) for s in store.segments] == \
            [(0, 1), (1, 5), (2, 7)]
        assert store.segment_for_block(4) is None
        assert store.segment_for_block(5).epoch == 1
        reopened = SegmentStore(store.root)
        assert reopened.segments == store.segments

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
        store, _ = filled_store(tmp_path)
        # Swap epoch 0's file for epoch 1's: a well-formed segment with
        # the right block count, but its index fingerprint gives it
        # away.
        infos = store.segments
        shutil.copyfile(os.path.join(store.root, infos[1].filename),
                        os.path.join(store.root, infos[0].filename))
        with pytest.raises(SegmentIntegrityError,
                           match="fingerprint mismatch"):
            store.load_segment(0)

    def test_unknown_epoch(self, tmp_path):
        store, _ = filled_store(tmp_path)
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(99)


def segment_bytes(store, epoch):
    info = store.segments[epoch]
    path = os.path.join(store.root, info.filename)
    with open(path, "rb") as handle:
        return info, path, bytearray(handle.read())


def index_entries(payload):
    """The unpacked index entries of a segment file's bytes."""
    _, _, count = _HEADER.unpack_from(payload)
    return list(_ENTRY.iter_unpack(
        payload[_HEADER.size:_HEADER.size + _ENTRY.size * count]))


def replace_frame(store, epoch, position, frame, record=True):
    """Rewrite segment ``epoch`` with frame ``position`` replaced and
    the index re-tiled around it.  With ``record``, a manifest line
    re-records the new index's fingerprint, so only the frame itself is
    wrong.  Returns the store reopened."""
    info, path, payload = segment_bytes(store, epoch)
    entries = index_entries(payload)
    frames = [bytes(payload[offset:offset + length])
              for *_, offset, length in entries]
    frames[position] = frame
    index = bytearray()
    offset = _HEADER.size + _ENTRY.size * len(frames)
    for (number, raw_hash, tx_count, _, _), body in zip(entries, frames):
        index += _ENTRY.pack(number, raw_hash, tx_count, offset, len(body))
        offset += len(body)
    with open(path, "wb") as handle:
        handle.write(payload[:_HEADER.size] + index + b"".join(frames))
    if record:
        retiled = replace(info,
                          fingerprint=hashlib.sha256(index).hexdigest())
        with open(os.path.join(store.root, MANIFEST_NAME), "a") as handle:
            handle.write(json.dumps(asdict(retiled)) + "\n")
    return SegmentStore(store.root)


def assert_fails_closed(store, epoch, number, match):
    """Both a cold single-block read and the whole-epoch load refuse."""
    with pytest.raises(SegmentIntegrityError, match=match):
        SegmentReader(store).block(number)
    with pytest.raises(SegmentIntegrityError, match=match):
        store.load_segment(epoch)


class TestFormat2Integrity:
    """Format 2 checks the index before any frame, then each frame
    against its index entry; every anomaly fails closed."""

    def test_corrupt_frame_mid_segment(self, tmp_path):
        store, _ = filled_store(tmp_path)
        _, path, payload = segment_bytes(store, 1)
        _, _, _, offset, length = index_entries(payload)[1]
        payload[offset:offset + length] = b"\x00" * length
        with open(path, "wb") as handle:
            handle.write(payload)
        assert_fails_closed(store, 1, 5, "block 5 is unreadable")
        # The neighbouring frames are intact and still served.
        assert SegmentReader(store).block(4).number == 4

    def test_index_disagrees_with_manifest(self, tmp_path):
        store, _ = filled_store(tmp_path)
        info, path, payload = segment_bytes(store, 1)
        # Flip one byte of block 5's hash (after its 8-byte number).
        payload[_HEADER.size + _ENTRY.size + 8] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(payload)
        assert_fails_closed(store, 1, 4, "fingerprint mismatch")

    def test_truncated_frames_behind_intact_index(self, tmp_path):
        store, _ = filled_store(tmp_path)
        _, path, payload = segment_bytes(store, 2)
        with open(path, "wb") as handle:
            handle.write(payload[:-5])
        # Reading the last block raises, before any frame is decoded:
        # the index's frames no longer tile the file.
        assert_fails_closed(store, 2, 9, "its frames end at byte")

    def test_frame_of_another_block(self, tmp_path):
        """A well-formed frame in the wrong slot: the index and the file
        layout are consistent, but the decoded block is not the one its
        index entry names."""
        store, blocks = filled_store(tmp_path)
        store = replace_frame(store, 1, 1, encode_frames([blocks[0]])[0])
        assert_fails_closed(store, 1, 5, "does not match its index entry")

    def test_retiled_index_without_its_manifest_line(self, tmp_path):
        """The fingerprint is the digest of the whole index, offsets and
        lengths included: re-tiling a segment around a frame of another
        length, without re-recording its manifest line, gives it away
        before any frame is read."""
        store, blocks = filled_store(tmp_path)
        store = replace_frame(store, 1, 1, pickle.dumps(
            blocks[4], protocol=pickle.HIGHEST_PROTOCOL), record=False)
        assert_fails_closed(store, 1, 4, "fingerprint mismatch")

    def test_file_truncated_after_its_index_was_verified(self, tmp_path):
        """An open segment reads its frames by offset later: a file cut
        short in between fails the next frame read, not silently."""
        store, _ = filled_store(tmp_path)
        reader = SegmentReader(store)
        assert reader.block(4).number == 4
        _, path, payload = segment_bytes(store, 1)
        os.truncate(path, len(payload) - 5)
        with pytest.raises(SegmentIntegrityError, match="is truncated"):
            reader.block(6)
        assert reader.block(5).number == 5

    def test_index_overruns_file(self, tmp_path):
        store, _ = filled_store(tmp_path)
        _, path, payload = segment_bytes(store, 0)
        magic, version, _ = _HEADER.unpack_from(payload)
        _HEADER.pack_into(payload, 0, magic, version, 10**6)
        with open(path, "wb") as handle:
            handle.write(payload)
        assert_fails_closed(store, 0, 2, "overruns")


def write_manifest(root, header, *entries):
    """A manifest log by hand: a header line, then one line per entry."""
    (root / MANIFEST_NAME).write_text("".join(
        json.dumps(line) + "\n" for line in (header, *entries)))


class TestFormatRejection:
    def test_formatless_manifest_names_the_old_layout(self, tmp_path):
        """A whole-document ``manifest.json`` (formats 1 and 2, with or
        without a format marker) is rejected with a message that says
        so, never a pickle traceback."""
        root = tmp_path / "old"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({"segments": []}))
        with pytest.raises(SegmentIntegrityError,
                           match=r"manifest\.json: it was written by an "
                                 r"older repro \(format 2 or older\)"):
            SegmentStore(str(root))

    def test_future_format_rejected_clearly(self, tmp_path):
        root = tmp_path / "future"
        root.mkdir()
        write_manifest(root, {"format": SEGMENT_FORMAT + 1,
                              "schema": SCHEMA_DIGEST})
        with pytest.raises(SegmentIntegrityError,
                           match=re.escape(
                               f"format={SEGMENT_FORMAT + 1}, schema="
                               f"{SCHEMA_DIGEST!r}; this run needs "
                               f"format={SEGMENT_FORMAT}")):
            SegmentStore(str(root))

    def test_format_3_manifest_log_is_refused(self, tmp_path):
        """A format-3 store (the same manifest log, but frames that
        pickled instance dicts) is refused by its header line, with the
        remedy in the message."""
        root = tmp_path / "v3"
        root.mkdir()
        write_manifest(root, {"format": 3})
        with pytest.raises(SegmentIntegrityError,
                           match=re.escape(
                               f"format=3, schema=None; this run needs "
                               f"format={SEGMENT_FORMAT}, schema="
                               f"{SCHEMA_DIGEST!r} — delete the store "
                               f"and re-simulate")):
            SegmentStore(str(root))
        store = SegmentStore.create(str(root))
        assert store.segments == []

    def test_format_1_store_is_rejected_then_wiped(self, tmp_path):
        """A whole-epoch-pickle store (format 1) is refused by name, and
        create() answers it with a fresh store."""
        self.assert_rejected_then_wiped(tmp_path, old_format=1)

    def test_format_2_store_is_rejected_then_wiped(self, tmp_path):
        """An indexed-frame store with a whole-document manifest
        (format 2) is refused the same way."""
        self.assert_rejected_then_wiped(tmp_path, old_format=2)

    @staticmethod
    def assert_rejected_then_wiped(tmp_path, old_format):
        root = tmp_path / f"v{old_format}"
        root.mkdir()
        blocks = build_blocks(3)
        (root / "manifest.json").write_text(json.dumps({
            "format": old_format,
            "segments": [{"epoch": 0, "first_block": 1, "last_block": 3,
                          "filename": "seg-000000.pkl",
                          "fingerprint": "0" * 64, "tx_count": 3}]}))
        (root / "seg-000000.pkl").write_bytes(pickle.dumps(blocks))
        with pytest.raises(SegmentIntegrityError,
                           match=f"this repro reads format "
                                 f"{SEGMENT_FORMAT}"):
            SegmentStore(str(root))
        store = SegmentStore.create(str(root))
        assert store.segments == []
        assert sorted(os.listdir(root)) == [MANIFEST_NAME]

    def test_nonempty_dir_without_manifest_refused(self, tmp_path):
        root = tmp_path / "junk"
        root.mkdir()
        (root / "unrelated.txt").write_text("keep out")
        with pytest.raises(SegmentIntegrityError, match="no manifest"):
            SegmentStore(str(root))

    def test_garbage_manifest(self, tmp_path):
        root = tmp_path / "garbage"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json\n")
        with pytest.raises(SegmentIntegrityError,
                           match="line 1 is malformed"):
            SegmentStore(str(root))

    def test_malformed_entry_fails_closed(self, tmp_path):
        """Only a torn *last* line is a crash artefact: a bad line with
        entries after it, or an entry of the wrong shape, is not."""
        store, _ = filled_store(tmp_path)
        path = tmp_path / "segs" / MANIFEST_NAME
        header, *entries = path.read_text().splitlines(keepends=True)
        path.write_text(header + entries[0] + '{"epoch": 9, "fi\n'
                        + "".join(entries[1:]))
        with pytest.raises(SegmentIntegrityError,
                           match="line 3 is malformed"):
            SegmentStore(store.root)
        path.write_text(header + '{"epoch": 0}\n')
        with pytest.raises(SegmentIntegrityError, match="malformed"):
            SegmentStore(store.root)

    def test_anomaly_is_rejected_then_wiped_fresh(self, tmp_path):
        """Any anomaly means re-simulate from scratch: opening refuses
        the store, and create() wipes it."""
        root = tmp_path / "recover"
        root.mkdir()
        write_manifest(root, MANIFEST_HEADER, {"epoch": 0})
        (root / "seg-000000.pkl").write_bytes(b"stale garbage")
        with pytest.raises(SegmentIntegrityError, match="malformed"):
            SegmentStore(str(root))
        store = SegmentStore.create(str(root))
        assert store.segments == []
        assert not (root / "seg-000000.pkl").exists()
        blocks = build_blocks(2)
        store.write_segment(0, blocks)
        assert [b.hash for b in store.load_segment(0)] == \
            [b.hash for b in blocks]


class TestManifestLog:
    def test_each_spill_appends_one_line(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        path = tmp_path / "segs" / MANIFEST_NAME
        blocks = build_blocks(9)
        assert len(path.read_bytes().splitlines()) == 1  # the header
        for epoch in range(3):
            before = path.read_bytes()
            store.write_segment(epoch, blocks[epoch * 3:epoch * 3 + 3])
            after = path.read_bytes()
            assert after.startswith(before)
            assert after[len(before):].count(b"\n") == 1

    def test_torn_last_line_is_dropped_then_truncated(self, tmp_path):
        """A crash mid-append leaves a torn last line: the store reopens
        without it, and the next spill starts a clean line over it."""
        store, blocks = filled_store(tmp_path, epochs=3)
        path = tmp_path / "segs" / MANIFEST_NAME
        with open(path, "ab") as handle:
            handle.write(b'{"epoch": 3, "filename": "seg-0000')
        reopened = SegmentStore(store.root)
        assert [info.epoch for info in reopened.segments] == [0, 1, 2]
        more = build_blocks(12)[9:]
        reopened.write_segment(3, more)
        again = SegmentStore(store.root)
        assert [info.epoch for info in again.segments] == [0, 1, 2, 3]
        assert [b.hash for b in again.load_segment(3)] == \
            [b.hash for b in more]
        assert all(json.loads(line) for line in
                   path.read_text().splitlines())

    def test_create_wipes_an_old_manifest(self, tmp_path):
        root = tmp_path / "segs"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({"format": 2}))
        SegmentStore.create(str(root))
        assert sorted(os.listdir(root)) == [MANIFEST_NAME]


@pytest.fixture
def decodes(monkeypatch):
    """Every frame the segments module decodes, counted."""
    calls = []
    decode = segments_module.decode_frame

    def counting(frame):
        calls.append(len(frame))
        return decode(frame)

    monkeypatch.setattr(segments_module, "decode_frame", counting)
    return calls


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
        """The manifest-bisect reads through a one-segment LRU must
        yield exactly the spilled block list, for full, partial,
        cross-segment, and empty ranges."""
        store, blocks = filled_store(tmp_path, epochs=4, epoch_blocks=3)
        reader = SegmentReader(store, max_resident=1)
        ranges = [(None, None), (1, 12), (2, 11), (4, 6), (5, 8),
                  (1, 1), (12, 12), (9, 4), (20, 30)]
        for lo, hi in ranges:
            got = [b.hash for b in reader.iter_range(lo, hi)]
            want = [b.hash for b in blocks
                    if (lo is None or b.number >= lo)
                    and (hi is None or b.number <= hi)]
            assert got == want, (lo, hi)
        assert len(reader.resident_epochs) <= 1

    def test_cold_block_decodes_one_frame(self, tmp_path, decodes):
        store, _ = filled_store(tmp_path, epochs=3, epoch_blocks=5)
        reader = SegmentReader(store)
        assert reader.block(8).number == 8
        assert len(decodes) == 1

    def test_range_decodes_only_its_blocks(self, tmp_path, decodes):
        store, _ = filled_store(tmp_path, epochs=3, epoch_blocks=5)
        reader = SegmentReader(store)
        lo, hi = 7, 9  # inside segment 1 (blocks 6..10)
        assert [b.number for b in reader.iter_range(lo, hi)] == [7, 8, 9]
        assert len(decodes) == hi - lo + 1

    def test_resident_block_decodes_nothing(self, tmp_path, decodes):
        store, _ = filled_store(tmp_path, epochs=3, epoch_blocks=5)
        reader = SegmentReader(store)
        list(reader.iter_range(6, 10))
        decodes.clear()
        assert reader.block(8).number == 8
        assert [b.number for b in reader.iter_range(7, 9)] == [7, 8, 9]
        assert decodes == []

    def test_sequential_walk_opens_each_segment_once(self, tmp_path,
                                                     monkeypatch):
        store, blocks = filled_store(tmp_path, epochs=4, epoch_blocks=3)
        opened = []
        open_segment = store.open_segment
        monkeypatch.setattr(
            store, "open_segment",
            lambda epoch: opened.append(epoch) or open_segment(epoch))
        reader = SegmentReader(store, max_resident=1)
        assert [b.hash for b in reader.iter_range()] == \
            [b.hash for b in blocks]
        assert opened == [0, 1, 2, 3]

    def test_block_outside_store(self, tmp_path):
        store, _ = filled_store(tmp_path)
        reader = SegmentReader(store)
        assert reader.block(999) is None

    def test_cold_block_reads_its_index_and_one_frame(self, tmp_path,
                                                      monkeypatch):
        """Opening reads the header and the index, never the whole file;
        the block then costs its own frame's bytes."""
        store, _ = filled_store(tmp_path, epochs=3, epoch_blocks=5)
        _, _, payload = segment_bytes(store, 1)
        entries = index_entries(payload)
        reads = []
        pread = os.pread

        def counting(fd, size, offset):
            data = pread(fd, size, offset)
            reads.append(len(data))
            return data

        monkeypatch.setattr(segments_module.os, "pread", counting)
        assert SegmentReader(store).block(8).number == 8
        frame = entries[8 - 6][4]
        assert sum(reads) <= _HEADER.size + _ENTRY.size * len(entries) \
            + frame
        assert frame in reads
        assert sum(reads) < len(payload)

    def test_whole_segment_is_one_frame_read(self, tmp_path, monkeypatch):
        store, _ = filled_store(tmp_path, epochs=3, epoch_blocks=5)
        reads = []
        pread = os.pread
        monkeypatch.setattr(
            segments_module.os, "pread",
            lambda fd, size, offset: reads.append(size)
            or pread(fd, size, offset))
        assert [b.number for b in store.load_segment(1)] == \
            [6, 7, 8, 9, 10]
        assert len(reads) == 2  # header and index, then every frame

    def test_max_resident_must_be_positive(self, tmp_path):
        store, _ = filled_store(tmp_path)
        with pytest.raises(ValueError):
            SegmentReader(store, max_resident=0)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc/self/fd")
class TestDescriptors:
    """Every opened segment holds one descriptor, and every way a
    segment goes away closes it."""

    @staticmethod
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    def test_cold_reads_keep_at_most_the_resident_segments_open(
            self, tmp_path):
        store, blocks = filled_store(tmp_path, epochs=5)
        start = self.open_fds()
        reader = SegmentReader(store, max_resident=2)
        for step in range(200):
            # Epochs round-robin, so every read misses the LRU.
            number = (step % 5) * 3 + 1 + (step // 5) % 3
            assert reader.block(number).hash == blocks[number - 1].hash
        assert self.open_fds() <= start + 2
        del reader
        gc.collect()
        assert self.open_fds() == start

    def test_load_segment_leaves_nothing_open(self, tmp_path):
        store, _ = filled_store(tmp_path)
        start = self.open_fds()
        for epoch in range(4):
            store.load_segment(epoch)
        assert self.open_fds() == start

    def test_eviction_closes_the_segment(self, tmp_path):
        store, _ = filled_store(tmp_path)
        start = self.open_fds()
        reader = SegmentReader(store, max_resident=1)
        reader.block(1)
        assert self.open_fds() == start + 1
        reader.block(4)
        assert reader.resident_epochs == [1]
        assert self.open_fds() == start + 1

    def test_closed_segment_refuses_frame_reads(self, tmp_path):
        """Its descriptor number may already name another file."""
        store, _ = filled_store(tmp_path)
        start = self.open_fds()
        segment = store.open_segment(0)
        assert segment.read(1, 1)[0].number == 1
        segment.close()
        segment.close()
        assert self.open_fds() == start
        assert segment.read(1, 1)[0].number == 1  # held, not re-read
        with pytest.raises(ValueError, match="is closed"):
            segment.read(2, 2)

    def test_failed_open_leaves_nothing_open(self, tmp_path):
        store, _ = filled_store(tmp_path)
        _, path, payload = segment_bytes(store, 0)
        with open(path, "wb") as handle:
            handle.write(payload[:-5])
        start = self.open_fds()
        with pytest.raises(SegmentIntegrityError):
            store.load_segment(0)
        assert self.open_fds() == start


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
            want = [b.hash for b in plain.blocks
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

    def test_archive_node_reads_spilled_blocks(self, tmp_path):
        """The node reads through the chain's ``iter_range`` — spilled
        segments first, never only the resident tail."""
        plain, spilling = self.spilled_pair(tmp_path)
        node = ArchiveNode(spilling)
        assert spilling.blocks[0].number > 1  # blocks 1.. were evicted
        assert node.earliest_block_number() == 1
        for lo, hi in ((None, None), (-3, 4), (2, 12), (13, 99)):
            got = [b.hash for b in node.iter_blocks(lo, hi)]
            want = [b.hash for b in plain.blocks
                    if (lo is None or b.number >= lo)
                    and (hi is None or b.number <= hi)]
            assert got == want, (lo, hi)
        assert node.get_logs(TransferEvent) \
            == ArchiveNode(plain).get_logs(TransferEvent)

    def test_validation(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        with pytest.raises(ValueError):
            SpillingBlockchain(store, epoch_blocks=0)
        with pytest.raises(ValueError):
            SpillingBlockchain(store, epoch_blocks=3,
                               max_resident_epochs=0)
