"""Durability tests for the segment store's crash-safe write protocol.

Segment files are written by :func:`repro.durable.write_atomic` — temp
file, flush+fsync, atomic rename, directory fsync — and only then is
the segment's line appended to the manifest log, so with a
:class:`~repro.sim.overlap.BackgroundWriter` attached the manifest only
ever names segments that are already durable.  These tests pin the
consequences: two fsyncs per file write, a crash mid-write leaving the
manifest without the torn segment, in-flight epochs served from
memory, and a SIGKILLed writer leaving a manifest whose every entry
loads cleanly.
"""

import os
import stat
import subprocess
import sys
import threading

import pytest

from repro.chain.segments import (
    MANIFEST_NAME,
    SegmentIntegrityError,
    SegmentStore,
)
from repro.sim.overlap import BackgroundWriter

from tests.chain.test_segments import build_blocks


class TestDurableWrite:
    def test_segment_write_fsyncs_file_and_directory(self, tmp_path,
                                                     monkeypatch):
        """Rename durability needs *two* fsyncs: the temp file's bytes
        and the parent directory's entry table (the rename itself)."""
        store = SegmentStore.create(str(tmp_path / "segs"))
        blocks = build_blocks(3)
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.write_segment(0, blocks)
        assert True in synced   # the directory entry table
        assert False in synced  # the temp file's bytes

    def test_no_temp_files_left_behind(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        store.write_segment(0, build_blocks(3))
        store.write_sidecar("seal-000000.pkl", {"epoch": 0})
        leftovers = [name for name in os.listdir(store.root)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_crash_mid_write_keeps_previous_generation(self, tmp_path,
                                                       monkeypatch):
        """A crash *before* the segment file's rename appends nothing to
        the manifest, so it never names the torn segment."""
        root = str(tmp_path / "segs")
        store = SegmentStore.create(root)
        blocks = build_blocks(6)
        store.write_segment(0, blocks[:3])

        def explode(src, dst):
            raise KeyboardInterrupt  # simulated kill at the worst time

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(KeyboardInterrupt):
            store.write_segment(1, blocks[3:])
        monkeypatch.undo()
        reopened = SegmentStore(root)
        assert [info.epoch for info in reopened.segments] == [0]
        assert [b.hash for b in reopened.load_segment(0)] == \
            [b.hash for b in blocks[:3]]


class TestInFlightReads:
    def test_queued_epoch_served_from_memory(self, tmp_path):
        """While a segment write waits behind the background writer the
        epoch has no durable file yet; reads come from memory and the
        bytes land (with the manifest) once the worker drains."""
        store = SegmentStore.create(str(tmp_path / "segs"))
        blocks = build_blocks(3)
        release = threading.Event()
        with BackgroundWriter() as writer:
            store.attach_writer(writer)
            writer.submit("stall", lambda: release.wait(10))
            store.write_segment(0, blocks)
            assert store.in_flight_epochs == [0]
            served = store.load_segment(0)
            assert [b.hash for b in served] == [b.hash for b in blocks]
            assert not os.path.exists(
                os.path.join(store.root, "seg-000000.pkl"))
            release.set()
            store.flush()
        assert store.in_flight_epochs == []
        durable = store.load_segment(0)
        assert [b.hash for b in durable] == [b.hash for b in blocks]


class TestSidecars:
    def test_roundtrip_sync_and_overlapped(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        store.write_sidecar("seal-000000.pkl", {"epoch": 0})
        with BackgroundWriter() as writer:
            store.attach_writer(writer)
            store.write_sidecar("seal-000001.pkl", {"epoch": 1})
            store.flush()
        assert store.load_sidecar("seal-000000.pkl") == {"epoch": 0}
        assert store.load_sidecar("seal-000001.pkl") == {"epoch": 1}

    def test_missing_sidecar_raises(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        with pytest.raises(SegmentIntegrityError, match="unreadable"):
            store.load_sidecar("seal-999999.pkl")

    def test_corrupt_sidecar_raises(self, tmp_path):
        store = SegmentStore.create(str(tmp_path / "segs"))
        path = store.write_sidecar("seal-000000.pkl", {"epoch": 0})
        with open(path, "wb") as handle:
            handle.write(b"\x80\x05 torn")
        with pytest.raises(SegmentIntegrityError, match="unreadable"):
            store.load_sidecar("seal-000000.pkl")


class TestCrashSafety:
    def test_sigkilled_writer_leaves_a_loadable_manifest(self, tmp_path):
        """A process hard-killed with segment writes still queued behind
        the background writer loses only that queued tail: the manifest
        on disk references exactly the segments that were durable, and
        every one of them loads cleanly — never a partial file."""
        root = str(tmp_path / "segs")
        script = (
            "import os, sys, threading\n"
            "from repro.chain.segments import SegmentStore\n"
            "from repro.chain.state import WorldState\n"
            "from repro.chain.block import BlockBuilder\n"
            "from repro.chain.types import address_from_label, ether\n"
            "from repro.sim.overlap import BackgroundWriter\n"
            "a = address_from_label('alice')\n"
            "state = WorldState()\n"
            "state.credit_eth(a, ether(1000))\n"
            "blocks = []\n"
            "for n in range(1, 13):\n"
            "    bld = BlockBuilder(state, number=n, timestamp=13 * n,\n"
            "                       coinbase=a, base_fee=0)\n"
            "    blocks.append(bld.finalize())\n"
            "store = SegmentStore.create(sys.argv[1])\n"
            "writer = BackgroundWriter()\n"
            "store.attach_writer(writer)\n"
            "store.write_segment(0, blocks[0:3])\n"
            "store.write_segment(1, blocks[3:6])\n"
            "store.flush()\n"  # epochs 0 and 1 durable
            "writer.submit('stall', lambda: threading.Event().wait(30))\n"
            "store.write_segment(2, blocks[6:9])\n"   # queued forever
            "store.write_segment(3, blocks[9:12])\n"  # queued forever
            "os.kill(os.getpid(), 9)\n"
        )
        process = subprocess.run(
            [sys.executable, "-c", script, root],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert process.returncode == -9  # really died by SIGKILL

        # The store reopens without raising: the manifest is intact — its header and one line per
        # durable epoch — and references only epochs that were durable
        # before the kill.
        with open(os.path.join(root, MANIFEST_NAME), "rb") as handle:
            assert handle.read().count(b"\n") == 3
        store = SegmentStore(root)
        durable = [info.epoch for info in store.segments]
        assert durable == [0, 1]
        for epoch in durable:
            loaded = store.load_segment(epoch)  # verifies fingerprint
            assert len(loaded) == 3
        # The queued tail never made it into the manifest, and whatever
        # it left on disk (nothing, or a temp file) is invisible to a
        # reader and wiped by the next create().
        for name in os.listdir(root):
            assert not name.startswith("seg-0000t")
