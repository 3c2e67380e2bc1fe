"""CheckpointStore: a versioned record log, durable per append, loud
when stale."""

import json
import os
import stat
import subprocess
import sys

import pytest

from repro.reliability import CheckpointError, CheckpointStore
from repro.reliability.checkpoint import CHECKPOINT_VERSION

RUN = {"from_block": 1, "to_block": 10, "chunk_size": 5}


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "run.ckpt.log")


def saved(store):
    """The checkpoint on disk: its header and last record per key."""
    return store.load("key")


class TestRoundTrip:
    def test_save_load(self, store):
        store.open(RUN, "key", resume=False)
        store.append({"key": "1-5", "payload": {"rows": []}})
        header, records = saved(store)
        assert header == {"version": CHECKPOINT_VERSION, **RUN}
        assert records == {"1-5": {"key": "1-5", "payload": {"rows": []}}}
        assert CheckpointStore(store.path).open(RUN, "key", resume=True) \
            == records

    def test_missing_file_loads_none(self, store):
        assert store.load("key") is None
        assert not store.exists()

    def test_save_overwrites(self, store):
        """A later record for the same key replaces the earlier one."""
        store.open(RUN, "key", resume=False)
        store.append({"key": "1-5", "generation": 1})
        store.append({"key": "1-5", "generation": 2})
        assert saved(store)[1]["1-5"]["generation"] == 2

    def test_save_creates_parent_directories(self, tmp_path):
        nested = CheckpointStore(tmp_path / "a" / "b" / "run.log")
        nested.open(RUN, "key", resume=False)
        nested.append({"key": "1-5", "ok": True})
        assert saved(nested)[1]["1-5"]["ok"] is True


class TestAtomicity:
    def test_no_temp_file_left_behind(self, store):
        store.open(RUN, "key", resume=False)
        store.append({"key": "1-5"})
        store.append({"key": "6-10"})
        siblings = [p.name for p in store.path.parent.iterdir()]
        assert siblings == [store.path.name]

    def test_payload_not_mutated(self, store):
        header, record = dict(RUN), {"key": "1-5", "x": 1}
        store.open(header, "key", resume=False)
        store.append(record)
        assert header == RUN  # the version goes into a copy
        assert record == {"key": "1-5", "x": 1}


class TestDurability:
    def test_append_fsyncs_the_log(self, store, monkeypatch):
        """Every append is fsync'd.  The first one of a fresh run
        replaces the file, which also needs the parent directory's
        fsync (the rename is a directory entry update); later appends
        fsync only the log."""
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.open(RUN, "key", resume=False)
        store.append({"key": "1-5"})
        assert sorted(synced) == [False, True]
        synced.clear()
        store.append({"key": "6-10"})
        assert synced == [False]

    def test_checkpoint_survives_a_crash_killed_writer(self, store):
        """A process hard-killed right after ``append`` returns leaves a
        loadable checkpoint holding every appended record."""
        script = (
            "import os, sys\n"
            "from repro.reliability import CheckpointStore\n"
            "store = CheckpointStore(sys.argv[1])\n"
            "store.open({'from_block': 1, 'to_block': 10,\n"
            "            'chunk_size': 5}, 'key', resume=False)\n"
            "store.append({'key': '1-5', 'survived': True})\n"
            "store.append({'key': '6-10', 'survived': True})\n"
            "os.kill(os.getpid(), 9)\n"
        )
        process = subprocess.run(
            [sys.executable, "-c", script, str(store.path)],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path)})
        assert process.returncode == -9  # really died by SIGKILL
        records = CheckpointStore(store.path).open(RUN, "key",
                                                   resume=True)
        assert records == {"1-5": {"key": "1-5", "survived": True},
                           "6-10": {"key": "6-10", "survived": True}}

    def test_crash_mid_save_keeps_previous_generation(self, store,
                                                      monkeypatch):
        """A fresh run replaces the old checkpoint at its first append;
        a crash *before* that rename must leave the old checkpoint."""
        store.open(RUN, "key", resume=False)
        store.append({"key": "1-5", "generation": 1})

        def explode(src, dst):
            raise KeyboardInterrupt  # simulated kill at the worst time

        fresh = CheckpointStore(store.path)
        fresh.open(RUN, "key", resume=False)
        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(KeyboardInterrupt):
            fresh.append({"key": "1-5", "generation": 2})
        monkeypatch.undo()
        assert saved(store)[1]["1-5"]["generation"] == 1


class TestStaleness:
    def test_corrupt_json_fails_loudly(self, store):
        store.path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match="malformed"):
            store.open(RUN, "key", resume=True)

    def test_non_object_document_rejected(self, store):
        store.path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(CheckpointError):
            store.open(RUN, "key", resume=True)

    def test_version_mismatch_rejected(self, store):
        header = {"version": CHECKPOINT_VERSION + 1, **RUN}
        store.path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError) as excinfo:
            store.open(RUN, "key", resume=True)
        assert f"version={CHECKPOINT_VERSION + 1}" in str(excinfo.value)

    def test_missing_version_rejected(self, store):
        store.path.write_text(json.dumps(RUN) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match="version=None"):
            store.open(RUN, "key", resume=True)

    def test_whole_document_checkpoint_names_its_version(self, store):
        """A version-1 checkpoint (one JSON document, rewritten whole
        on every save) is refused by its version, not resumed."""
        document = {"version": 1, **RUN,
                    "chunks": {"1-5": {"rows": [], "flash_txs": []}}}
        store.path.write_text(json.dumps(document, sort_keys=True),
                              encoding="utf-8")
        with pytest.raises(CheckpointError, match="written for version=1,"):
            store.open(RUN, "key", resume=True)

    def test_other_run_rejected(self, store):
        store.open(RUN, "key", resume=False)
        store.append({"key": "1-5"})
        with pytest.raises(CheckpointError, match="chunk_size=5"):
            CheckpointStore(store.path).open(
                {**RUN, "chunk_size": 2}, "key", resume=True)
