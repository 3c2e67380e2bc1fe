"""CheckpointStore: atomic replace, durability, loud staleness."""

import json
import os
import stat
import subprocess
import sys

import pytest

from repro.reliability import CheckpointError, CheckpointStore
from repro.reliability.checkpoint import CHECKPOINT_VERSION


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "run.ckpt.json")


class TestRoundTrip:
    def test_save_load(self, store):
        store.save({"from_block": 1, "chunks": {"1-5": {"rows": []}}})
        document = store.load()
        assert document["from_block"] == 1
        assert document["chunks"] == {"1-5": {"rows": []}}
        assert document["version"] == CHECKPOINT_VERSION

    def test_missing_file_loads_none(self, store):
        assert store.load() is None
        assert not store.exists()

    def test_save_overwrites(self, store):
        store.save({"generation": 1})
        store.save({"generation": 2})
        assert store.load()["generation"] == 2

    def test_save_creates_parent_directories(self, tmp_path):
        nested = CheckpointStore(tmp_path / "a" / "b" / "run.json")
        nested.save({"ok": True})
        assert nested.load()["ok"] is True


class TestAtomicity:
    def test_no_temp_file_left_behind(self, store):
        store.save({"x": 1})
        siblings = [p.name for p in store.path.parent.iterdir()]
        assert siblings == [store.path.name]

    def test_payload_not_mutated(self, store):
        payload = {"x": 1}
        store.save(payload)
        assert payload == {"x": 1}  # version header goes into a copy


class TestDurability:
    def test_save_fsyncs_file_and_parent_directory(self, store,
                                                   monkeypatch):
        """Rename durability needs *two* fsyncs: the temp file's bytes
        and the parent directory's entry table (the rename itself)."""
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.save({"x": 1})
        assert True in synced   # the directory entry table
        assert False in synced  # the temp file's bytes

    def test_checkpoint_survives_a_crash_killed_writer(self, store):
        """A process hard-killed right after ``save`` returns leaves a
        loadable checkpoint — no torn file, no missing rename."""
        script = (
            "import os, sys\n"
            "from repro.reliability import CheckpointStore\n"
            "CheckpointStore(sys.argv[1]).save({'survived': True})\n"
            "os.kill(os.getpid(), 9)\n"
        )
        process = subprocess.run(
            [sys.executable, "-c", script, str(store.path)],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path)})
        assert process.returncode == -9  # really died by SIGKILL
        assert store.load() == {"survived": True,
                                "version": CHECKPOINT_VERSION}

    def test_crash_mid_save_keeps_previous_generation(self, store,
                                                      monkeypatch):
        """A crash *before* the rename must leave the old document."""
        store.save({"generation": 1})

        def explode(src, dst):
            raise KeyboardInterrupt  # simulated kill at the worst time

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(KeyboardInterrupt):
            store.save({"generation": 2})
        monkeypatch.undo()
        assert store.load()["generation"] == 1


class TestStaleness:
    def test_corrupt_json_fails_loudly(self, store):
        store.path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            store.load()

    def test_non_object_document_rejected(self, store):
        store.path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(CheckpointError):
            store.load()

    def test_version_mismatch_rejected(self, store):
        document = {"version": CHECKPOINT_VERSION + 1, "chunks": {}}
        store.path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CheckpointError) as excinfo:
            store.load()
        assert "version" in str(excinfo.value)

    def test_missing_version_rejected(self, store):
        store.path.write_text(json.dumps({"chunks": {}}),
                              encoding="utf-8")
        with pytest.raises(CheckpointError):
            store.load()
