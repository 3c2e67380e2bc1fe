"""Crash-and-resume: a killed run restarts into an identical dataset.

The acceptance criterion for the resilient pipeline: a chunked,
checkpointed run killed mid-range and restarted with ``resume=True``
produces a ``MevDataset`` bit-identical to an uninterrupted run over the
same range.  The "kill" is a hard, non-DataSourceError crash injected at
the archive-node boundary — the resilience layer must *not* absorb it
(a power cut is not a retryable fault), the checkpoint must survive it.
"""

import pytest

from repro import run_inspector
from repro.core import MevInspector, PriceService
from repro.engine import RunConfig
from repro.reliability import (
    CheckpointError,
    CheckpointStore,
    shield,
)

CHUNK = 50  # 460 study blocks → 10 chunks


class SimulatedCrash(RuntimeError):
    """Deliberately NOT a DataSourceError: retries must not mask it."""


class CountingProxy:
    """Counts every archive-node call, to calibrate the crash point."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


class CrashingProxy:
    """Archive node that dies after serving ``budget`` calls."""

    def __init__(self, inner, budget):
        self._inner = inner
        self._budget = budget

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def guarded(*args, **kwargs):
            if self._budget <= 0:
                raise SimulatedCrash("process killed mid-run")
            self._budget -= 1
            return attr(*args, **kwargs)
        return guarded


def make_inspector(sim_result, node=None):
    shielded, observer, api = shield(
        node if node is not None else sim_result.node,
        sim_result.observer, sim_result.flashbots_api)
    return MevInspector(shielded, PriceService(sim_result.oracle),
                        api, observer)


class TestChunking:
    def test_chunked_run_equals_one_shot_run(self, sim_result, baseline):
        dataset = run_inspector(sim_result,
                                config=RunConfig(chunk_size=CHUNK))
        assert dataset.records_equal(baseline)
        assert dataset.quality.chunks_total == 10
        assert dataset.quality.chunks_completed == 10

    def test_checkpointed_run_equals_plain_run(self, sim_result,
                                               baseline, tmp_path):
        store = CheckpointStore(tmp_path / "full.log")
        dataset = run_inspector(sim_result, config=RunConfig(
            chunk_size=CHUNK, checkpoint=store))
        assert dataset.records_equal(baseline)
        assert len(store.load("key")[1]) == 10


class TestCrashResume:
    def test_killed_run_resumes_into_identical_dataset(
            self, sim_result, baseline, tmp_path):
        # Calibrate: how many archive calls does a full run make?
        counter = CountingProxy(sim_result.node)
        make_inspector(sim_result, counter).run(
            config=RunConfig(chunk_size=CHUNK))
        assert counter.calls > 0

        # Kill the run halfway through its archive traffic.
        store = CheckpointStore(tmp_path / "crash.log")
        crasher = CrashingProxy(sim_result.node, counter.calls // 2)
        with pytest.raises(SimulatedCrash):
            make_inspector(sim_result, crasher).run(config=RunConfig(
                chunk_size=CHUNK, checkpoint=store))

        # The checkpoint survived the crash with a strict subset done.
        saved = store.load("key")
        assert saved is not None
        completed = len(saved[1])
        assert 0 < completed < 10

        # Restart against the healthy node: identical records, and the
        # finished chunks came from the checkpoint, not recomputation.
        resumed = make_inspector(sim_result).run(config=RunConfig(
            chunk_size=CHUNK, checkpoint=store, resume=True))
        assert resumed.records_equal(baseline)
        assert resumed.quality.resumed
        assert resumed.quality.chunks_resumed == completed
        assert resumed.quality.chunks_completed == 10

    def test_resume_of_a_finished_run_recomputes_nothing(
            self, sim_result, baseline, tmp_path):
        store = CheckpointStore(tmp_path / "done.log")
        run_inspector(sim_result, config=RunConfig(
            chunk_size=CHUNK, checkpoint=store))

        counter = CountingProxy(sim_result.node)
        dataset = make_inspector(sim_result, counter).run(config=RunConfig(
            chunk_size=CHUNK, checkpoint=store, resume=True))
        assert dataset.records_equal(baseline)
        assert dataset.quality.chunks_resumed == 10
        # Only the range resolution touches the archive; no chunk does.
        assert counter.calls <= 2

    def test_mismatched_fingerprint_refuses_to_resume(
            self, sim_result, tmp_path):
        """A checkpoint written for one (range, chunk_size) must never
        silently seed a different run."""
        store = CheckpointStore(tmp_path / "mismatch.log")
        run_inspector(sim_result, config=RunConfig(
            chunk_size=CHUNK, checkpoint=store))
        with pytest.raises(CheckpointError):
            run_inspector(sim_result, config=RunConfig(
                chunk_size=CHUNK // 2, checkpoint=store, resume=True))

    def test_without_resume_flag_checkpoint_is_ignored(
            self, sim_result, baseline, tmp_path):
        store = CheckpointStore(tmp_path / "cold.log")
        run_inspector(sim_result, config=RunConfig(
            chunk_size=CHUNK, checkpoint=store))
        # A fresh run (no --resume) recomputes and overwrites cleanly.
        dataset = run_inspector(sim_result, config=RunConfig(
            chunk_size=CHUNK, checkpoint=store))
        assert dataset.records_equal(baseline)
        assert not dataset.quality.resumed
