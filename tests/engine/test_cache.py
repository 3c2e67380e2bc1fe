"""``CachedExecutor``: replay exactly, and only, what still applies."""

import json

import pytest

from repro import RunConfig, run_inspector
from repro.engine import CachedExecutor, ChunkResult, SerialExecutor

from tests.engine.conftest import fingerprint


class CountingRunner:
    """Runner that counts executions and returns a canned payload."""

    def __init__(self):
        self.calls = 0

    def run_chunk(self, chunk):
        self.calls += 1
        return ChunkResult(chunk=chunk,
                           payload={"rows": [], "flash_txs": []})


class FailingRunner:
    def run_chunk(self, chunk):
        return ChunkResult(chunk=chunk, payload=None)


class TestArtifactStore:
    def test_second_pass_hits_every_chunk(self, tmp_path):
        chunks = [(1, 10), (11, 20)]
        runner = CountingRunner()
        for _ in range(2):
            executor = CachedExecutor(SerialExecutor(), tmp_path, "d1")
            results = list(executor.execute(runner, chunks))
        assert runner.calls == 2  # first pass only
        assert executor.hits == 2 and executor.misses == 0
        assert all(r.cached for r in results)

    def test_digest_mismatch_recomputes(self, tmp_path):
        chunks = [(1, 10)]
        runner = CountingRunner()
        list(CachedExecutor(SerialExecutor(), tmp_path, "d1")
             .execute(runner, chunks))
        list(CachedExecutor(SerialExecutor(), tmp_path, "d2")
             .execute(runner, chunks))
        assert runner.calls == 2

    def test_failed_chunks_are_never_cached(self, tmp_path):
        executor = CachedExecutor(SerialExecutor(), tmp_path, "d1")
        results = list(executor.execute(FailingRunner(), [(1, 10)]))
        assert results[0].failed
        assert not list(tmp_path.rglob("*.json"))
        again = CachedExecutor(SerialExecutor(), tmp_path, "d1")
        assert again._load((1, 10)) is None

    def test_corrupt_entry_is_a_counted_miss(self, tmp_path):
        runner = CountingRunner()
        executor = CachedExecutor(SerialExecutor(), tmp_path, "d1")
        list(executor.execute(runner, [(1, 10)]))
        path = tmp_path / "d1" / "1-10.json"
        path.write_text("{not json", encoding="utf-8")
        again = CachedExecutor(SerialExecutor(), tmp_path, "d1")
        list(again.execute(runner, [(1, 10)]))
        assert again.invalid_entries == 1
        assert runner.calls == 2

    def test_stale_cache_version_is_a_miss(self, tmp_path):
        runner = CountingRunner()
        executor = CachedExecutor(SerialExecutor(), tmp_path, "d1")
        list(executor.execute(runner, [(1, 10)]))
        path = tmp_path / "d1" / "1-10.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["cache_version"] = -1
        path.write_text(json.dumps(document), encoding="utf-8")
        again = CachedExecutor(SerialExecutor(), tmp_path, "d1")
        list(again.execute(runner, [(1, 10)]))
        assert again.invalid_entries == 1


class TestPipelineCaching:
    def test_cached_replay_is_bit_identical(self, sim_result, tmp_path,
                                            serial_baseline):
        config = RunConfig(chunk_size=25, cache_dir=tmp_path,
                           cache_key="engine-suite")
        first = run_inspector(sim_result, config=config)
        second = run_inspector(sim_result, config=config)
        assert fingerprint(first) == fingerprint(serial_baseline)
        assert fingerprint(second) == fingerprint(serial_baseline)

    def test_cache_composes_with_parallel(self, sim_result, tmp_path,
                                          serial_baseline):
        config = RunConfig(chunk_size=25, workers=4, cache_dir=tmp_path,
                           cache_key="engine-suite")
        first = run_inspector(sim_result, config=config)
        second = run_inspector(sim_result, config=config)
        assert fingerprint(first) == fingerprint(serial_baseline)
        assert fingerprint(second) == fingerprint(serial_baseline)

    def test_fault_profile_partitions_the_cache(self, sim_result, span,
                                                tmp_path):
        from repro.faults import FaultPlan
        plan = FaultPlan.from_profile("transient", 3, *span)
        clean_cfg = RunConfig(chunk_size=25, cache_dir=tmp_path,
                              cache_key="engine-suite")
        fault_cfg = RunConfig(chunk_size=25, cache_dir=tmp_path,
                              cache_key="engine-suite",
                              fault_profile="transient", fault_seed=3)
        clean = run_inspector(sim_result, config=clean_cfg)
        faulted = run_inspector(sim_result, fault_plan=plan,
                                config=fault_cfg)
        # Different digests → the faulted run must not replay clean
        # artifacts: its retry counters prove it actually re-fetched.
        assert faulted.quality.source("archive").retries > 0
        assert clean.quality.source("archive").retries == 0

    def test_faulted_artifacts_never_replay_into_a_clean_run(
            self, sim_result, span, tmp_path, serial_baseline):
        """The digest keys the plan armed on the archive source, so a
        run handed a plan explicitly (the config still says "none")
        cannot leave artifacts a fault-free run would replay."""
        from repro.faults import FaultPlan
        plan = FaultPlan.from_profile("chaos", 1, *span)
        config = RunConfig(chunk_size=25, cache_dir=tmp_path,
                           cache_key="w")
        faulted = run_inspector(sim_result, fault_plan=plan,
                                config=config)
        assert faulted.quality.source("archive").retries > 0
        clean = run_inspector(sim_result, config=config)
        assert fingerprint(clean) == fingerprint(serial_baseline)
