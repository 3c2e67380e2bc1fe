"""The engine's core invariant: every executor, same bits.

For a fixed world, fault plan, and chunk plan, serial / parallel /
cached execution must produce byte-identical datasets and identical
``DataQualityReport`` ledgers — ``--workers 4`` buys wall-clock time,
never different numbers.
"""

import pytest

from repro import RunConfig, run_inspector
from repro.engine import (
    CachedExecutor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine import executors as executors_module
from repro.faults import FaultPlan


@pytest.fixture
def many_cpus(monkeypatch):
    """Pretend the host has CPUs to spare, so ``make_executor`` builds
    real process pools — the identity tests must exercise genuine
    parallelism even on a small CI box."""
    monkeypatch.setattr(executors_module, "_available_cpus", lambda: 8)


class TestParallelIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial_bit_for_bit(self, sim_result,
                                                 serial_baseline,
                                                 workers, many_cpus):
        dataset = run_inspector(sim_result, config=RunConfig(
            chunk_size=25, workers=workers))
        assert dataset.fingerprint() == serial_baseline.fingerprint()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identity_holds_under_faults(self, sim_result, span,
                                         workers, many_cpus):
        plan = FaultPlan.from_profile("transient", 3, *span)
        serial = run_inspector(sim_result, fault_plan=plan,
                               config=RunConfig(chunk_size=25))
        dataset = run_inspector(sim_result, fault_plan=plan,
                                config=RunConfig(chunk_size=25,
                                                 workers=workers))
        assert dataset.fingerprint() == serial.fingerprint()
        assert dataset.quality.source("archive").retries > 0

    def test_identity_holds_with_failed_ranges(self, sim_result, span,
                                               many_cpus):
        plan = FaultPlan.from_profile("outage", 2, *span)
        serial = run_inspector(sim_result, fault_plan=plan,
                               config=RunConfig(chunk_size=10))
        parallel = run_inspector(sim_result, fault_plan=plan,
                                 config=RunConfig(chunk_size=10,
                                                  workers=4))
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.quality.failed_ranges == \
            serial.quality.failed_ranges

    def test_worker_crash_propagates(self, sim_result):
        class Boom:
            def run_chunk(self, chunk):
                raise RuntimeError("worker crashed")

        executor = ParallelExecutor(workers=2)
        with pytest.raises(RuntimeError, match="worker crashed"):
            list(executor.execute(Boom(), [(1, 10), (11, 20)]))


class TestExecutorFactory:
    def test_serial_by_default(self):
        assert isinstance(make_executor(), SerialExecutor)

    def test_parallel_for_many_workers(self, many_cpus):
        executor = make_executor(workers=4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 4

    def test_workers_capped_to_cpu_count(self, monkeypatch):
        """Oversubscription buys only fork overhead (results are
        bit-identical either way), so the factory caps to the host."""
        monkeypatch.setattr(executors_module, "_available_cpus",
                            lambda: 2)
        executor = make_executor(workers=16)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 2

    def test_single_cpu_host_runs_serial(self, monkeypatch):
        monkeypatch.setattr(executors_module, "_available_cpus",
                            lambda: 1)
        assert isinstance(make_executor(workers=4), SerialExecutor)

    def test_cache_wraps_inner_executor(self, tmp_path, many_cpus):
        executor = make_executor(workers=4, cache_dir=tmp_path,
                                 digest="abc123")
        assert isinstance(executor, CachedExecutor)
        assert isinstance(executor.inner, ParallelExecutor)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(workers=0)
