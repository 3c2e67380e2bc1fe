"""The engine's core invariant: every worker count, same bits.

For a fixed world, fault plan, and chunk plan, in-process and
process-pool execution must produce byte-identical datasets and
identical ``DataQualityReport`` ledgers — ``--workers 4`` buys
wall-clock time, never different numbers.
"""

import pytest

from repro import RunConfig, run_inspector
from repro.core.pipeline import MevInspector
from repro.core.profit import PriceService
from repro.engine import ParallelExecutor
from repro.engine import executors as executors_module
from repro.faults import FaultPlan
from repro.reliability import ArchiveSource, CircuitBreaker, \
    ResilientCaller


@pytest.fixture
def many_cpus(monkeypatch):
    """Pretend the host has CPUs to spare, so ``ParallelExecutor`` runs
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_breaker_trips_reach_the_quality_ledger(self, sim_result,
                                                    span, workers,
                                                    many_cpus):
        """A one-failure breaker trips once in each chunk a transient
        fault fails; each trip travels back in its chunk's ledger."""
        plan = FaultPlan.from_profile("transient", 1, *span)
        node = ArchiveSource(sim_result.node, plan, ResilientCaller(
            "archive", breaker=CircuitBreaker("archive",
                                              failure_threshold=1)))
        dataset = MevInspector(node, PriceService(sim_result.oracle)).run(
            config=RunConfig(chunk_size=10, workers=workers))
        quality = dataset.quality
        assert quality.failed_ranges
        assert quality.source("archive").breaker_trips == \
            len(quality.failed_ranges)

    def test_worker_crash_propagates(self, sim_result, many_cpus):
        class Boom:
            def run_chunk(self, chunk):
                raise RuntimeError("worker crashed")

        executor = ParallelExecutor(workers=2)
        with pytest.raises(RuntimeError, match="worker crashed"):
            list(executor.execute(Boom(), [(1, 10), (11, 20)]))


class Recorder:
    """A runner whose calls are visible only when it runs in-process
    (a forked worker appends to its own copy)."""

    def __init__(self):
        self.seen = []

    def run_chunk(self, chunk):
        self.seen.append(chunk)
        return chunk


CHUNKS = [(1, 10), (11, 20), (21, 30)]


class TestExecutorFactory:
    """The worker count ``ParallelExecutor`` actually runs, and where."""

    def test_serial_by_default(self):
        runner = Recorder()
        executor = ParallelExecutor(workers=1)
        assert list(executor.execute(runner, CHUNKS)) == CHUNKS
        assert runner.seen == CHUNKS

    def test_parallel_for_many_workers(self, many_cpus):
        runner = Recorder()
        executor = ParallelExecutor(workers=4)
        assert executor.workers == 4
        assert sorted(executor.execute(runner, CHUNKS)) == CHUNKS
        assert runner.seen == []

    def test_workers_capped_to_cpu_count(self, monkeypatch):
        """Oversubscription buys only fork overhead (results are
        bit-identical either way), so the executor caps to the host."""
        monkeypatch.setattr(executors_module, "_available_cpus",
                            lambda: 2)
        assert ParallelExecutor(workers=16).workers == 2

    def test_single_cpu_host_runs_serial(self, monkeypatch):
        monkeypatch.setattr(executors_module, "_available_cpus",
                            lambda: 1)
        runner = Recorder()
        executor = ParallelExecutor(workers=4)
        assert list(executor.execute(runner, CHUNKS)) == CHUNKS
        assert runner.seen == CHUNKS

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(workers=0)
