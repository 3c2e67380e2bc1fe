"""The chunk executor: chunks fanned out over worker processes.

:class:`ParallelExecutor` consumes the chunk list ``plan_chunks``
produced and yields one :class:`ChunkResult` per chunk.  With more
than one effective worker it fans the chunks out over a
``ProcessPoolExecutor``: the runner is shipped to each worker once
(fork-inherited where the platform allows) and only ``(lo, hi)``
tuples travel per task, and results arrive in completion order.  At
one effective worker, or for a single chunk, it runs them in order in
this process — the serial reference every parallel run must equal.
The pipeline merges results back in *chunk* order, so every worker
count produces a bit-identical dataset and quality ledger —
``--workers 4`` is an optimization, never a semantic change.

Determinism note: chunk execution is *chunk-isolated* — each chunk runs
against fresh retry/breaker state (see ``ChunkRunner``), so a chunk's
result is a pure function of ``(world, faults, chunk)`` and execution
order cannot leak between chunks.  That is the property that makes the
in-process and process-pool paths interchangeable.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Protocol, \
    Tuple

from repro.reliability.sources import SourceStats

BlockRange = Tuple[int, int]


@dataclass
class ChunkResult:
    """One chunk's detection outcome.

    ``payload`` is the chunk's
    :class:`~repro.core.datasets.ChunkPayload`; ``None`` means the
    chunk failed permanently (archive unusable even through the
    resilience layer) and must be recorded as a failed range.  ``stats`` is the archive source's resilience
    ledger for the chunk's own reads.
    """

    chunk: BlockRange
    payload: Optional[Any]
    stats: SourceStats = field(default_factory=SourceStats)

    @property
    def failed(self) -> bool:
        return self.payload is None


class SupportsRunChunk(Protocol):
    """The unit of work the executor schedules (see ``ChunkRunner``)."""

    def run_chunk(self, chunk: BlockRange) -> ChunkResult: ...


# -- process-pool plumbing -------------------------------------------------
#
# The runner reaches workers through the pool initializer: shipped once
# per worker process instead of once per task, which matters because it
# carries the (possibly fault-wrapped) archive node.

_WORKER_RUNNER: Optional[SupportsRunChunk] = None


def _init_worker(runner: SupportsRunChunk) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner


def _run_chunk_in_worker(chunk: BlockRange) -> ChunkResult:
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    return _WORKER_RUNNER.run_chunk(chunk)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork``: the runner is inherited instead of re-pickled,
    and children share the parent's hash seed, so CI's
    ``PYTHONHASHSEED=random`` cannot skew per-process set hashing."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _available_cpus() -> int:
    """CPUs the host can actually run worker processes on."""
    return os.cpu_count() or 1


def effective_workers(requested: int) -> int:
    """The worker count a request actually gets on this host.

    The cap :class:`ParallelExecutor` applies — clamped to
    ``[1, cpu_count]`` — exposed so callers (the bench harness, the
    epoch shard runner) can report ``workers_requested`` alongside
    ``workers_effective`` honestly instead of implying parallelism a
    1-CPU box never delivered.
    """
    return max(1, min(requested, _available_cpus()))


class ParallelExecutor:
    """Chunks fanned out across worker processes.

    ``workers`` is capped to the host's CPU count (see
    :func:`effective_workers`): every worker count is bit-identical,
    so oversubscribing a small machine buys nothing but fork/IPC
    overhead — ``--workers 4`` on a 1-CPU box runs in-process.

    Results are yielded in *completion* order; callers that need chunk
    order (the pipeline's merge does) must reorder — which is cheap,
    and keeps checkpoints flowing as chunks finish rather than at the
    end.  A worker exception that is not a recorded chunk failure (a
    crash, not a data-source fault) propagates to the caller, but only
    after every successful sibling chunk has been yielded — so a crash
    mid-fan-out still checkpoints all the work that finished, exactly
    as an in-process crash preserves the chunks before it.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = effective_workers(workers)

    def execute(self, runner: SupportsRunChunk,
                chunks: Iterable[BlockRange]) -> Iterator[ChunkResult]:
        pending: List[BlockRange] = list(chunks)
        if self.workers == 1 or len(pending) <= 1:
            for chunk in pending:
                yield runner.run_chunk(chunk)
            return
        max_workers = min(self.workers, len(pending))
        with _PoolExecutor(max_workers=max_workers,
                           mp_context=_pool_context(),
                           initializer=_init_worker,
                           initargs=(runner,)) as pool:
            futures = [pool.submit(_run_chunk_in_worker, chunk)
                       for chunk in pending]
            crash: Optional[BaseException] = None
            for future in as_completed(futures):
                try:
                    yield future.result()
                except Exception as error:
                    # A worker crash (not a recorded chunk failure);
                    # keep draining so finished chunks still reach the
                    # caller's checkpoint, then re-raise the crash.
                    if crash is None:
                        crash = error
            if crash is not None:
                raise crash
