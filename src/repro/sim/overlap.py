"""Overlapped spill/seal I/O and the scale-flat runtime regime.

Long sharded runs spend their per-epoch budget in two places that have
nothing to do with simulating blocks: durably writing the completed
epoch's artifacts (segment pickle, manifest line, seal snapshot) and
cyclic garbage collection over an ever-larger heap.  This module removes both
from the simulation thread:

* :class:`BackgroundWriter` — a single worker thread fed through a
  bounded queue (double buffering: at most ``max_pending`` completed
  epochs may be in flight).  The simulation thread hands over fully
  materialized, immutable payloads and returns immediately;
  backpressure on the queue bounds memory at O(epoch).  The first
  failure in the worker is captured and re-raised on the next
  ``submit``/``flush``/``close`` so errors are never silently dropped.

* :class:`FlatGC` — the measured GC regime for multi-million-block
  runs: freeze the long-lived heap out of every generational scan at
  each epoch boundary and raise the gen-0 threshold so collection work
  tracks the epoch's allocation rate, not total progress.  Reference
  counting still frees the (acyclic) evicted blocks immediately, so
  residency stays O(epoch).  Pure runtime tuning — it performs no
  draws and touches no simulated state, so simulated output is
  byte-identical with the regime on or off.

Crash safety is owned by the callers' write protocols
(:func:`repro.durable.write_atomic` for whole files, and the segment's
manifest line appended only after its segment is durable — see
:mod:`repro.chain.segments`); this module only supplies the ordered,
observable execution lane those protocols run in.
"""

from __future__ import annotations

import gc
import queue
import threading
from typing import Callable, Optional, Tuple

__all__ = ["BackgroundWriter", "FlatGC", "DEFAULT_MAX_PENDING",
           "FLAT_GC_GEN0"]

#: Double buffering: the simulation thread may run at most this many
#: completed epochs ahead of the writer before ``submit`` blocks.
DEFAULT_MAX_PENDING = 2

#: Gen-0 threshold for long runs.  The default (700) makes collection
#: frequency proportional to *total* allocation churn; at millions of
#: blocks that is pure overhead on a heap whose long-lived objects are
#: already frozen.  2M keeps young-generation scans rare while an
#: epoch's worth of garbage still fits comfortably in memory (measured:
#: no RSS difference against the default threshold at 100k blocks).
FLAT_GC_GEN0 = 2_000_000

# Worker-thread lifecycle state lives on instances, not module globals;
# the only shared mutable state is each writer's queue (R103: the
# bounded queue *is* the synchronization).


class BackgroundWriter:
    """Ordered background execution lane for epoch-boundary I/O.

    Jobs are plain callables, executed strictly in submission order by
    one daemon worker thread.  ``submit`` blocks once ``max_pending``
    jobs are queued (backpressure keeps the simulation at most
    ``max_pending`` epochs ahead of the disk).  ``flush`` waits until
    every submitted job has finished; ``close`` flushes and stops the
    worker.  Both are idempotent.

    The first exception raised by a job is captured, the writer refuses
    further work, and the exception is re-raised (with its original
    traceback) from the next ``submit``/``flush``/``close`` call on the
    simulation thread — a failed spill must fail the run, not rot on a
    background thread.
    """

    def __init__(self, max_pending: int = DEFAULT_MAX_PENDING) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.max_pending = max_pending
        self._queue: "queue.Queue[Optional[Tuple[str, Callable[[], None]]]]" \
            = queue.Queue(maxsize=max_pending)
        self._error: Optional[BaseException] = None
        self._error_label: Optional[str] = None
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="repro-overlap-writer", daemon=True)
        self._worker.start()

    # Worker side ---------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                label, job = item
                if self._error is None:
                    try:
                        job()
                    except BaseException as exc:  # noqa: BLE001
                        self._error = exc
                        self._error_label = label
            finally:
                self._queue.task_done()

    # Simulation-thread side ----------------------------------------------

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            label = self._error_label
            raise RuntimeError(
                f"background write {label!r} failed") from error

    def submit(self, label: str, job: Callable[[], None]) -> None:
        """Queue ``job``; blocks when ``max_pending`` jobs are in flight.

        ``label`` names the artifact (e.g. ``"segment epoch 7"``) in
        the error chain when the job fails.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        self._raise_pending_error()
        self._queue.put((label, job))

    def flush(self) -> None:
        """Block until every submitted job has run; re-raise failures."""
        self._queue.join()
        self._raise_pending_error()

    def close(self) -> None:
        """Flush, stop the worker, and re-raise any captured failure."""
        if self._closed:
            self._raise_pending_error()
            return
        self._closed = True
        self._queue.join()
        self._queue.put(None)
        self._worker.join()
        self._raise_pending_error()

    def __enter__(self) -> "BackgroundWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FlatGC:
    """Scale-flat garbage-collection regime for long simulations.

    ``install`` freezes the currently live heap into the permanent
    generation (scenario graph, code objects, caches) and widens the
    gen-0 threshold; ``epoch_boundary`` collects once and freezes the
    epoch's survivors so the next epoch's scans never re-traverse them;
    ``uninstall`` restores the interpreter's previous configuration.
    Use as a context manager around a run loop::

        with FlatGC():
            world.run(...)

    The regime only changes *when* the collector scans, never what the
    simulation computes — no draws, no state, no output change.
    """

    def __init__(self, gen0_threshold: int = FLAT_GC_GEN0) -> None:
        if gen0_threshold <= 0:
            raise ValueError("gen0_threshold must be positive")
        self.gen0_threshold = gen0_threshold
        self._saved: Optional[Tuple[int, int, int]] = None

    @property
    def installed(self) -> bool:
        return self._saved is not None

    def install(self) -> "FlatGC":
        if self._saved is None:
            self._saved = gc.get_threshold()
            gc.collect()
            gc.freeze()
            gc.set_threshold(self.gen0_threshold, 10, 10)
        return self

    def epoch_boundary(self) -> None:
        """Collect the finished epoch's cycles, freeze its survivors."""
        if self._saved is not None:
            gc.collect()
            gc.freeze()

    def uninstall(self) -> None:
        if self._saved is not None:
            gc.set_threshold(*self._saved)
            self._saved = None
            gc.unfreeze()

    def __enter__(self) -> "FlatGC":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
