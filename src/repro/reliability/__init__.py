"""``repro.reliability`` — the defenses against imperfect data sources.

Where :mod:`repro.faults` breaks the pipeline's three data sources the
way the real study's sources broke, this package makes the pipeline
survive it:

* :class:`RetryPolicy` — exponential backoff with *seeded* jitter
  (determinism rule R002: no ambient entropy), so a retried run replays
  bit-for-bit;
* :class:`CircuitBreaker` — per-source breaker with half-open probing,
  cooled down in call counts rather than wall-clock time (again R002);
* :class:`CheckpointStore` — an append-only log of completed
  block-range chunks, enabling ``repro run --resume`` after a crash;
* :class:`DataQualityReport` — per-source coverage, retries, breaker
  trips and gap ranges, attached to every :class:`MevDataset` so
  degraded runs are *visibly* degraded, never silently wrong;
* :class:`ArchiveSource`, :class:`MempoolSource`,
  :class:`FlashbotsSource` — the three typed sources.  Each query runs
  one ``fetch(op, *args)`` chain: a :class:`ResilientCaller` (retry,
  breaker, stats) around the fault plan's transient decision, the
  plan's unrecoverable degradation, and the inner call.
  :func:`shield` builds all three.
"""

from repro.reliability.checkpoint import CheckpointError, CheckpointStore
from repro.reliability.circuit import (
    CircuitBreaker,
    CircuitOpenError,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.reliability.quality import DataQualityReport, SourceQuality
from repro.reliability.retry import RetryExhaustedError, RetryPolicy
from repro.reliability.sources import (
    ArchiveSource,
    FlashbotsSource,
    MempoolSource,
    OpKey,
    ResilientCaller,
    SourceStats,
    render_key,
    shield,
)

__all__ = [
    "ArchiveSource",
    "CheckpointError",
    "CheckpointStore",
    "CircuitBreaker",
    "CircuitOpenError",
    "DataQualityReport",
    "FlashbotsSource",
    "MempoolSource",
    "OpKey",
    "ResilientCaller",
    "RetryExhaustedError",
    "RetryPolicy",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "SourceQuality",
    "SourceStats",
    "render_key",
    "shield",
]
