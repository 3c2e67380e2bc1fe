"""``repro.stream`` — incremental, reorg-robust MEV detection.

The paper's apparatus was *live*: a continuously-importing Flashbots
blocks collector and an always-on mempool observer, following the chain
head as it grew (and occasionally shrank).  This package is that mode
of operation for the reproduction: :class:`StreamEngine` consumes block
announcements one at a time, folds the detection heuristics
incrementally, buffers an unconfirmed window behind a confirmation-depth
watermark, retracts and replays rows across reorgs, and checkpoints so
a crash-killed follower resumes bit-identically.

The engine's standing contract is **convergence**: streaming over any
faulted feed (reorgs, duplicates, out-of-order delivery, outages) must
produce rows and a quality ledger bit-identical to the batch pipeline
run over the final canonical chain — enforced by the ``stream`` stage
of ``repro bench`` (the ``stream_identical`` gate).  The follower and
its batch reference are wired in one place,
:func:`repro.follow_engine` and :func:`repro.follow_reference`.
"""

from repro.stream.engine import (
    RetractionEntry,
    StreamDivergenceError,
    StreamEngine,
    StreamReport,
    StreamSubscriber,
)

__all__ = [
    "RetractionEntry",
    "StreamDivergenceError",
    "StreamEngine",
    "StreamReport",
    "StreamSubscriber",
]
