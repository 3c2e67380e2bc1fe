"""Seeded fault plans: *what* fails, *where*, and *how often*.

A :class:`FaultPlan` is the single source of truth for a chaos run.  It
is pure data plus a deterministic decision function: for every
``(source, operation, key)`` triple it answers "how many attempts fail
before one succeeds, and with which error".  The decision is derived by
seeding a private ``random.Random`` with the string
``"{seed}:{source}:{op}:{key}"`` — CPython seeds string inputs through
SHA-512, so the answer is stable across processes and hash seeds, and
independent of the order in which the pipeline happens to ask.

Unrecoverable conditions are expressed as *ranges*, matching how they
occurred in the real study: the Flashbots dataset has gap block ranges,
the pending-transaction observer had downtime windows, and an archive
node can lose a span of history (used by the crash/resume tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

BlockRange = Tuple[int, int]

#: injected error kinds, in the order specs carve up their probability
KIND_ERROR = "error"
KIND_TIMEOUT = "timeout"
KIND_MALFORMED = "malformed"

#: CLI-facing preset names (see :meth:`FaultPlan.from_profile`).
FAULT_PROFILES = ("none", "transient", "gaps", "outage", "chaos",
                  "reorg")

#: the three sources the paper's pipeline depends on
SOURCE_ARCHIVE = "archive"
SOURCE_MEMPOOL = "mempool"
SOURCE_FLASHBOTS = "flashbots"


@dataclass(frozen=True)
class FaultDecision:
    """Outcome of the plan for one ``(source, op, key)`` triple."""

    #: attempts that fail before the first success (0 = healthy)
    failures: int = 0
    #: which error class the failing attempts raise
    kind: str = KIND_ERROR

    @property
    def faulty(self) -> bool:
        return self.failures > 0


#: the no-fault decision, shared to avoid allocation on the hot path
NO_FAULT = FaultDecision()


@dataclass(frozen=True)
class FaultSpec:
    """Per-source transient-fault behaviour.

    ``fault_rate`` is the share of *operation keys* that misbehave at
    all; a faulty key fails its first 1..``max_failures`` attempts and
    then recovers — the shape a retry policy is designed to absorb.
    ``timeout_share`` and ``malformed_share`` carve the faulty mass into
    error kinds; the remainder raises plain transport errors.
    """

    fault_rate: float = 0.0
    max_failures: int = 2
    timeout_share: float = 0.25
    malformed_share: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if self.timeout_share + self.malformed_share > 1.0:
            raise ValueError("error-kind shares must sum to <= 1")


@dataclass(frozen=True)
class FeedFaultSpec:
    """Head-feed misbehaviour: reorgs, delivery delays, duplicates.

    Unlike :class:`FaultSpec` (request/retry shaped), these faults
    distort the *announcement stream* a chain follower consumes.  Each
    rate is the per-block probability of the corresponding event;
    ``max_reorg_depth`` bounds how many tip blocks a fork replaces and
    ``max_delay`` how many heights an announcement can arrive late.
    """

    reorg_rate: float = 0.0
    max_reorg_depth: int = 3
    delay_rate: float = 0.0
    max_delay: int = 3
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reorg_rate", "delay_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.max_reorg_depth < 1:
            raise ValueError("max_reorg_depth must be >= 1")
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")

    @property
    def quiet(self) -> bool:
        return (self.reorg_rate <= 0.0 and self.delay_rate <= 0.0
                and self.duplicate_rate <= 0.0)


@dataclass(frozen=True)
class FeedDecision:
    """Feed-fault verdict for one block height's announcement."""

    #: heights the announcement arrives late (0 = on time)
    delay: int = 0
    #: announce the same block a second time
    duplicate: bool = False
    #: depth of the fork the feed emits at this height before the
    #: canonical re-delivery (0 = no reorg)
    reorg_depth: int = 0

    @property
    def faulty(self) -> bool:
        return bool(self.delay or self.duplicate or self.reorg_depth)


#: the clean-announcement decision, shared to avoid allocation
NO_FEED_FAULT = FeedDecision()


def _normalise_ranges(ranges: Iterable[BlockRange]) -> \
        Tuple[BlockRange, ...]:
    """Sorted, validated ``(lo, hi)`` inclusive block ranges."""
    cleaned: List[BlockRange] = []
    for lo, hi in ranges:
        if hi < lo:
            raise ValueError(f"bad block range ({lo}, {hi})")
        cleaned.append((int(lo), int(hi)))
    return tuple(sorted(cleaned))


def _in_ranges(block_number: int,
               ranges: Tuple[BlockRange, ...]) -> bool:
    return any(lo <= block_number <= hi for lo, hi in ranges)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of a chaos scenario."""

    seed: int = 0
    archive: FaultSpec = field(default_factory=FaultSpec)
    mempool: FaultSpec = field(default_factory=FaultSpec)
    flashbots: FaultSpec = field(default_factory=FaultSpec)
    #: blocks missing from the Flashbots public dataset (inclusive)
    flashbots_gaps: Tuple[BlockRange, ...] = ()
    #: blocks during which the pending-tx observer was down
    observer_downtime: Tuple[BlockRange, ...] = ()
    #: block spans the archive node cannot serve at all (unrecoverable)
    archive_blackouts: Tuple[BlockRange, ...] = ()
    #: head-feed misbehaviour (reorgs, delays, duplicates)
    feed: FeedFaultSpec = field(default_factory=FeedFaultSpec)
    #: block spans during which the head feed announces nothing; the
    #: queued announcements flush when the outage ends
    feed_outages: Tuple[BlockRange, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "flashbots_gaps",
                           _normalise_ranges(self.flashbots_gaps))
        object.__setattr__(self, "observer_downtime",
                           _normalise_ranges(self.observer_downtime))
        object.__setattr__(self, "archive_blackouts",
                           _normalise_ranges(self.archive_blackouts))
        object.__setattr__(self, "feed_outages",
                           _normalise_ranges(self.feed_outages))

    # Transient-fault decisions -------------------------------------------

    def spec_for(self, source: str) -> FaultSpec:
        specs: Dict[str, FaultSpec] = {SOURCE_ARCHIVE: self.archive,
                                       SOURCE_MEMPOOL: self.mempool,
                                       SOURCE_FLASHBOTS: self.flashbots}
        try:
            return specs[source]
        except KeyError:
            raise ValueError(f"unknown fault source {source!r}")

    def decide(self, source: str, op: str, key: str) -> FaultDecision:
        """Deterministic verdict for one operation key.

        Independent of call order and process: the verdict is a pure
        function of ``(seed, source, op, key)``.
        """
        spec = self.spec_for(source)
        if spec.fault_rate <= 0.0:
            return NO_FAULT
        rng = random.Random(f"{self.seed}:{source}:{op}:{key}")
        if rng.random() >= spec.fault_rate:
            return NO_FAULT
        failures = 1 + rng.randrange(spec.max_failures)
        roll = rng.random()
        if roll < spec.timeout_share:
            kind = KIND_TIMEOUT
        elif roll < spec.timeout_share + spec.malformed_share:
            kind = KIND_MALFORMED
        else:
            kind = KIND_ERROR
        return FaultDecision(failures=failures, kind=kind)

    # Feed-fault decisions -------------------------------------------------

    def feed_decision(self, height: int) -> FeedDecision:
        """Deterministic feed verdict for one block height.

        Pure in ``(seed, height)``: the rng is seeded with
        ``"{seed}:feed:announce:{height}"`` and the draws happen in a
        fixed order (delay roll, delay value, duplicate roll, reorg
        roll, reorg depth), so the verdict never depends on which other
        heights were asked about, or in what order.
        """
        spec = self.feed
        if spec.quiet:
            return NO_FEED_FAULT
        rng = random.Random(f"{self.seed}:feed:announce:{height}")
        delay = 0
        if rng.random() < spec.delay_rate:
            delay = 1 + rng.randrange(spec.max_delay)
        duplicate = rng.random() < spec.duplicate_rate
        reorg_depth = 0
        if rng.random() < spec.reorg_rate:
            reorg_depth = 1 + rng.randrange(spec.max_reorg_depth)
        if not (delay or duplicate or reorg_depth):
            return NO_FEED_FAULT
        return FeedDecision(delay=delay, duplicate=duplicate,
                            reorg_depth=reorg_depth)

    # Unrecoverable-range queries -----------------------------------------

    def in_flashbots_gap(self, block_number: int) -> bool:
        return _in_ranges(block_number, self.flashbots_gaps)

    def in_observer_downtime(self, block_number: int) -> bool:
        return _in_ranges(block_number, self.observer_downtime)

    def blackout_overlap(self, from_block: Optional[int],
                         to_block: Optional[int]) -> Optional[BlockRange]:
        """First blackout range intersecting ``[from_block, to_block]``."""
        for lo, hi in self.archive_blackouts:
            if (from_block is None or from_block <= hi) and \
                    (to_block is None or to_block >= lo):
                return (lo, hi)
        return None

    # Presets ----------------------------------------------------------------

    @classmethod
    def quiet(cls, seed: int = 0) -> "FaultPlan":
        """No faults at all (useful as the resume-after-outage plan)."""
        return cls(seed=seed)

    @classmethod
    def transient(cls, seed: int, fault_rate: float = 0.08,
                  max_failures: int = 2) -> "FaultPlan":
        """Flaky-but-recoverable sources: retries fully mask the faults."""
        spec = FaultSpec(fault_rate=fault_rate, max_failures=max_failures)
        return cls(seed=seed, archive=spec, mempool=spec, flashbots=spec)

    @classmethod
    def from_profile(cls, profile: str, seed: int,
                     first_block: int, last_block: int) -> "FaultPlan":
        """Build a named scenario over a concrete block span.

        Range-shaped faults (gaps, downtime) are carved out of the span
        deterministically from the seed, each roughly a tenth of it.
        """
        if profile not in FAULT_PROFILES:
            raise ValueError(f"unknown fault profile {profile!r}; "
                             f"expected one of {FAULT_PROFILES}")
        if profile == "none":
            return cls.quiet(seed)
        if profile == "transient":
            return cls.transient(seed)
        span = max(1, last_block - first_block + 1)
        width = max(1, span // 10)
        rng = random.Random(f"{seed}:profile:{profile}")

        def carve() -> BlockRange:
            lo = first_block + rng.randrange(max(1, span - width))
            return (lo, min(last_block, lo + width - 1))

        if profile == "gaps":
            return cls(seed=seed, flashbots_gaps=(carve(),))
        if profile == "outage":
            return cls(seed=seed, observer_downtime=(carve(),))
        if profile == "reorg":
            # Everything a chain follower must absorb: head reorgs,
            # late/duplicate announcements, and one feed-outage window.
            feed = FeedFaultSpec(reorg_rate=0.15, max_reorg_depth=3,
                                 delay_rate=0.15, max_delay=3,
                                 duplicate_rate=0.15)
            return cls(seed=seed, feed=feed, feed_outages=(carve(),))
        # chaos: everything at once
        spec = FaultSpec(fault_rate=0.08, max_failures=2)
        return cls(seed=seed, archive=spec, mempool=spec,
                   flashbots=spec, flashbots_gaps=(carve(),),
                   observer_downtime=(carve(),))
