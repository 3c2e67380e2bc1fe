"""``repro.faults`` — deterministic fault injection for the data sources.

The paper's measurement ran against three imperfect sources: a
go-ethereum archive node, a lossy ``pendingTransactions`` trace
(Section 6.1 explicitly models missed transactions), and the public
Flashbots blocks dataset, which the authors note has gaps.  This package
reproduces those failure modes *on purpose*: a seeded :class:`FaultPlan`
decides which queries raise transient errors, timeouts or
truncated/malformed responses, and which block ranges fall in dataset
gaps, observer downtime or archive blackouts.  The plan is applied
inside each source's query chain (``shield(..., plan=...)`` in
:mod:`repro.reliability`); :class:`FaultyFeed` applies its reorgs,
delays and duplicates to the follow-mode block feed.

Every injected fault is a pure function of ``(seed, source, operation,
key)``, so a chaos run replays bit-for-bit — the same property the rest
of the simulator guarantees (lint rule R002).  The defenses live in
:mod:`repro.reliability`; this package only describes what breaks.
"""

from repro.faults.errors import (
    DataSourceError,
    MalformedResponseError,
    SourceGapError,
    TransportError,
    TransportTimeout,
)
from repro.faults.feed import (
    ChainFeed,
    FaultyFeed,
    FeedEvent,
    fork_block,
)
from repro.faults.plan import (
    FAULT_PROFILES,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    FeedDecision,
    FeedFaultSpec,
)

__all__ = [
    "ChainFeed",
    "DataSourceError",
    "FAULT_PROFILES",
    "FaultDecision",
    "FaultPlan",
    "FaultSpec",
    "FaultyFeed",
    "FeedDecision",
    "FeedEvent",
    "FeedFaultSpec",
    "MalformedResponseError",
    "SourceGapError",
    "TransportError",
    "TransportTimeout",
    "fork_block",
]
