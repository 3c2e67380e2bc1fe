"""The pipeline's three data sources, each behind one query chain.

:class:`ArchiveSource`, :class:`MempoolSource` and
:class:`FlashbotsSource` keep the typed surface the pipeline and the
heuristics program against; every remote-shaped method is one
``fetch(op, *args)`` through the same chain:

1. the :class:`ResilientCaller` (retries, breaker, stats), when armed;
2. the :class:`~repro.faults.FaultPlan`'s **transient** decision for
   ``(source, op, render_key(args))``: a faulty key fails its first N
   attempts (transport error, timeout, malformed response), then heals,
   so a retried chaos run recovers the identical answer;
3. the plan's **unrecoverable** degradation — archive blackouts,
   observer downtime, Flashbots gaps — which is never masked: the
   pipeline degrades visibly (``unknown``/``unobserved`` labels, a
   populated :class:`DataQualityReport`);
4. the inner call, with lazy results materialised so a fault surfaces
   inside the guarded call, not later at iteration time.

Local metadata (windows, downtime, coverage) reads the inner object
directly, merged with the plan's ranges.  With ``plan=None`` a source
answers exactly as the raw object does.  Sources never mutate or
corrupt the inner data: a malformed response is a *detected* failure.
:func:`shield` builds all three.  (Its old spelling was removed in
1.5.0; the R007 banned-api lint rule keeps it from creeping back in.)
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, \
    Tuple, Type, TypeVar

from repro.chain.block import Block
from repro.chain.events import EventLog
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.chain.types import Hash32
from repro.faults.errors import (
    DataSourceError,
    MalformedResponseError,
    SourceGapError,
    TransportError,
    TransportTimeout,
)
from repro.faults.plan import KIND_MALFORMED, KIND_TIMEOUT, FaultPlan
from repro.flashbots.api import ApiBlock, ApiTransaction
from repro.reliability.circuit import CircuitBreaker
from repro.reliability.retry import RetryPolicy

T = TypeVar("T")
E = TypeVar("E", bound=EventLog)

BlockRange = Tuple[int, int]

#: an operation's positional arguments, e.g. ``(123,)`` for a block
#: number or ``(SwapEvent, 10, 20)`` for a typed log query
OpKey = Tuple[Any, ...]

__all__ = ["ArchiveSource", "FlashbotsSource", "MempoolSource", "OpKey",
           "ResilientCaller", "SourceStats", "fresh_source", "render_key",
           "shield", "source_stats"]

_ERROR_CLASSES = {
    KIND_TIMEOUT: TransportTimeout,
    KIND_MALFORMED: MalformedResponseError,
}


def render_key(key: OpKey) -> str:
    """A stable string form of an operation key.

    Retry jitter and fault decisions are seeded per rendered key, so
    the format is part of the replay contract: no arguments → ``"-"``;
    a leading type renders as ``"Name:rest"`` (event-log queries);
    everything else joins with ``"-"`` (``(10, 20)`` → ``"10-20"``).
    """
    if not key:
        return "-"
    parts = [part.__name__ if isinstance(part, type) else str(part)
             for part in key]
    if isinstance(key[0], type) and len(parts) > 1:
        return f"{parts[0]}:{'-'.join(parts[1:])}"
    return "-".join(parts)


@dataclass
class SourceStats:
    """Raw resilience counters for one source.

    A caller's live ledger counts the five fields; its breaker keeps
    the trip count, which :func:`source_stats` copies into a snapshot.
    ``breaker_trips`` is therefore a class default rather than a
    field, so the live ledger keeps its five-counter shape; equality
    still compares all six counters.
    """

    requests: int = 0
    retries: int = 0
    failed_attempts: int = 0
    exhausted: int = 0
    simulated_backoff_s: float = 0.0
    breaker_trips = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceStats):
            return NotImplemented
        return (astuple(self), self.breaker_trips) == \
            (astuple(other), other.breaker_trips)

    def add(self, other: "SourceStats") -> None:
        """Accumulate ``other`` into this ledger (callers sum chunks in
        chunk order, so float totals are bit-stable)."""
        self.requests += other.requests
        self.retries += other.retries
        self.failed_attempts += other.failed_attempts
        self.exhausted += other.exhausted
        self.simulated_backoff_s += other.simulated_backoff_s
        self.breaker_trips += other.breaker_trips


class ResilientCaller:
    """Retry + breaker + stats around one source's operations."""

    def __init__(self, source: str,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.source = source
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(source)
        self.stats = SourceStats()

    def fresh(self) -> "ResilientCaller":
        """The same policy with a fresh breaker and stats ledger."""
        return ResilientCaller(self.source, self.retry, CircuitBreaker(
            self.source, failure_threshold=self.breaker.failure_threshold,
            cooldown_calls=self.breaker.cooldown_calls))

    def call(self, op: str, key: str, operation: Callable[[], T]) -> T:
        """Run one operation under retry + breaker discipline."""
        self.stats.requests += 1

        def attempt() -> T:
            self.breaker.before_call()
            try:
                result = operation()
            except DataSourceError:
                self.breaker.record_failure()
                self.stats.failed_attempts += 1
                raise
            self.breaker.record_success()
            return result

        def on_retry(error: BaseException, delay: float) -> None:
            self.stats.retries += 1
            self.stats.simulated_backoff_s += delay

        try:
            return attempt() if self.retry.max_attempts == 1 else \
                self.retry.call(f"{self.source}.{op}:{key}", attempt,
                                on_retry=on_retry)
        except Exception:
            self.stats.exhausted += 1
            raise

    @property
    def breaker_trips(self) -> int:
        return self.breaker.trip_count


def _merge_ranges(*groups: Any) -> Tuple[BlockRange, ...]:
    return tuple(sorted({block_range for group in groups
                         for block_range in group}))


class _Source:
    """The ``fetch`` chain shared by the three typed sources."""

    name = "source"

    def __init__(self, inner: Any, plan: Optional[FaultPlan] = None,
                 caller: Optional[ResilientCaller] = None) -> None:
        self.inner = inner
        self.plan = plan
        self.caller = caller
        #: attempts seen per faulty ``(op, key)``, driving heal-after-N
        self._attempts: Dict[Tuple[str, str], int] = {}

    def fresh(self) -> Any:
        """This source with a fresh breaker, stats and fault counters."""
        return type(self)(self.inner, self.plan,
                          None if self.caller is None
                          else self.caller.fresh())

    def fetch(self, op: str, *args: Any) -> Any:
        """Run ``inner.op(*args)`` through the guarded chain."""
        key = render_key(args)
        if self.caller is None:
            return self._attempt(op, key, args)
        return self.caller.call(op, key,
                                lambda: self._attempt(op, key, args))

    def _attempt(self, op: str, key: str, args: OpKey) -> Any:
        self._inject(op, key)
        result = self._read(op, args)
        return list(result) if isinstance(result, Iterator) else result

    def _inject(self, op: str, key: str) -> None:
        """Raise the plan's transient fault for this attempt, or pass."""
        if self.plan is None:
            return
        decision = self.plan.decide(self.name, op, key)
        if not decision.faulty:
            return
        attempt = self._attempts.get((op, key), 0) + 1
        self._attempts[(op, key)] = attempt
        if attempt <= decision.failures:
            error_cls = _ERROR_CLASSES.get(decision.kind, TransportError)
            raise error_cls(
                f"injected {decision.kind} on {self.name}.{op}({key}) "
                f"[attempt {attempt}/{decision.failures}]")

    def _read(self, op: str, args: OpKey) -> Any:
        """The inner answer under the plan's unrecoverable faults."""
        return getattr(self.inner, op)(*args)


def source_stats(source: Any) -> SourceStats:
    """A snapshot of an armed source's ledger, breaker trips included;
    anything without a caller (a bare node, ``None``) gives an empty
    ledger."""
    caller = getattr(source, "caller", None)
    if caller is None:
        return SourceStats()
    snapshot = replace(caller.stats)
    snapshot.breaker_trips = caller.breaker_trips
    return snapshot


def fresh_source(source: T) -> T:
    """``source.fresh()`` for one of the three sources; any other
    object (a bare node, ``None``) is returned as is."""
    return source.fresh() if isinstance(source, _Source) else source


class ArchiveSource(_Source):
    """The go-ethereum-archive stand-in: flaky RPC plus blackouts.

    A blackout is a span of history the node has lost; ranged reads
    that touch it raise :class:`SourceGapError`.
    """

    name = "archive"
    _RANGED = frozenset({"get_block", "iter_blocks", "get_logs",
                         "iter_receipts"})

    def _read(self, op: str, args: OpKey) -> Any:
        if self.plan is not None and op in self._RANGED:
            # The range is the trailing (from, to) pair, or (n, n)
            # for a single-block read.
            lo, hi = args[-2:] if len(args) > 1 else args * 2
            overlap = self.plan.blackout_overlap(lo, hi)
            if overlap is not None:
                raise SourceGapError(
                    f"archive node has no history for blocks "
                    f"{overlap[0]}-{overlap[1]}")
        return super()._read(op, args)

    # Block-level queries -----------------------------------------------------

    def latest_block_number(self) -> Optional[int]:
        return self.fetch("latest_block_number")

    def earliest_block_number(self) -> Optional[int]:
        return self.fetch("earliest_block_number")

    def get_block(self, number: int) -> Optional[Block]:
        return self.fetch("get_block", number)

    def iter_blocks(self, from_block: Optional[int] = None,
                    to_block: Optional[int] = None) -> List[Block]:
        return self.fetch("iter_blocks", from_block, to_block)

    # Transaction-level queries -----------------------------------------------

    def get_transaction(self, tx_hash: Hash32) -> Optional[Transaction]:
        return self.fetch("get_transaction", tx_hash)

    def get_receipt(self, tx_hash: Hash32) -> Optional[Receipt]:
        return self.fetch("get_receipt", tx_hash)

    # Log queries ---------------------------------------------------------

    def get_logs(self, event_type: Type[E],
                 from_block: Optional[int] = None,
                 to_block: Optional[int] = None) -> List[E]:
        return self.fetch("get_logs", event_type, from_block, to_block)

    def iter_receipts(self, from_block: Optional[int] = None,
                      to_block: Optional[int] = None) -> List[Receipt]:
        return self.fetch("iter_receipts", from_block, to_block)


class MempoolSource(_Source):
    """The pending-transaction trace: flaky lookups plus downtime.

    Downtime hides observations *after the fact*: a transaction first
    seen inside a downtime window is reported as never observed (and
    counted as missed), because the real collector was offline when it
    would have arrived.
    """

    name = "mempool"

    def _hidden(self, tx_hash: Hash32) -> bool:
        if self.plan is None:
            return False
        first = self.inner.first_seen(tx_hash)
        return first is not None and self.was_down(first)

    def _read(self, op: str, args: OpKey) -> Any:
        if self._hidden(args[0]):
            return False if op == "was_observed" else None
        return super()._read(op, args)

    # Window / downtime metadata (local, never faulted) -------------------

    def in_window(self, block_number: int) -> bool:
        return self.inner.in_window(block_number)

    def was_down(self, block_number: int) -> bool:
        return (self.plan is not None
                and self.plan.in_observer_downtime(block_number)) or \
            self.inner.was_down(block_number)

    @property
    def downtime_ranges(self) -> Tuple[BlockRange, ...]:
        if self.plan is None:
            return tuple(self.inner.downtime_ranges)
        return _merge_ranges(self.plan.observer_downtime,
                             self.inner.downtime_ranges)

    # Trace queries -------------------------------------------------------

    def was_observed(self, tx_hash: Hash32) -> bool:
        return self.fetch("was_observed", tx_hash)

    def first_seen(self, tx_hash: Hash32) -> Optional[int]:
        return self.fetch("first_seen", tx_hash)

    @property
    def observed_hashes(self) -> Set[Hash32]:
        return {tx_hash for tx_hash in self.inner.observed_hashes
                if not self._hidden(tx_hash)}

    def __len__(self) -> int:
        return len(self.observed_hashes)

    # Coverage accounting -------------------------------------------------

    @property
    def observed_count(self) -> int:
        return len(self.observed_hashes)

    @property
    def missed_count(self) -> int:
        """Inner misses plus observations hidden by injected downtime."""
        return self.inner.missed_count + sum(
            1 for tx_hash in self.inner.observed_hashes
            if self._hidden(tx_hash))

    @property
    def gossiped_total(self) -> int:
        return self.inner.gossiped_total

    def observed_coverage(self) -> float:
        total = self.gossiped_total
        return 1.0 if total == 0 else self.observed_count / total


class FlashbotsSource(_Source):
    """The public Flashbots blocks dataset: flaky HTTP plus gaps.

    Blocks inside a gap range are absent from every query — the source
    answers exactly as the real API would for data it never ingested.
    ``has_block_data`` is the honest coverage signal: ``False`` means
    "cannot distinguish a non-Flashbots block from a missing row".
    """

    name = "flashbots"

    @cached_property
    def _tx_blocks(self) -> Dict[Hash32, int]:
        return {row.tx_hash: block.block_number
                for block in self.inner.all_blocks()
                for row in block.transactions}

    def _gapped(self, block_number: Optional[int]) -> bool:
        return block_number is not None and \
            self.plan.in_flashbots_gap(block_number)

    def _read(self, op: str, args: OpKey) -> Any:
        if self.plan is None:
            return super()._read(op, args)
        if op in ("block_count", "bundle_count"):
            # Both count over the gap-filtered dataset, so they pass
            # through the ``all_blocks`` fault gate as well.
            self._inject("all_blocks", "-")
            blocks = self._read("all_blocks", ())
            return len(blocks) if op == "block_count" else \
                sum(block.bundle_count for block in blocks)
        if op in ("all_blocks", "blocks_until"):
            return [block for block in super()._read(op, args)
                    if not self._gapped(block.block_number)]
        if op == "flashbots_tx_hashes":
            return {tx_hash for tx_hash in super()._read(op, args)
                    if not self._gapped(self._tx_blocks.get(tx_hash))}
        # Point lookups: by block number, or by transaction hash.
        by_block = op in ("get_block", "is_flashbots_block")
        if self._gapped(args[0] if by_block
                        else self._tx_blocks.get(args[0])):
            return None if op in ("get_block", "tx_label") else False
        return super()._read(op, args)

    # Coverage (local metadata) -------------------------------------------

    def has_block_data(self, block_number: int) -> bool:
        return not (self.plan is not None
                    and self.plan.in_flashbots_gap(block_number)) and \
            self.inner.has_block_data(block_number)

    def coverage_gaps(self) -> List[BlockRange]:
        if self.plan is None:
            return list(self.inner.coverage_gaps())
        return list(_merge_ranges(self.plan.flashbots_gaps,
                                  self.inner.coverage_gaps()))

    # Public dataset queries ---------------------------------------------------

    def all_blocks(self) -> List[ApiBlock]:
        return list(self.fetch("all_blocks"))

    def blocks_until(self, block_number: int) -> List[ApiBlock]:
        return list(self.fetch("blocks_until", block_number))

    def get_block(self, block_number: int) -> Optional[ApiBlock]:
        return self.fetch("get_block", block_number)

    def is_flashbots_block(self, block_number: int) -> bool:
        return self.fetch("is_flashbots_block", block_number)

    def is_flashbots_tx(self, tx_hash: Hash32) -> bool:
        return self.fetch("is_flashbots_tx", tx_hash)

    def tx_label(self, tx_hash: Hash32) -> Optional[ApiTransaction]:
        return self.fetch("tx_label", tx_hash)

    def flashbots_tx_hashes(self) -> Set[Hash32]:
        return set(self.fetch("flashbots_tx_hashes"))

    def block_count(self) -> int:
        return self.fetch("block_count")

    def bundle_count(self) -> int:
        return self.fetch("bundle_count")


def shield(node: Any,
           observer: Optional[Any] = None,
           flashbots_api: Optional[Any] = None,
           retry: Optional[RetryPolicy] = None,
           failure_threshold: int = 5,
           cooldown_calls: int = 10,
           plan: Optional[FaultPlan] = None,
           ) -> Tuple[ArchiveSource, Optional[MempoolSource],
                      Optional[FlashbotsSource]]:
    """The pipeline's sources behind ``plan``'s faults and armed callers.

    Each source gets its *own* breaker (one flaky source must not trip
    the others) but shares the retry policy, so one seed governs every
    backoff schedule.
    """
    retry = retry or RetryPolicy()

    def caller(name: str) -> ResilientCaller:
        return ResilientCaller(name, retry, CircuitBreaker(
            name, failure_threshold=failure_threshold,
            cooldown_calls=cooldown_calls))

    shielded_node = ArchiveSource(node, plan, caller("archive"))
    shielded_observer = None if observer is None else \
        MempoolSource(observer, plan, caller("mempool"))
    shielded_api = None if flashbots_api is None else \
        FlashbotsSource(flashbots_api, plan, caller("flashbots"))
    return shielded_node, shielded_observer, shielded_api
