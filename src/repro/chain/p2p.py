"""Gossip network model and the pending-transaction observer.

The paper collected 125.6 M pending transactions by subscribing to
``pendingTransactions`` on its own node for five months, and Section 6.1's
private-transaction inference is a set difference between that trace and the
chain.  :class:`GossipNetwork` models public propagation with an imperfect
per-transaction observation probability (the paper assumes its node saw "the
vast majority" of gossip), and :class:`MempoolObserver` is the measurement
node: it only ever sees *publicly* gossiped transactions — submissions to
Flashbots or other private pools never reach it, by construction.

The observer also keeps honest books about its own blind spots: every
in-window transaction the gossip layer offered is accounted for as either
observed or missed, so ``observed_coverage()`` reconciles exactly, and
``downtime_ranges`` records block spans during which the collector was
offline (absence from the trace there means "not collected", not
"private" — the distinction behind the ``unobserved`` privacy label).
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.chain.transaction import Transaction
from repro.chain.types import Hash32

#: An inclusive ``(first_block, last_block)`` span.
BlockRange = Tuple[int, int]


class MempoolObserver:
    """The measurement node's pending-transaction trace.

    ``start_block``/``end_block`` bound the observation window (the paper
    observed Nov 8 2021 – Apr 9 2022); transactions gossiped outside the
    window are not recorded, mirroring the real collection.
    ``downtime_ranges`` are block spans inside the window during which the
    collector was offline: nothing gossiped there is recorded, and the
    spans are reported so inference can refuse to classify absences.
    """

    def __init__(self, start_block: int = 0,
                 end_block: Optional[int] = None,
                 downtime_ranges: Iterable[BlockRange] = ()) -> None:
        self.start_block = start_block
        self.end_block = end_block
        self.downtime_ranges: Tuple[BlockRange, ...] = tuple(
            sorted((int(lo), int(hi)) for lo, hi in downtime_ranges))
        for lo, hi in self.downtime_ranges:
            if hi < lo:
                raise ValueError(f"bad downtime range ({lo}, {hi})")
        self._first_seen: Dict[Hash32, int] = {}
        #: in-window transactions the gossip layer offered but this
        #: observer failed to see (lossy sampling or downtime); a dict
        #: used as an insertion-ordered set, so sealed worlds pickle to
        #: the same bytes under any hash seed
        self._missed: Dict[Hash32, None] = {}

    def in_window(self, block_number: int) -> bool:
        if block_number < self.start_block:
            return False
        if self.end_block is not None and block_number > self.end_block:
            return False
        return True

    def was_down(self, block_number: int) -> bool:
        """Whether the collector was offline at this block height."""
        return any(lo <= block_number <= hi
                   for lo, hi in self.downtime_ranges)

    def record(self, tx: Transaction, block_number: int) -> None:
        """Record a pending-transaction event if inside the window."""
        if not self.in_window(block_number):
            return
        if self.was_down(block_number):
            self._missed[tx.hash] = None
            return
        self._first_seen.setdefault(tx.hash, block_number)
        # A later successful observation supersedes an earlier miss.
        self._missed.pop(tx.hash, None)

    def record_missed(self, tx: Transaction, block_number: int) -> None:
        """Account for an in-window gossip event this node failed to see."""
        if not self.in_window(block_number):
            return
        if tx.hash not in self._first_seen:
            self._missed[tx.hash] = None

    def was_observed(self, tx_hash: Hash32) -> bool:
        return tx_hash in self._first_seen

    def first_seen(self, tx_hash: Hash32) -> Optional[int]:
        return self._first_seen.get(tx_hash)

    @property
    def observed_hashes(self) -> Set[Hash32]:
        return set(self._first_seen)

    def __len__(self) -> int:
        return len(self._first_seen)

    # Incremental trace snapshots ------------------------------------------
    #
    # ``record`` only ever *appends* to the first-seen trace (``setdefault``
    # never rewrites an entry), so the trace has a stable prefix order and
    # a plain entry count works as its version counter.  The epoch-seal
    # machinery uses that to snapshot only the entries added since the
    # last boundary instead of re-pickling the whole trace every epoch.

    def trace_length(self) -> int:
        """Version counter for the first-seen trace (append-only)."""
        return len(self._first_seen)

    def trace_slice(self, start: int) -> List[Tuple[Hash32, int]]:
        """Entries from position ``start`` onward, in first-seen order."""
        return list(islice(self._first_seen.items(), start, None))

    def swap_trace(self, trace: Dict[Hash32, int]) -> Dict[Hash32, int]:
        """Replace the first-seen trace, returning the previous one.

        The seal path lends the observer an empty trace while pickling
        the carried-object graph (the trace travels separately as
        append-only chunks), then swaps the original back.
        """
        previous = self._first_seen
        self._first_seen = trace
        return previous

    # Coverage accounting -------------------------------------------------

    @property
    def observed_count(self) -> int:
        return len(self._first_seen)

    @property
    def missed_count(self) -> int:
        """Unique in-window transactions offered but never observed."""
        return len(self._missed)

    @property
    def gossiped_total(self) -> int:
        """Unique in-window transactions the gossip layer delivered.

        Reconciles by construction: ``observed_count + missed_count``.
        """
        return len(self._first_seen) + len(self._missed)

    def observed_coverage(self) -> float:
        """Share of in-window gossip this observer actually captured."""
        total = self.gossiped_total
        return 1.0 if total == 0 else self.observed_count / total


class GossipNetwork:
    """Public transaction propagation with imperfect observation.

    ``observation_rate`` is the probability that the measurement node sees
    any given publicly gossiped transaction.  The network also feeds every
    public transaction to the shared mempool used by miners and searchers —
    miners are assumed to be well connected and never miss transactions.
    """

    def __init__(self, rng: random.Random,
                 observation_rate: float = 0.995) -> None:
        if not 0.0 <= observation_rate <= 1.0:
            raise ValueError("observation_rate must be within [0, 1]")
        self.rng = rng
        self.observation_rate = observation_rate
        self.observers: list[MempoolObserver] = []
        #: in-window delivery *events* dropped (may double-count a tx
        #: gossiped twice; per-observer sets deduplicate)
        self.missed_count = 0

    def attach_observer(self, observer: MempoolObserver) -> None:
        self.observers.append(observer)

    def broadcast(self, tx: Transaction, block_number: int) -> None:
        """Gossip a public transaction; observers may each miss it."""
        if tx.first_seen_block is None:
            tx.first_seen_block = block_number
        for observer in self.observers:
            if self.rng.random() <= self.observation_rate:
                observer.record(tx, block_number)
            elif observer.in_window(block_number):
                self.missed_count += 1
                observer.record_missed(tx, block_number)
