"""Non-Flashbots private pools (Eden-like, Taichi-like, single-miner).

Section 6 of the paper studies MEV extracted through private channels
*other than* Flashbots: named networks (Eden; Taichi until its October
2021 shutdown) and ad-hoc arrangements where a miner mines its own — or a
partner's — transactions without ever gossiping them.

Unlike Flashbots, these pools publish nothing: no blocks API, no bundle
labels.  The only trace they leave is the paper's inference signal — their
transactions appear on chain without ever having been seen in the public
mempool.

Submissions are *ordered sequences* of transactions: a private sandwich
needs its member miner to place the two attacker legs around the public
victim, so the channel must carry ordering intent just like a Flashbots
bundle does (it simply never discloses it).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.chain.transaction import Transaction
from repro.chain.types import Address

PrivateSequence = Tuple[Transaction, ...]

#: How long a private submission stays deliverable, in blocks.  Private
#: order flow is as perishable as public order flow: a sandwich is only
#: meaningful while its victim is still pending (the mempool itself
#: evicts at 40 blocks), and an arbitrage is sized against reserves that
#: drift away within minutes.  Real channels behave the same way —
#: Flashbots bundles target a specific block and the relay drops them
#: once it passes — so a pool that carried stale sequences forever would
#: model a channel no operator runs and, at millions of blocks, make
#: every member-miner block pay for the entire history of dead intents.
DEFAULT_SEQUENCE_TTL_BLOCKS = 40


class PrivatePool:
    """A private transaction channel between submitters and member miners.

    ``single_miner`` pools model a miner mining its own MEV (Section 6.3's
    Flexpool/F2Pool finding); multi-miner pools model Eden/Taichi-style
    networks.  ``shutdown_block`` models Taichi's mid-study demise.
    """

    def __init__(self, name: str, miners: Sequence[Address],
                 shutdown_block: Optional[int] = None,
                 ttl_blocks: Optional[int] =
                 DEFAULT_SEQUENCE_TTL_BLOCKS) -> None:
        if not miners:
            raise ValueError("a private pool needs at least one miner")
        if ttl_blocks is not None and ttl_blocks <= 0:
            raise ValueError("ttl_blocks must be positive (or None)")
        self.name = name
        #: member miners: a dict used as an insertion-ordered set, so
        #: sealed worlds pickle to the same bytes under any hash seed
        self.miners: Dict[Address, None] = dict.fromkeys(miners)
        self.shutdown_block = shutdown_block
        #: ``None`` disables expiry (a channel that never drops flow).
        self.ttl_blocks = ttl_blocks
        #: submit-ordered ``(submitted_at_block, sequence)`` entries;
        #: removals preserve order, so the list stays sorted by
        #: submission block and expiry is a front-drop.
        self._pending: List[Tuple[int, PrivateSequence]] = []
        self.submitted_count = 0
        self.expired_count = 0

    @property
    def is_single_miner(self) -> bool:
        return len(self.miners) == 1

    def is_active(self, block_number: int) -> bool:
        return (self.shutdown_block is None
                or block_number < self.shutdown_block)

    def has_miner(self, miner: Address) -> bool:
        return miner in self.miners

    # Submission & retrieval ----------------------------------------------------

    def submit(self, tx: Transaction, current_block: int) -> bool:
        """Accept a single private transaction; never gossiped."""
        return self.submit_sequence([tx], current_block)

    def submit_sequence(self, txs: Sequence[Transaction],
                        current_block: int) -> bool:
        """Accept an ordered private sequence (e.g. a sandwich)."""
        if not txs:
            return False
        if not self.is_active(current_block):
            return False
        self._pending.append((current_block, tuple(txs)))
        self.submitted_count += 1
        return True

    def pending_for(self, miner: Address,
                    block_number: int) -> List[PrivateSequence]:
        """Sequences a member miner may privately include, in order."""
        if miner not in self.miners or not self.is_active(block_number):
            return []
        return [seq for _, seq in self._pending]

    def mark_included(self, tx_hashes: Set[str]) -> None:
        """Drop sequences any of whose transactions landed on chain."""
        self._pending = [
            entry for entry in self._pending
            if not any(tx.hash in tx_hashes for tx in entry[1])]

    def expire_stale(self, block_number: int) -> int:
        """Drop sequences submitted more than ``ttl_blocks`` ago.

        Entries are submit-ordered, so expiry only ever trims a prefix.
        Returns the number of sequences dropped.
        """
        if self.ttl_blocks is None or not self._pending:
            return 0
        cutoff = block_number - self.ttl_blocks
        pending = self._pending
        drop = 0
        while drop < len(pending) and pending[drop][0] < cutoff:
            drop += 1
        if drop:
            del pending[:drop]
            self.expired_count += drop
        return drop

    def prune_dead(self, nonce_of: Callable[[Address], int]) -> int:
        """Drop sequences no future block can ever include.

        Inclusion requires every transaction to pass the builder's exact
        nonce check (``tx.nonce == state.nonce(sender)`` at its position,
        i.e. the account nonce plus the count of earlier same-sender
        transactions in the sequence).  Account nonces only increase, so
        once ``tx.nonce`` falls *below* that value the sequence is dead
        forever: every later attempt fails validation before touching
        state, drawing no randomness and emitting nothing.  Removing
        such sequences is therefore unobservable in simulated output —
        it only stops the per-block rescan of a backlog that can never
        land.  Returns the number of sequences dropped.
        """
        if not self._pending:
            return 0
        alive: List[Tuple[int, PrivateSequence]] = []
        dropped = 0
        for entry in self._pending:
            offsets: Dict[Address, int] = {}
            dead = False
            for tx in entry[1]:
                earlier = offsets.get(tx.sender, 0)
                if tx.nonce < nonce_of(tx.sender) + earlier:
                    dead = True
                    break
                offsets[tx.sender] = earlier + 1
            if dead:
                dropped += 1
            else:
                alive.append(entry)
        if dropped:
            self._pending = alive
        return dropped

    def pending_count(self) -> int:
        return len(self._pending)


class PrivatePoolDirectory:
    """All private pools in a scenario, indexed for miner-side lookup."""

    def __init__(self) -> None:
        self._pools: Dict[str, PrivatePool] = {}

    def add(self, pool: PrivatePool) -> PrivatePool:
        if pool.name in self._pools:
            raise ValueError(f"pool {pool.name!r} already exists")
        self._pools[pool.name] = pool
        return pool

    def get(self, name: str) -> Optional[PrivatePool]:
        return self._pools.get(name)

    @property
    def pools(self) -> List[PrivatePool]:
        return list(self._pools.values())

    def pools_for_miner(self, miner: Address,
                        block_number: int) -> List[PrivatePool]:
        return [pool for pool in self._pools.values()
                if pool.has_miner(miner) and pool.is_active(block_number)]

    def pending_for_miner(self, miner: Address,
                          block_number: int) -> List[PrivateSequence]:
        """All private sequences available to ``miner`` right now."""
        sequences: List[PrivateSequence] = []
        seen: Set[str] = set()
        for pool in self.pools_for_miner(miner, block_number):
            for seq in pool.pending_for(miner, block_number):
                key = seq[0].hash
                if key not in seen:
                    seen.add(key)
                    sequences.append(seq)
        return sequences

    def mark_included(self, tx_hashes: Set[str]) -> None:
        for pool in self._pools.values():
            pool.mark_included(tx_hashes)

    def expire_stale(self, block_number: int) -> int:
        """Apply per-pool TTL expiry; returns total sequences dropped."""
        return sum(pool.expire_stale(block_number)
                   for pool in self._pools.values())

    def prune_dead(self, nonce_of: Callable[[Address], int]) -> int:
        """Drop provably-dead sequences from every pool (see
        :meth:`PrivatePool.prune_dead`)."""
        return sum(pool.prune_dead(nonce_of)
                   for pool in self._pools.values())
