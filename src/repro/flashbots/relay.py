"""The Flashbots relay: gatekeeper between searchers and miners.

The real system runs a single relay (operated by the Flashbots project)
whose roles are DoS protection for miners, access control (searchers and
miners apply to join), and enforcement of the no-tampering rule: a miner
caught modifying a bundle is permanently banned (paper Section 2.5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.chain.types import Address, Hash32
from repro.flashbots.bundle import Bundle


class Relay:
    """A single-relay Flashbots network model."""

    def __init__(self, name: str = "flashbots-relay",
                 max_bundles_per_searcher_per_block: int = 5) -> None:
        self.name = name
        self.max_bundles_per_searcher_per_block = \
            max_bundles_per_searcher_per_block
        # Dicts used as insertion-ordered sets, so sealed worlds pickle
        # to the same bytes under any hash seed.
        self._searchers: Dict[Address, None] = {}
        self._miners: Dict[Address, None] = {}
        self._banned: Dict[Address, None] = {}
        self._pending: Dict[int, List[Bundle]] = {}
        self.rejected_count = 0

    # Registration (the Flashbots web-portal application step) -------------

    def register_searcher(self, searcher: Address) -> None:
        if searcher in self._banned:
            raise PermissionError(f"{searcher} is banned from Flashbots")
        self._searchers[searcher] = None

    def register_miner(self, miner: Address) -> None:
        if miner in self._banned:
            raise PermissionError(f"{miner} is banned from Flashbots")
        self._miners[miner] = None

    def is_searcher(self, addr: Address) -> bool:
        return addr in self._searchers and addr not in self._banned

    def is_miner(self, addr: Address) -> bool:
        return addr in self._miners and addr not in self._banned

    @property
    def miners(self) -> Set[Address]:
        return {m for m in self._miners if m not in self._banned}

    # Banning ---------------------------------------------------------------

    def ban(self, addr: Address, reason: str = "equivocation") -> None:
        """Permanent ban (miners that tamper with bundles, abusive
        searchers).  The address stays registered but loses access."""
        self._banned[addr] = None

    def is_banned(self, addr: Address) -> bool:
        return addr in self._banned

    def report_equivocation(self, miner: Address) -> None:
        """A bundle was included in modified form → permanent miner ban."""
        self.ban(miner, reason="bundle equivocation")

    # Bundle flow -------------------------------------------------------------

    def submit(self, bundle: Bundle, current_block: int) -> bool:
        """Accept a bundle for a future block; False if rejected.

        Rejection reasons mirror the real relay: unregistered or banned
        searcher, stale target block, or per-searcher rate limiting (the
        DoS-protection role).
        """
        if not self.is_searcher(bundle.searcher):
            self.rejected_count += 1
            return False
        if bundle.target_block <= current_block:
            self.rejected_count += 1
            return False
        queue = self._pending.setdefault(bundle.target_block, [])
        from_searcher = sum(1 for b in queue
                            if b.searcher == bundle.searcher)
        if from_searcher >= self.max_bundles_per_searcher_per_block:
            self.rejected_count += 1
            return False
        queue.append(bundle)
        return True

    def bundles_for_block(self, block_number: int,
                          miner: Optional[Address] = None) -> List[Bundle]:
        """Bundles a participating miner may consider for ``block_number``."""
        if miner is not None and not self.is_miner(miner):
            return []
        return list(self._pending.get(block_number, []))

    def pending_count(self) -> int:
        return sum(len(q) for q in self._pending.values())

    def expire_before(self, block_number: int) -> int:
        """Drop bundles whose target block has passed; returns count."""
        stale = [b for b in self._pending if b < block_number]
        dropped = 0
        for block in stale:
            dropped += len(self._pending.pop(block))
        return dropped

    def mark_included(self, block_number: int,
                      bundle_ids: Set[Hash32]) -> None:
        """Remove bundles that made it on chain."""
        queue = self._pending.get(block_number)
        if not queue:
            return
        self._pending[block_number] = [
            b for b in queue if b.bundle_id not in bundle_ids]
