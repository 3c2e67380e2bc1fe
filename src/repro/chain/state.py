"""World state: ETH balances, token ledgers, nonces — with journaling.

Reverts (failed intents, unpaid flash loans) must roll back *all* state
mutations made inside a transaction, exactly like the EVM.  Every mutation
goes through a method here that records an undo entry in a journal; a
snapshot is just a journal length, and reverting replays undos back to it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

#: A journal entry is either an external undo callback or, for the hot
#: internal ledgers, a ``(mapping, key, prior_value)`` triple replayed as
#: ``mapping[key] = prior_value`` — same restore semantics as the closure
#: it replaces, without allocating a closure per mutation.
JournalEntry = Union[Callable[[], None], Tuple[dict, object, int]]

from repro.chain.types import Address


class InsufficientBalance(Exception):
    """Raised when a transfer or debit exceeds the holder's balance."""


class WorldState:
    """Mutable account/token state with snapshot-revert support."""

    def __init__(self) -> None:
        self._eth: Dict[Address, int] = {}
        self._tokens: Dict[str, Dict[Address, int]] = {}
        self._nonces: Dict[Address, int] = {}
        self._journal: List[JournalEntry] = []

    # ETH ----------------------------------------------------------------

    def eth_balance(self, addr: Address) -> int:
        return self._eth.get(addr, 0)

    def set_eth_balance(self, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("balance cannot be negative")
        eth = self._eth
        self._journal.append((eth, addr, eth.get(addr, 0)))
        eth[addr] = amount

    def credit_eth(self, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("credit amount cannot be negative")
        self.set_eth_balance(addr, self.eth_balance(addr) + amount)

    def debit_eth(self, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("debit amount cannot be negative")
        balance = self.eth_balance(addr)
        if balance < amount:
            raise InsufficientBalance(
                f"{addr} holds {balance} wei, cannot debit {amount}")
        self.set_eth_balance(addr, balance - amount)

    def transfer_eth(self, sender: Address, recipient: Address,
                     amount: int) -> None:
        # Fused debit+credit: same checks, same two journal entries, half
        # the balance lookups (this runs for every fee/tip settlement).
        if amount < 0:
            raise ValueError("debit amount cannot be negative")
        eth = self._eth
        sender_balance = eth.get(sender, 0)
        if sender_balance < amount:
            raise InsufficientBalance(
                f"{sender} holds {sender_balance} wei, "
                f"cannot debit {amount}")
        journal = self._journal
        journal.append((eth, sender, sender_balance))
        eth[sender] = sender_balance - amount
        recipient_balance = eth.get(recipient, 0)
        journal.append((eth, recipient, recipient_balance))
        eth[recipient] = recipient_balance + amount

    # Tokens ---------------------------------------------------------------

    def token_balance(self, token: str, addr: Address) -> int:
        # Two-step lookup: the one-liner ``.get(token, {})`` allocates
        # a fresh empty dict on every call, and this is the single
        # most-called function in the simulator.
        ledger = self._tokens.get(token)
        if ledger is None:
            return 0
        return ledger.get(addr, 0)

    def token_ledger(self, token: str) -> Dict[Address, int]:
        """The live balance mapping for ``token`` (created on first use).

        The returned dict is the ledger itself and stays the same object
        for the lifetime of this state — mutations and journal undos
        write into it in place, never replace it — so hot readers (pool
        reserve lookups) may hold a reference instead of re-resolving
        ``token`` per call.  Callers must treat it as read-only; all
        writes go through the journaled mutators.
        """
        ledger = self._tokens.get(token)
        if ledger is None:
            ledger = self._tokens[token] = {}
        return ledger

    def _set_token_balance(self, token: str, addr: Address,
                           amount: int) -> None:
        if amount < 0:
            raise ValueError("token balance cannot be negative")
        tokens = self._tokens
        ledger = tokens.get(token)
        if ledger is None:  # setdefault would allocate a dict per call
            ledger = tokens[token] = {}
        self._journal.append((ledger, addr, ledger.get(addr, 0)))
        ledger[addr] = amount

    def mint_token(self, token: str, addr: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("mint amount cannot be negative")
        self._set_token_balance(token, addr,
                                self.token_balance(token, addr) + amount)

    def transfer_token(self, token: str, sender: Address,
                       recipient: Address, amount: int) -> None:
        # Fused burn+mint (every swap leg lands here): identical checks,
        # identical journal entries, one ledger lookup instead of four.
        if amount < 0:
            raise ValueError("transfer amount cannot be negative")
        tokens = self._tokens
        ledger = tokens.get(token)
        sender_balance = 0 if ledger is None else ledger.get(sender, 0)
        if sender_balance < amount:
            raise InsufficientBalance(
                f"{sender} holds {sender_balance} {token}, "
                f"cannot burn {amount}")
        if ledger is None:
            ledger = tokens[token] = {}
        journal = self._journal
        journal.append((ledger, sender, sender_balance))
        ledger[sender] = sender_balance - amount
        recipient_balance = ledger.get(recipient, 0)
        journal.append((ledger, recipient, recipient_balance))
        ledger[recipient] = recipient_balance + amount

    def token_supply(self, token: str) -> int:
        """Total of all balances of ``token`` (conservation checks)."""
        return sum(self._tokens.get(token, {}).values())

    # Nonces ---------------------------------------------------------------

    def nonce(self, addr: Address) -> int:
        return self._nonces.get(addr, 0)

    def bump_nonce(self, addr: Address) -> int:
        """Increment and return the previous nonce (the one just consumed)."""
        nonces = self._nonces
        previous = nonces.get(addr, 0)
        self._journal.append((nonces, addr, previous))
        nonces[addr] = previous + 1
        return previous

    # Journaling -----------------------------------------------------------

    def record_undo(self, undo: Callable[[], None]) -> None:
        """Register external bookkeeping to roll back on revert.

        Contracts that keep state outside the ledgers (e.g. a lending
        pool's loan book) must register undo callbacks here so transaction
        and bundle rollbacks restore them too.
        """
        self._journal.append(undo)

    def snapshot(self) -> int:
        """Capture a revert point; cheap (journal length)."""
        return len(self._journal)

    def revert_to(self, snapshot_id: int) -> None:
        """Undo every mutation made after ``snapshot_id`` was captured."""
        if snapshot_id < 0 or snapshot_id > len(self._journal):
            raise ValueError(f"invalid snapshot id: {snapshot_id}")
        journal = self._journal
        while len(journal) > snapshot_id:
            entry = journal.pop()
            if type(entry) is tuple:
                mapping, key, prior = entry
                mapping[key] = prior
            else:
                entry()

    def commit(self) -> None:
        """Discard undo history (end of block); snapshots become invalid."""
        self._journal.clear()
