"""Blocks and the block builder.

The builder applies transactions against world state with mainnet-faithful
fee accounting (full gas price to the miner pre-London; base-fee burn plus
priority tip post-London) and supports *atomic sequences* — the primitive
Flashbots bundles need: either every transaction in the sequence is applied
in order, or none are.

State mutations stay journaled until :meth:`BlockBuilder.finalize`, so a
bundle can be rolled back even after its fee accounting has run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.chain.execution import execute_transaction
from repro.chain.gas import BLOCK_GAS_LIMIT, BLOCK_REWARD
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.chain.types import Address, Hash32, hash_of


@dataclass(slots=True)
class Block:
    """A mined block: header fields plus ordered transactions/receipts."""

    number: int
    timestamp: int
    miner: Address
    base_fee: int
    gas_limit: int
    transactions: List[Transaction] = field(default_factory=list)
    receipts: List[Receipt] = field(default_factory=list)
    gas_used: int = 0
    block_reward: int = BLOCK_REWARD
    #: hash of the parent block.  ``None`` means "not yet linked": the
    #: chain stamps it on append, after which it must match the tip.
    parent_hash: Optional[Hash32] = None
    _hash: Optional[Hash32] = field(default=None, repr=False,
                                    compare=False)

    @property
    def hash(self) -> Hash32:
        # Safe to memoize: a Block is only constructed at finalize time,
        # after which its header fields and transaction list are fixed.
        if self._hash is None:
            self._hash = hash_of(("block", self.number, self.miner,
                                  self.timestamp,
                                  len(self.transactions)))
        return self._hash

    @property
    def tx_hashes(self) -> List[Hash32]:
        return [tx.hash for tx in self.transactions]

    def miner_revenue(self) -> int:
        """Total wei the miner earned: reward + tips + coinbase transfers."""
        return self.block_reward + sum(r.total_miner_payment
                                       for r in self.receipts)


class BlockBuilder:
    """Applies transactions to world state and assembles a block.

    Parameters
    ----------
    burn_base_fee:
        True once the London fork is active; the base-fee portion of each
        fee is destroyed instead of paid to the miner.
    """

    def __init__(self, state, number: int, timestamp: int, coinbase: Address,
                 base_fee: int, contracts: Optional[Dict[Address, Any]] = None,
                 gas_limit: int = BLOCK_GAS_LIMIT,
                 burn_base_fee: bool = False) -> None:
        self.state = state
        self.number = number
        self.timestamp = timestamp
        self.coinbase = coinbase
        self.base_fee = base_fee if burn_base_fee else 0
        self.contracts = contracts or {}
        self.gas_limit = gas_limit
        self.burn_base_fee = burn_base_fee
        self.gas_used = 0
        self.transactions: List[Transaction] = []
        self.receipts: List[Receipt] = []
        self._log_index = 0
        self._finalized = False

    # Capacity -----------------------------------------------------------

    def gas_remaining(self) -> int:
        return self.gas_limit - self.gas_used

    def can_fit(self, tx: Transaction) -> bool:
        return tx.gas_limit <= self.gas_remaining()

    # Transaction application ---------------------------------------------

    def validate(self, tx: Transaction) -> Optional[str]:
        """Pre-inclusion validity check; returns a reason string or None."""
        if self._finalized:
            return "block already finalized"
        if not self.can_fit(tx):
            return "block gas limit exceeded"
        if tx.nonce != self.state.nonce(tx.sender):
            return (f"nonce mismatch: tx has {tx.nonce}, "
                    f"account at {self.state.nonce(tx.sender)}")
        if not tx.is_includable(self.base_fee):
            return "fee bid below base fee"
        effective = tx.effective_gas_price(self.base_fee)
        upfront = tx.value + tx.gas_limit * effective
        if self.state.eth_balance(tx.sender) < upfront:
            return "insufficient balance for upfront cost"
        return None

    def apply_transaction(self, tx: Transaction) -> Optional[Receipt]:
        """Apply one transaction; returns its receipt, or None if invalid.

        Invalid transactions (bad nonce, underfunded, over the gas limit)
        are skipped without touching state, as a real miner would drop them.
        """
        if self.validate(tx) is not None:
            return None
        return self._apply_unchecked(tx)

    def _apply_unchecked(self, tx: Transaction) -> Receipt:
        effective = tx.effective_gas_price(self.base_fee)
        tip_per_gas = tx.miner_tip_per_gas(self.base_fee)

        # Charge the full gas limit upfront (refund the unused part after),
        # so intents cannot spend the fee money mid-execution.
        self.state.debit_eth(tx.sender, tx.gas_limit * effective)
        self.state.bump_nonce(tx.sender)

        outcome = execute_transaction(self.state, tx, self.number,
                                      self.coinbase, self.contracts)
        gas_used = min(outcome.gas_used, tx.gas_limit)
        refund = (tx.gas_limit - gas_used) * effective
        if refund:
            self.state.credit_eth(tx.sender, refund)
        miner_take = gas_used * tip_per_gas
        if miner_take:
            self.state.credit_eth(self.coinbase, miner_take)
        # The base-fee portion (gas_used * base_fee) is burned: debited from
        # the sender above and credited to no one.

        tx_index = len(self.transactions)
        for log in outcome.logs:
            log.stamp(self.number, tx.hash, tx_index, self._log_index)
            self._log_index += 1

        receipt = Receipt(
            tx_hash=tx.hash,
            block_number=self.number,
            tx_index=tx_index,
            sender=tx.sender,
            to=tx.to,
            status=outcome.success,
            gas_used=gas_used,
            effective_gas_price=effective,
            miner_tip_per_gas=tip_per_gas,
            coinbase_transfer=outcome.coinbase_transfer,
            logs=outcome.logs,
            error=outcome.error,
        )
        self.transactions.append(tx)
        self.receipts.append(receipt)
        self.gas_used += gas_used
        return receipt

    def apply_atomic_sequence(self, txs: Sequence[Transaction],
                              require_success: bool = True,
                              ) -> Optional[List[Receipt]]:
        """Apply ``txs`` in order, all-or-nothing.

        If any transaction is invalid — or reverts, when ``require_success``
        is set (the Flashbots bundle rule) — every state change, fee payment
        and receipt from the sequence is rolled back and None is returned.
        """
        snapshot = self.state.snapshot()
        saved = (len(self.transactions), self.gas_used, self._log_index)
        receipts: List[Receipt] = []
        for tx in txs:
            receipt = self.apply_transaction(tx)
            if receipt is None or (require_success and not receipt.status):
                self.state.revert_to(snapshot)
                n_txs, gas_used, log_index = saved
                del self.transactions[n_txs:]
                del self.receipts[n_txs:]
                self.gas_used = gas_used
                self._log_index = log_index
                return None
            receipts.append(receipt)
        return receipts

    def simulate_sequence(self, txs: Sequence[Transaction],
                          require_success: bool = True,
                          ) -> Optional[List[Receipt]]:
        """Dry-run an atomic sequence and roll it back unconditionally.

        Returns the receipts the sequence *would* produce (None if it would
        fail) while leaving builder and state untouched.  This is how a
        MEV-geth miner scores candidate bundles before committing.
        """
        snapshot = self.state.snapshot()
        saved = (len(self.transactions), self.gas_used, self._log_index)
        receipts = self.apply_atomic_sequence(txs, require_success)
        self.state.revert_to(snapshot)
        n_txs, gas_used, log_index = saved
        del self.transactions[n_txs:]
        del self.receipts[n_txs:]
        self.gas_used = gas_used
        self._log_index = log_index
        return receipts

    # Finalization ---------------------------------------------------------

    def finalize(self) -> Block:
        """Pay the block reward, commit state, and return the block."""
        if self._finalized:
            raise RuntimeError("block already finalized")
        self.state.credit_eth(self.coinbase, BLOCK_REWARD)
        self.state.commit()
        self._finalized = True
        return Block(
            number=self.number,
            timestamp=self.timestamp,
            miner=self.coinbase,
            base_fee=self.base_fee,
            gas_limit=self.gas_limit,
            transactions=self.transactions,
            receipts=self.receipts,
            gas_used=self.gas_used,
        )
