"""Transaction receipts: the on-chain record the measurement layer reads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chain.events import EventLog
from repro.chain.types import Address, Hash32


@dataclass(slots=True)
class Receipt:
    """Execution record for one included transaction.

    Mirrors the fields the paper's scripts pull from an archive node:
    status, gas accounting, logs, and — crucially for Flashbots profit
    accounting — any direct coinbase transfer made inside the transaction.
    """

    tx_hash: Hash32
    block_number: int
    tx_index: int
    sender: Address
    to: Optional[Address]
    status: bool
    gas_used: int
    effective_gas_price: int
    miner_tip_per_gas: int
    coinbase_transfer: int
    logs: List[EventLog] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def total_fee(self) -> int:
        """Wei the sender paid in gas fees."""
        return self.gas_used * self.effective_gas_price

    @property
    def miner_fee(self) -> int:
        """Wei the miner received from gas (excludes coinbase transfers)."""
        return self.gas_used * self.miner_tip_per_gas

    @property
    def burned_fee(self) -> int:
        """Wei burned as base fee (zero before the London fork)."""
        return self.total_fee - self.miner_fee

    @property
    def total_miner_payment(self) -> int:
        """Everything the miner earned from this transaction."""
        return self.miner_fee + self.coinbase_transfer
