"""Flash-loan provider (Aave/dYdX-style).

A flash loan lends any amount with zero collateral because repayment is
enforced *within the same transaction*: the wrapper intent lends, runs the
inner intent, then collects principal plus fee — and if anything fails,
the transaction's revert semantics undo the lending itself.  The
``FlashLoanEvent`` is only emitted on successful repayment, which is the
exact anchor Wang et al.'s detection (and ours) keys on.

Structurally, a flash loan spans one transaction, which is why the paper's
Table 1 shows zero flash-loan sandwiches: a sandwich needs two separate
transactions around a victim, so neither leg can hold a flash loan across
the victim's execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chain.events import FlashLoanEvent
from repro.chain.execution import ExecutionContext, ExecutionOutcome, Revert
from repro.chain.gas import GAS_FLASH_LOAN_OVERHEAD
from repro.chain.state import InsufficientBalance, WorldState
from repro.chain.transaction import TxIntent
from repro.chain.types import Address, address_from_label

#: Aave V1's flash-loan fee: 9 bps.
DEFAULT_FLASH_FEE_BPS = 9
BPS = 10_000


class FlashLoanProvider:
    """A pool of flash-lendable liquidity."""

    def __init__(self, platform: str,
                 fee_bps: int = DEFAULT_FLASH_FEE_BPS) -> None:
        if not 0 <= fee_bps < BPS:
            raise ValueError("fee out of range")
        self.platform = platform
        self.fee_bps = fee_bps
        self.address: Address = address_from_label(f"flash:{platform}")

    def provision(self, state: WorldState, token: str, amount: int) -> None:
        """Seed lendable liquidity."""
        state.mint_token(token, self.address, amount)

    def available(self, state: WorldState, token: str) -> int:
        return state.token_balance(token, self.address)

    def fee_for(self, amount: int) -> int:
        return amount * self.fee_bps // BPS


@dataclass(slots=True)
class FlashLoanIntent(TxIntent):
    """Borrow, run an inner intent, repay with fee — atomically.

    The borrower ends the transaction having paid only the fee (plus gas),
    no matter how large the principal: exactly the capital amplifier MEV
    extractors use for arbitrage and liquidations (paper Section 2.3).
    """

    provider_address: Address
    token: str
    amount: int
    inner: Optional[TxIntent] = None

    def gas_estimate(self) -> int:
        inner_gas = self.inner.gas_estimate() if self.inner else 0
        return GAS_FLASH_LOAN_OVERHEAD + inner_gas

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        if self.amount <= 0:
            raise Revert("flash loan amount must be positive")
        provider = ctx.contract(self.provider_address)
        borrower = ctx.tx.sender
        try:
            ctx.state.transfer_token(self.token, provider.address,
                                     borrower, self.amount)
        except InsufficientBalance:
            raise Revert("flash loan liquidity exhausted")
        inner_result = None
        if self.inner is not None:
            inner_result = self.inner.execute(ctx)
        fee = provider.fee_for(self.amount)
        try:
            ctx.state.transfer_token(self.token, borrower,
                                     provider.address, self.amount + fee)
        except InsufficientBalance:
            raise Revert("flash loan not repaid")
        ctx.emit(FlashLoanEvent(address=provider.address,
                                platform=provider.platform,
                                initiator=borrower, token=self.token,
                                amount=self.amount, fee=fee))
        return ExecutionOutcome(success=True,
                                gas_used=self.gas_estimate(),
                                return_data=inner_result)
