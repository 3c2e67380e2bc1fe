"""Swap intents: the executable payloads of trading transactions.

These are what traders (victims), sandwichers and arbitrageurs put inside
their transactions.  Each intent resolves pool addresses through the
execution context's contract map, so the same intent object can be simulated
against a scratch state and later executed for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.chain.execution import ExecutionContext, ExecutionOutcome, Revert
from repro.chain.gas import GAS_SWAP
from repro.chain.transaction import TxIntent
from repro.chain.types import Address


@dataclass(slots=True)
class SwapIntent(TxIntent):
    """Swap an exact input on a single pool with slippage protection."""

    pool_address: Address
    token_in: str
    amount_in: int
    min_amount_out: int = 0
    recipient: Optional[Address] = None
    coinbase_tip: int = 0
    base_gas: int = GAS_SWAP

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        if self.amount_in <= 0:
            raise Revert("swap input must be positive")
        pool = ctx.contract(self.pool_address)
        recipient = self.recipient or ctx.tx.sender
        amount_out = pool.swap(ctx, self.token_in, self.amount_in,
                               recipient, self.min_amount_out)
        if self.coinbase_tip:
            ctx.pay_coinbase(self.coinbase_tip)
        return ExecutionOutcome(success=True, gas_used=self.base_gas,
                                return_data=amount_out)


@dataclass(slots=True)
class ArbitrageIntent(TxIntent):
    """A closed-cycle trade: start and end in the same token, atomically.

    ``route`` must bring the trade back to ``token_in``; the intent reverts
    unless the surplus covers ``min_profit``, so an arbitrage that a
    competitor frontran simply fails instead of taking a loss (the standard
    on-chain arb-contract guard).
    """

    route: List[Address]
    token_in: str
    amount_in: int
    min_profit: int = 1
    coinbase_tip: int = 0

    def gas_estimate(self) -> int:
        return GAS_SWAP * max(1, len(self.route))

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        if len(self.route) < 2:
            raise Revert("arbitrage needs at least two hops")
        if self.amount_in <= 0:
            raise Revert("arbitrage input must be positive")
        token = self.token_in
        amount = self.amount_in
        for pool_address in self.route:
            pool = ctx.contract(pool_address)
            amount = pool.swap(ctx, token, amount, ctx.tx.sender, 0)
            token = pool.other(token)
        if token != self.token_in:
            raise Revert("route does not close the cycle")
        profit = amount - self.amount_in
        if profit < self.min_profit:
            raise Revert("arbitrage no longer profitable")
        if self.coinbase_tip:
            ctx.pay_coinbase(self.coinbase_tip)
        return ExecutionOutcome(success=True,
                                gas_used=self.gas_estimate(),
                                return_data=profit)


@dataclass(slots=True)
class SwapAllIntent(TxIntent):
    """Swap the sender's *entire current balance* of ``token_in``.

    The amount is resolved at execution time, which is what flash-loan
    liquidations need: the collateral seized a moment earlier (unknown when
    the transaction was crafted) is converted back to the debt token so the
    loan can be repaid.
    """

    pool_address: Address
    token_in: str
    min_amount_out: int = 0
    base_gas: int = GAS_SWAP

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        pool = ctx.contract(self.pool_address)
        amount_in = ctx.state.token_balance(self.token_in, ctx.tx.sender)
        if amount_in <= 0:
            raise Revert("no balance to swap")
        amount_out = pool.swap(ctx, self.token_in, amount_in,
                               ctx.tx.sender, self.min_amount_out)
        return ExecutionOutcome(success=True, gas_used=self.base_gas,
                                return_data=amount_out)

