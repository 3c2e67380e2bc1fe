"""Basic transaction intents that need no DeFi substrate.

Higher-level intents (swaps, liquidations, flash loans) live next to the
contracts they call; these are the plain building blocks: ERC-20 transfers
and explicit coinbase tips.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.events import TransferEvent
from repro.chain.execution import ExecutionContext, ExecutionOutcome, Revert
from repro.chain.gas import GAS_TOKEN_TRANSFER
from repro.chain.transaction import TxIntent
from repro.chain.types import Address


@dataclass(slots=True)
class TokenTransferIntent(TxIntent):
    """Transfer ``amount`` of ``token`` from the tx sender to ``recipient``."""

    token: str
    recipient: Address
    amount: int
    base_gas: int = GAS_TOKEN_TRANSFER

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        if self.amount <= 0:
            raise Revert("transfer amount must be positive")
        ctx.state.transfer_token(self.token, ctx.tx.sender,
                                 self.recipient, self.amount)
        ctx.emit(TransferEvent(address=ctx.tx.to or ctx.tx.sender,
                               token=self.token, sender=ctx.tx.sender,
                               recipient=self.recipient, amount=self.amount))
        return ExecutionOutcome(success=True, gas_used=self.base_gas)


@dataclass(slots=True)
class CoinbaseTipIntent(TxIntent):
    """Pay the block's miner directly (a Flashbots-style tip transaction)."""

    tip: int
    base_gas: int = 21_000

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        ctx.pay_coinbase(self.tip)
        return ExecutionOutcome(success=True, gas_used=self.base_gas)


@dataclass(slots=True)
class SequenceIntent(TxIntent):
    """Run several intents in order within one transaction.

    Any member reverting reverts the whole transaction — the composition
    primitive behind flash-loan strategies (borrow → act → unwind)."""

    intents: list

    def gas_estimate(self) -> int:
        return max(21_000, sum(i.gas_estimate() for i in self.intents))

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        if not self.intents:
            raise Revert("empty sequence")
        result = None
        for intent in self.intents:
            result = intent.execute(ctx)
        return ExecutionOutcome(success=True,
                                gas_used=self.gas_estimate(),
                                return_data=result)


@dataclass(slots=True)
class FailingIntent(TxIntent):
    """An intent that always reverts — used for failure-injection tests and
    for modelling the faulty searcher contracts behind Section 5.2."""

    reason: str = "faulty contract"
    base_gas: int = 100_000

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        raise Revert(self.reason)
