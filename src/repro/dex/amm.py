"""Constant-product AMM pools (Uniswap-V2 exact integer math).

The pool's reserves are its token balances in world state, so swaps through
the pool are ordinary journaled state mutations and revert cleanly with the
enclosing transaction.  Fees stay in the pool (as on mainnet), which is what
makes sandwich frontrunning *actually* profitable in this simulator rather
than something we merely label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.chain.events import SwapEvent, SyncEvent
from repro.chain.execution import ExecutionContext, Revert
from repro.chain.state import WorldState
from repro.chain.types import Address, address_from_label

#: Uniswap-V2 fee: 30 bps, expressed over a 10_000 denominator.
DEFAULT_FEE_BPS = 30
FEE_DENOMINATOR = 10_000


def get_amount_out(amount_in: int, reserve_in: int, reserve_out: int,
                   fee_bps: int = DEFAULT_FEE_BPS) -> int:
    """Uniswap-V2 ``getAmountOut``: output for an exact input.

    Integer math identical to the mainnet contract:
    ``out = in*(1-fee)*R_out / (R_in + in*(1-fee))`` with floor division.
    """
    if amount_in <= 0:
        raise ValueError("amount_in must be positive")
    if reserve_in <= 0 or reserve_out <= 0:
        raise ValueError("pool has no liquidity")
    amount_in_with_fee = amount_in * (FEE_DENOMINATOR - fee_bps)
    numerator = amount_in_with_fee * reserve_out
    denominator = reserve_in * FEE_DENOMINATOR + amount_in_with_fee
    return numerator // denominator


def get_amount_in(amount_out: int, reserve_in: int, reserve_out: int,
                  fee_bps: int = DEFAULT_FEE_BPS) -> int:
    """Uniswap-V2 ``getAmountIn``: minimum input for an exact output."""
    if amount_out <= 0:
        raise ValueError("amount_out must be positive")
    if amount_out >= reserve_out:
        raise ValueError("amount_out exceeds reserves")
    numerator = reserve_in * amount_out * FEE_DENOMINATOR
    denominator = (reserve_out - amount_out) * (FEE_DENOMINATOR - fee_bps)
    return numerator // denominator + 1


@dataclass
class ConstantProductPool:
    """A two-token constant-product pool on a named venue."""

    venue: str
    token0: str
    token1: str
    fee_bps: int = DEFAULT_FEE_BPS

    def __post_init__(self) -> None:
        if self.token0 == self.token1:
            raise ValueError("pool tokens must differ")
        if not 0 <= self.fee_bps < FEE_DENOMINATOR:
            raise ValueError("fee out of range")
        # Canonical token ordering keeps pair lookups deterministic.
        if self.token0 > self.token1:
            self.token0, self.token1 = self.token1, self.token0
        self.address: Address = address_from_label(
            f"pool:{self.venue}:{self.token0}/{self.token1}:{self.fee_bps}")
        self._ledger_cache: Optional[Tuple[WorldState, dict, dict]] = None

    # Reserve access ---------------------------------------------------------

    def _ledgers(self, state: WorldState) -> Tuple[dict, dict]:
        """The two token ledgers, cached per state (reserve reads are the
        hottest loop in the simulator and a token's ledger dict is never
        replaced once created — see ``WorldState.token_ledger``)."""
        cached = self._ledger_cache
        if cached is not None and cached[0] is state:
            return cached[1], cached[2]
        ledger0 = state.token_ledger(self.token0)
        ledger1 = state.token_ledger(self.token1)
        self._ledger_cache = (state, ledger0, ledger1)
        return ledger0, ledger1

    def reserves(self, state: WorldState) -> Tuple[int, int]:
        ledger0, ledger1 = self._ledgers(state)
        addr = self.address
        return (ledger0.get(addr, 0), ledger1.get(addr, 0))

    def reserve_of(self, state: WorldState, token: str) -> int:
        ledger0, ledger1 = self._ledgers(state)
        if token == self.token0:
            return ledger0.get(self.address, 0)
        if token == self.token1:
            return ledger1.get(self.address, 0)
        self._require_member(token)
        raise AssertionError("unreachable")

    def other(self, token: str) -> str:
        self._require_member(token)
        return self.token1 if token == self.token0 else self.token0

    def has_token(self, token: str) -> bool:
        # Explicit comparisons: no per-call tuple allocation (this sits
        # under every reserve read the searchers make).
        return token == self.token0 or token == self.token1

    def _require_member(self, token: str) -> None:
        if not self.has_token(token):
            raise ValueError(f"{token} is not in pool "
                             f"{self.token0}/{self.token1}")

    # Liquidity provisioning ---------------------------------------------------

    def add_liquidity(self, state: WorldState, **amounts: int) -> None:
        """Mint reserves directly into the pool (scenario setup).

        Amounts are keyed by token symbol — ``add_liquidity(state,
        WETH=x, DAI=y)`` — so callers never depend on canonical ordering.
        """
        for token, amount in amounts.items():
            self._require_member(token)
            if amount < 0:
                raise ValueError("liquidity amounts cannot be negative")
            state.mint_token(token, self.address, amount)

    # Pricing -----------------------------------------------------------------

    def quote_out(self, state: WorldState, token_in: str,
                  amount_in: int) -> int:
        """Output of swapping ``amount_in`` of ``token_in`` right now."""
        token_out = self.other(token_in)
        return get_amount_out(amount_in,
                              self.reserve_of(state, token_in),
                              self.reserve_of(state, token_out),
                              self.fee_bps)

    def spot_price(self, state: WorldState, token: str) -> float:
        """Marginal price of ``token`` denominated in the other token."""
        other = self.other(token)
        reserve_token = self.reserve_of(state, token)
        if reserve_token == 0:
            raise ValueError("pool has no liquidity")
        return self.reserve_of(state, other) / reserve_token

    # Swapping -----------------------------------------------------------------

    def swap(self, ctx: ExecutionContext, token_in: str, amount_in: int,
             recipient: Address, min_amount_out: int = 0) -> int:
        """Execute a swap inside a transaction; returns the output amount.

        Reverts on insufficient output (the victim's slippage protection),
        which is precisely the state change sandwichers push their victims
        toward — and the cap on how much a sandwich can extract.
        """
        token_out = self.other(token_in)
        try:
            amount_out = self.quote_out(ctx.state, token_in, amount_in)
        except (ValueError, ArithmeticError) as exc:
            raise Revert(str(exc))
        if amount_out <= 0:
            raise Revert("insufficient output amount")
        if amount_out < min_amount_out:
            raise Revert("slippage limit exceeded")
        taker = ctx.tx.sender
        ctx.state.transfer_token(token_in, taker, self.address, amount_in)
        ctx.state.transfer_token(token_out, self.address, recipient,
                                 amount_out)
        ctx.emit(SwapEvent(address=self.address, venue=self.venue,
                           taker=taker, recipient=recipient,
                           token_in=token_in, token_out=token_out,
                           amount_in=amount_in, amount_out=amount_out))
        reserve0, reserve1 = self.reserves(ctx.state)
        ctx.emit(SyncEvent(address=self.address, token0=self.token0,
                           token1=self.token1, reserve0=reserve0,
                           reserve1=reserve1))
        return amount_out
