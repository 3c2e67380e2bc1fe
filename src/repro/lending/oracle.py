"""On-chain price oracle with update history.

Prices are expressed in wei of (W)ETH per 10^18 smallest units of the
token, so ``value_in_eth`` stays in pure integer arithmetic.  The oracle
plays two roles from the paper:

* lending pools read it to decide loan health (Definition 3), and
* an oracle *update* is itself a transaction — the event that can flip a
  loan to unhealthy, which proactive liquidation searchers backrun.

The update history doubles as the reproduction's stand-in for the paper's
CoinGecko price lookups: analysis values token amounts in ETH at the price
prevailing in the block being analyzed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chain.events import OracleUpdateEvent
from repro.chain.execution import ExecutionContext, ExecutionOutcome, Revert
from repro.chain.gas import GAS_ORACLE_UPDATE
from repro.chain.transaction import TxIntent
from repro.chain.types import ETHER, Address, address_from_label

PRICE_SCALE = ETHER  # prices are per 10^18 raw token units


class PriceOracle:
    """Token → ETH price feed with full update history."""

    def __init__(self, name: str = "oracle") -> None:
        self.name = name
        self.address: Address = address_from_label(f"oracle:{name}")
        self._prices: Dict[str, int] = {"WETH": PRICE_SCALE}
        self._history: Dict[str, List[Tuple[int, int]]] = {
            "WETH": [(0, PRICE_SCALE)]}
        #: Monotonic change counter: bumped on every price write,
        #: including journal-undo rewrites.  Derived caches keyed on it
        #: can never serve stale data — a rolled-back price still moves
        #: the version forward, forcing a recompute.
        self.version = 0

    def set_price(self, token: str, price_wei: int,
                  block_number: int = 0) -> None:
        """Install a price (scenario setup or oracle-update intents)."""
        if price_wei <= 0:
            raise ValueError("price must be positive")
        self.version += 1
        self._prices[token] = price_wei
        self._history.setdefault(token, []).append((block_number,
                                                    price_wei))

    def price(self, token: str) -> int:
        """Current price in wei per 10^18 raw units; raises if unknown."""
        try:
            return self._prices[token]
        except KeyError:
            raise KeyError(f"oracle has no price for {token}")

    def has_price(self, token: str) -> bool:
        return token in self._prices

    def price_at(self, token: str, block_number: int) -> Optional[int]:
        """Price in force at ``block_number`` (last update ≤ block)."""
        history = self._history.get(token)
        if not history:
            return None
        blocks = [entry[0] for entry in history]
        index = bisect.bisect_right(blocks, block_number) - 1
        if index < 0:
            return None
        return history[index][1]

    def value_in_eth(self, token: str, amount: int) -> int:
        """Wei value of ``amount`` raw units of ``token`` at current price."""
        return amount * self.price(token) // PRICE_SCALE

    def value_in_eth_at(self, token: str, amount: int,
                        block_number: int) -> Optional[int]:
        price = self.price_at(token, block_number)
        if price is None:
            return None
        return amount * price // PRICE_SCALE


@dataclass(slots=True)
class OracleUpdateIntent(TxIntent):
    """A price-feed update transaction (the backrunnable trigger)."""

    oracle_address: Address
    token: str
    price_wei: int
    base_gas: int = GAS_ORACLE_UPDATE

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        oracle = ctx.contract(self.oracle_address)
        if self.price_wei <= 0:
            raise Revert("invalid oracle price")
        prior = oracle._prices.get(self.token)
        oracle.set_price(self.token, self.price_wei, ctx.block_number)

        def undo() -> None:
            history = oracle._history.get(self.token)
            if history and history[-1] == (ctx.block_number,
                                           self.price_wei):
                history.pop()
            oracle.version += 1
            if prior is None:
                oracle._prices.pop(self.token, None)
            else:
                oracle._prices[self.token] = prior

        ctx.state.record_undo(undo)
        ctx.emit(OracleUpdateEvent(address=oracle.address,
                                   token=self.token,
                                   price_wei=self.price_wei))
        return ExecutionOutcome(success=True, gas_used=self.base_gas)
