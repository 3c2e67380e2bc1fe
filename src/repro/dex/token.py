"""Token definitions for the simulated DeFi ecosystem.

Tokens are identified by symbol strings; balances live in the chain's
:class:`~repro.chain.state.WorldState`.  ``WETH`` is the numéraire: profit
accounting values everything in (W)ETH, standing in for the paper's use of
CoinGecko to convert token gains to ether.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

WETH = "WETH"


@dataclass(frozen=True)
class Token:
    """An ERC-20-style token."""

    symbol: str
    decimals: int = 18
    name: str = ""

    @property
    def unit(self) -> int:
        """Smallest-unit multiplier (10 ** decimals)."""
        return 10 ** self.decimals

    def amount(self, human: float) -> int:
        """Convert a human-readable quantity to smallest units."""
        return int(round(human * self.unit))

    def human(self, raw: int) -> float:
        """Convert smallest units to a human-readable quantity."""
        return raw / self.unit


#: The default token universe used by scenarios and examples.
DEFAULT_TOKENS: Dict[str, Token] = {
    token.symbol: token
    for token in (
        Token(WETH, 18, "Wrapped Ether"),
        Token("DAI", 18, "Dai Stablecoin"),
        Token("USDC", 6, "USD Coin"),
        Token("USDT", 6, "Tether USD"),
        Token("WBTC", 8, "Wrapped Bitcoin"),
        Token("LINK", 18, "Chainlink"),
        Token("UNI", 18, "Uniswap"),
        Token("SUSHI", 18, "SushiToken"),
        Token("AAVE", 18, "Aave Token"),
        Token("MKR", 18, "Maker"),
    )
}
