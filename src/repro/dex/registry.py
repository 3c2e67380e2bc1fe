"""Exchange registry: the simulated venue universe.

The paper's heuristics are venue-aware (its sandwich script covers Bancor,
SushiSwap and Uniswap V1–V3; its arbitrage script adds 0x, Balancer and
Curve).  The registry records which venue each pool address belongs to so
the measurement layer can report per-venue coverage, and gives searchers a
single lookup surface for cross-venue price comparisons.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chain.state import WorldState
from repro.chain.types import Address
from repro.dex.amm import ConstantProductPool, Pool
from repro.dex.stableswap import StableSwapPool
from repro.dex.weighted import WeightedPool

# Venue names used across the codebase (match the paper's exchange lists).
UNISWAP_V1 = "UniswapV1"
UNISWAP_V2 = "UniswapV2"
UNISWAP_V3 = "UniswapV3"
SUSHISWAP = "SushiSwap"
BANCOR = "Bancor"
BALANCER = "Balancer"
CURVE = "Curve"
ZEROX = "0x"

#: Venues the sandwich heuristic covers (paper Section 3.1.1).
SANDWICH_VENUES = (BANCOR, SUSHISWAP, "UniswapV1", UNISWAP_V2,
                   UNISWAP_V3)

#: Venues the arbitrage heuristic covers (paper Section 3.1.2).
ARBITRAGE_VENUES = (ZEROX, BALANCER, BANCOR, CURVE, SUSHISWAP,
                    UNISWAP_V2, UNISWAP_V3)

#: Default per-venue fee tiers in bps for constant-product venues.
VENUE_FEE_BPS = {
    UNISWAP_V1: 30,
    UNISWAP_V2: 30,
    UNISWAP_V3: 30,
    SUSHISWAP: 30,
    BANCOR: 20,
    BALANCER: 25,
    ZEROX: 15,
}


class ExchangeRegistry:
    """All deployed pools, indexed by address, pair and venue."""

    def __init__(self) -> None:
        self._by_address: Dict[Address, Pool] = {}
        self._by_pair: Dict[Tuple[str, str], List[Pool]] = {}

    @staticmethod
    def _pair_key(token_a: str, token_b: str) -> Tuple[str, str]:
        return (token_a, token_b) if token_a < token_b else (token_b, token_a)

    def add_pool(self, pool: Pool) -> Pool:
        if pool.address in self._by_address:
            raise ValueError(f"pool already registered at {pool.address}")
        self._by_address[pool.address] = pool
        key = self._pair_key(pool.token0, pool.token1)
        self._by_pair.setdefault(key, []).append(pool)
        return pool

    def create_pool(self, venue: str, token_a: str, token_b: str,
                    fee_bps: Optional[int] = None) -> Pool:
        """Deploy a venue-appropriate pool for a token pair."""
        if venue == CURVE:
            pool: Pool = StableSwapPool(venue=venue, token0=token_a,
                                        token1=token_b)
        elif venue == BALANCER:
            # Balancer's signature 80/20 pools, WETH-heavy when WETH is
            # a member (weights are small integer ratios: 4:1).
            weight_a = 4 if token_a == "WETH" else 1
            weight_b = 4 if token_b == "WETH" and weight_a == 1 else 1
            pool = WeightedPool(venue=venue, token0=token_a,
                                token1=token_b, weight0=weight_a,
                                weight1=weight_b,
                                fee_bps=fee_bps if fee_bps is not None
                                else VENUE_FEE_BPS[BALANCER])
        else:
            fee = fee_bps if fee_bps is not None else \
                VENUE_FEE_BPS.get(venue, 30)
            pool = ConstantProductPool(venue=venue, token0=token_a,
                                       token1=token_b, fee_bps=fee)
        return self.add_pool(pool)

    # Lookup ------------------------------------------------------------------

    def get(self, address: Address) -> Optional[Pool]:
        return self._by_address.get(address)

    @property
    def pools(self) -> List[Pool]:
        return list(self._by_address.values())

    @property
    def pool_count(self) -> int:
        """Number of deployed pools.  Pools are only ever added, so this
        doubles as a cheap version stamp for derived pool-list caches."""
        return len(self._by_address)

    @property
    def contracts(self) -> Dict[Address, Pool]:
        """Address → pool map, pluggable into the block builder."""
        return dict(self._by_address)

    def pools_for_pair(self, token_a: str, token_b: str) -> List[Pool]:
        return list(self._by_pair.get(self._pair_key(token_a, token_b), []))

    def pools_with_token(self, token: str) -> List[Pool]:
        return [p for p in self._by_address.values() if p.has_token(token)]

    def venues(self) -> List[str]:
        return sorted({p.venue for p in self._by_address.values()})

    # Cross-venue price views ------------------------------------------------

    def best_price_gap(self, state: WorldState, token_a: str, token_b: str,
                       ) -> Optional[Tuple[Pool, Pool, float]]:
        """The (cheapest, dearest, ratio) venues for ``token_a`` priced in
        ``token_b``; None unless at least two venues trade the pair.

        A ratio meaningfully above 1 + combined fees is an arbitrage
        opportunity (Definition 2's price-gap condition).
        """
        pools = [p for p in self.pools_for_pair(token_a, token_b)
                 if min(p.reserves(state)) > 0]
        if len(pools) < 2:
            return None
        priced = [(p.spot_price(state, token_a), p) for p in pools]
        low_price, cheap = min(priced, key=lambda x: x[0])
        high_price, dear = max(priced, key=lambda x: x[0])
        if low_price <= 0:
            return None
        return cheap, dear, high_price / low_price
