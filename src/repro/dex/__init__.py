"""DEX substrate: AMM pools, venue registry, swap intents, MEV math."""

from repro.dex.amm import (
    DEFAULT_FEE_BPS,
    FEE_DENOMINATOR,
    ConstantProductPool,
    Pool,
    get_amount_in,
    get_amount_out,
)
from repro.dex.arbitrage_math import (
    ArbitragePlan,
    SandwichPlan,
    max_sandwich_frontrun,
    optimal_two_pool_arbitrage,
    plan_sandwich,
    simulate_two_pool_arbitrage,
)
from repro.dex.registry import (
    ARBITRAGE_VENUES,
    BALANCER,
    BANCOR,
    CURVE,
    SANDWICH_VENUES,
    SUSHISWAP,
    UNISWAP_V1,
    UNISWAP_V2,
    UNISWAP_V3,
    VENUE_FEE_BPS,
    ZEROX,
    ExchangeRegistry,
)
from repro.dex.router import (
    ArbitrageIntent,
    SwapAllIntent,
    SwapIntent,
)
from repro.dex.stableswap import StableSwapPool, compute_d, compute_y
from repro.dex.weighted import (
    WeightedPool,
    integer_nth_root,
    weighted_amount_out,
)
from repro.dex.token import DEFAULT_TOKENS, WETH, Token

__all__ = [
    "ARBITRAGE_VENUES", "ArbitrageIntent", "ArbitragePlan", "BALANCER",
    "BANCOR", "CURVE", "ConstantProductPool", "DEFAULT_FEE_BPS",
    "DEFAULT_TOKENS", "ExchangeRegistry", "FEE_DENOMINATOR",
    "Pool", "SANDWICH_VENUES", "SUSHISWAP",
    "SandwichPlan", "StableSwapPool", "SwapIntent", "Token",
    "UNISWAP_V1", "UNISWAP_V2",
    "UNISWAP_V3", "VENUE_FEE_BPS", "WETH", "ZEROX", "compute_d",
    "compute_y", "get_amount_in", "get_amount_out",
    "max_sandwich_frontrun", "optimal_two_pool_arbitrage", "plan_sandwich",
    "simulate_two_pool_arbitrage",
    "WeightedPool", "integer_nth_root", "weighted_amount_out",
    "SwapAllIntent",
]
