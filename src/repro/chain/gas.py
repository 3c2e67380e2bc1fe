"""Fee-market mechanics: EIP-1559 base-fee controller and gas constants."""

from __future__ import annotations

from repro.chain.types import GWEI

#: Default block gas limit (mainnet's post-London value).
BLOCK_GAS_LIMIT = 30_000_000

#: EIP-1559 targets half the limit.
ELASTICITY_MULTIPLIER = 2

#: EIP-1559 maximum base-fee change per block is 1/8.
BASE_FEE_MAX_CHANGE_DENOMINATOR = 8

#: Base fee installed at the London fork block.
INITIAL_BASE_FEE = 1 * GWEI

#: Floor so the base fee never collapses to zero in long idle stretches.
MIN_BASE_FEE = 7  # wei, mirrors geth's practical floor

#: Static block reward paid to the miner (pre-merge PoW era).
BLOCK_REWARD = 2 * 10**18


def next_base_fee(parent_base_fee: int, parent_gas_used: int,
                  parent_gas_limit: int = BLOCK_GAS_LIMIT) -> int:
    """EIP-1559 base-fee update rule.

    The base fee rises when the parent block was more than half full and
    falls when it was less than half full, by at most 1/8 per block.
    """
    if parent_gas_limit <= 0:
        raise ValueError("gas limit must be positive")
    target = parent_gas_limit // ELASTICITY_MULTIPLIER
    if parent_gas_used == target:
        return max(parent_base_fee, MIN_BASE_FEE)
    if parent_gas_used > target:
        delta = max(
            1,
            parent_base_fee * (parent_gas_used - target)
            // target // BASE_FEE_MAX_CHANGE_DENOMINATOR,
        )
        return parent_base_fee + delta
    delta = (parent_base_fee * (target - parent_gas_used)
             // target // BASE_FEE_MAX_CHANGE_DENOMINATOR)
    return max(MIN_BASE_FEE, parent_base_fee - delta)


# Gas cost estimates per intent family, used by substrate intents.  Values
# approximate mainnet averages for the corresponding operations.
GAS_TRANSFER = 21_000
GAS_TOKEN_TRANSFER = 50_000
GAS_SWAP = 120_000
GAS_LIQUIDATION = 350_000
GAS_FLASH_LOAN_OVERHEAD = 90_000
GAS_ORACLE_UPDATE = 60_000
GAS_PAYOUT = 21_000
