"""Lending substrate: oracle, collateralized loans with fixed-spread
liquidations, flash loans."""

from repro.lending.flashloan import (
    DEFAULT_FLASH_FEE_BPS,
    FlashLoanIntent,
    FlashLoanProvider,
)
from repro.lending.oracle import (
    PRICE_SCALE,
    OracleUpdateIntent,
    PriceOracle,
)
from repro.lending.pool import (
    BorrowIntent,
    DEFAULT_BONUS_BPS,
    DEFAULT_CLOSE_FACTOR_BPS,
    DEFAULT_LIQUIDATION_THRESHOLD_BPS,
    LendingPool,
    LiquidationIntent,
    Loan,
)

__all__ = [
    "BorrowIntent", "DEFAULT_BONUS_BPS", "DEFAULT_CLOSE_FACTOR_BPS",
    "DEFAULT_FLASH_FEE_BPS", "DEFAULT_LIQUIDATION_THRESHOLD_BPS",
    "FlashLoanIntent", "FlashLoanProvider", "LendingPool",
    "LiquidationIntent", "Loan", "OracleUpdateIntent", "PRICE_SCALE",
    "PriceOracle",
]
