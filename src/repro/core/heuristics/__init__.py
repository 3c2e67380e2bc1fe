"""Detection heuristics: sandwich, arbitrage, liquidation, flash loans.

Each heuristic has two faces: a per-block *visitor* held by
:class:`repro.core.scan.Detector` (so one pass over a range feeds all
four), and the standalone ``detect_*`` entry point, now a thin wrapper
that runs its visitor over one range.
"""

from repro.core.heuristics.arbitrage import (
    ArbitrageVisitor,
    detect_arbitrages,
)
from repro.core.heuristics.flashloan import (
    FlashLoanVisitor,
    detect_flash_loan_txs,
    flash_loan_hashes,
)
from repro.core.heuristics.liquidation import (
    LiquidationVisitor,
    detect_liquidations,
)
from repro.core.heuristics.sandwich import (
    SandwichVisitor,
    detect_sandwiches,
)

__all__ = ["ArbitrageVisitor", "FlashLoanVisitor", "LiquidationVisitor",
           "SandwichVisitor", "detect_arbitrages",
           "detect_flash_loan_txs", "detect_liquidations",
           "detect_sandwiches", "flash_loan_hashes"]
