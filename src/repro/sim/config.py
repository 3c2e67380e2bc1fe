"""Scenario configuration: every knob of the simulated study window."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim.calendar import STUDY_MONTHS


@dataclass
class ScenarioConfig:
    """Full parameterization of the calibrated paper scenario.

    The defaults are the calibration used by the benchmark suite: small
    enough to run in seconds, dense enough that every figure's shape is
    statistically visible.  ``blocks_per_month`` is the main size lever.
    """

    seed: int = 7
    blocks_per_month: int = 300
    months: Tuple[str, ...] = STUDY_MONTHS

    # Miner population (Figure 4/5 shape)
    num_miners: int = 55
    hashpower_exponent: float = 1.15

    # Searcher populations
    num_sandwich_searchers: int = 12
    num_arbitrage_searchers: int = 10
    num_liquidation_searchers: int = 5
    num_other_users: int = 40
    searcher_capital_eth: float = 5_000.0
    flash_user_capital_eth: float = 4.0
    searcher_faulty_rate: float = 0.012
    searcher_attempt_rate: float = 0.4
    flash_loan_user_fraction: float = 0.25
    searcher_min_profit_eth: float = 0.05
    #: sealed-bid mean tip fraction; None → market default (0.80)
    sealed_bid_tip_mean: Optional[float] = None

    # Background traffic
    num_traders: int = 150
    num_borrowers: int = 40
    swaps_per_block: float = 3.0
    transfers_per_block: float = 3.0
    stable_swaps_per_block: float = 0.4
    amateur_arb_rate: float = 0.08
    borrow_rate: float = 0.10
    max_open_loans: int = 80
    oracle_interval_blocks: int = 15

    # Market structure
    observation_rate: float = 0.995
    organic_gas_gwei: float = 40.0
    pga_gas_multiplier: float = 4.0
    token_volatility: float = 0.05

    # Flashbots / private-pool timeline knobs (months)
    flashbots_launch_month: str = "2021-02"
    berlin_month: str = "2021-04"
    london_month: str = "2021-08"
    exodus_month: str = "2021-09"
    taichi_shutdown_month: str = "2021-10"
    observation_start_month: str = "2021-11"
    observation_end_month: Optional[str] = None  # None = study end

    # Miner payout bundles (Section 4.1's F2Pool example)
    payout_interval_blocks: int = 60
    payout_recipients: int = 20
    giant_payout_recipients: int = 700

    # Rogue bundles (7.6 % of the FB dataset)
    rogue_bundle_rate: float = 0.08

    # Self-extracting miners (Section 6.3)
    num_self_mev_miners: int = 2

    #: sealed-epoch width in blocks; ``None`` means month edges
    #: (``blocks_per_month``).  Every epoch boundary reseeds the world's
    #: RNG streams from ``(seed, epoch_index)`` so any epoch can be
    #: resumed from its seal on a fresh worker (see repro.sim.shard).
    epoch_blocks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.blocks_per_month <= 0:
            raise ValueError("blocks_per_month must be positive")
        if self.num_miners <= 0:
            raise ValueError("need at least one miner")
        if not 0.0 <= self.observation_rate <= 1.0:
            raise ValueError("observation_rate must be within [0, 1]")
        if self.flashbots_launch_month not in self.months:
            raise ValueError("flashbots launch month outside window")
        if self.epoch_blocks is not None and self.epoch_blocks <= 0:
            raise ValueError("epoch_blocks must be positive when set")

    @property
    def total_blocks(self) -> int:
        return self.blocks_per_month * len(self.months)
