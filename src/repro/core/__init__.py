"""Core measurement pipeline: the paper's primary contribution."""

from repro.core.datasets import (
    ArbitrageRecord,
    ChunkPayload,
    FLASHBOTS_UNKNOWN,
    LiquidationRecord,
    MevDataset,
    PRIVACY_FLASHBOTS,
    PRIVACY_PRIVATE,
    PRIVACY_PUBLIC,
    PRIVACY_UNOBSERVED,
    SandwichRecord,
)
from repro.core.flashbots_join import annotate_flashbots
from repro.core.heuristics import (
    detect_arbitrages,
    detect_flash_loan_txs,
    detect_liquidations,
    detect_sandwiches,
)
from repro.core.pipeline import MevInspector, plan_chunks
from repro.core.pool_attribution import (
    AttributionReport,
    attribute_private_pools,
)
from repro.core.private_inference import (
    absence_unprovable,
    annotate_privacy,
    classify_tx,
    sandwich_privacy,
    single_tx_privacy,
)
from repro.core.profit import PriceService, transaction_cost
from repro.core.scan import BlockView, Detector

__all__ = [
    "ArbitrageRecord", "AttributionReport", "BlockView", "ChunkPayload",
    "Detector", "FLASHBOTS_UNKNOWN",
    "LiquidationRecord", "MevDataset", "MevInspector",
    "PRIVACY_FLASHBOTS", "PRIVACY_PRIVATE", "PRIVACY_PUBLIC",
    "PRIVACY_UNOBSERVED", "PriceService", "SandwichRecord",
    "absence_unprovable", "annotate_flashbots", "annotate_privacy",
    "attribute_private_pools", "classify_tx", "detect_arbitrages",
    "detect_flash_loan_txs", "detect_liquidations", "detect_sandwiches",
    "plan_chunks", "sandwich_privacy", "single_tx_privacy",
    "transaction_cost",
]
