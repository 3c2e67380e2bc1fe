"""Ethereum-like chain substrate: state, transactions, blocks, mempool.

The spillable segment store (:mod:`repro.chain.segments`) and its frame
codec (:mod:`repro.chain.frames`) are imported by their module paths:
the codec lists the DEX and lending intents, so importing it here would
make the substrate import the packages built on it.
"""

from repro.chain.block import Block, BlockBuilder
from repro.chain.events import (
    BorrowEvent,
    EventLog,
    FlashLoanEvent,
    LiquidationEvent,
    OracleUpdateEvent,
    SwapEvent,
    SyncEvent,
    TransferEvent,
)
from repro.chain.execution import (
    ExecutionContext,
    ExecutionOutcome,
    Revert,
    execute_transaction,
)
from repro.chain.fork import MAINNET_FORKS, ForkSchedule
from repro.chain.gas import BLOCK_GAS_LIMIT, BLOCK_REWARD, next_base_fee
from repro.chain.intents import (
    CoinbaseTipIntent,
    FailingIntent,
    SequenceIntent,
    TokenTransferIntent,
)
from repro.chain.mempool import Mempool
from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.p2p import GossipNetwork, MempoolObserver
from repro.chain.receipt import Receipt
from repro.chain.state import InsufficientBalance, WorldState
from repro.chain.transaction import EIP1559, LEGACY, Transaction, TxIntent
from repro.chain.types import (
    ETHER,
    GWEI,
    WEI,
    ZERO_ADDRESS,
    Address,
    Hash32,
    address_from_label,
    ether,
    gwei,
    hash_of,
    is_address,
    is_hash32,
    to_eth,
    to_gwei,
)

__all__ = [
    "Address", "ArchiveNode", "Block", "BlockBuilder", "Blockchain",
    "BorrowEvent", "BLOCK_GAS_LIMIT", "BLOCK_REWARD", "CoinbaseTipIntent",
    "EIP1559", "ETHER", "EventLog", "ExecutionContext", "ExecutionOutcome",
    "FailingIntent", "FlashLoanEvent", "ForkSchedule", "GossipNetwork",
    "GWEI", "Hash32", "InsufficientBalance", "LEGACY", "LiquidationEvent",
    "MAINNET_FORKS", "Mempool", "MempoolObserver", "OracleUpdateEvent",
    "Receipt", "Revert", "SequenceIntent", "SwapEvent", "SyncEvent",
    "TokenTransferIntent",
    "Transaction", "TransferEvent", "TxIntent", "WEI", "WorldState",
    "ZERO_ADDRESS", "address_from_label", "ether", "execute_transaction",
    "gwei", "hash_of", "is_address", "is_hash32", "next_base_fee",
    "to_eth", "to_gwei",
]
