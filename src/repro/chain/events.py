"""Typed event logs emitted by simulated contracts.

The measurement pipeline (``repro.core``) consumes *only* these logs plus
transaction metadata, mirroring how the paper's scripts crawl ERC-20
``Transfer`` events, DEX ``Swap`` events, lending ``Liquidation`` events and
``FlashLoan`` events from an archive node.  Substrate modules (DEX, lending)
emit them during execution; the block builder stamps them with their
inclusion coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chain.types import Address, Hash32


@dataclass
class EventLog:
    """Base class for all event logs.

    ``block_number``, ``tx_hash``, ``tx_index`` and ``log_index`` are filled
    in by the block builder when the emitting transaction is included.
    """

    address: Address  # emitting contract
    block_number: Optional[int] = field(default=None, init=False)
    tx_hash: Optional[Hash32] = field(default=None, init=False)
    tx_index: Optional[int] = field(default=None, init=False)
    log_index: Optional[int] = field(default=None, init=False)

    def stamp(self, block_number: int, tx_hash: Hash32, tx_index: int,
              log_index: int) -> None:
        """Record inclusion coordinates (called once by the block builder)."""
        self.block_number = block_number
        self.tx_hash = tx_hash
        self.tx_index = tx_index
        self.log_index = log_index


@dataclass
class TransferEvent(EventLog):
    """ERC-20 ``Transfer(from, to, value)``."""

    token: str = ""
    sender: Address = ""
    recipient: Address = ""
    amount: int = 0


@dataclass
class SwapEvent(EventLog):
    """DEX ``Swap``: ``taker`` traded ``amount_in`` of ``token_in`` for
    ``amount_out`` of ``token_out`` on the pool at ``address``.

    ``venue`` is the exchange name (e.g. ``"UniswapV2"``) as recorded by the
    venue registry — the paper's heuristics are venue-aware.
    """

    venue: str = ""
    taker: Address = ""
    recipient: Address = ""
    token_in: str = ""
    token_out: str = ""
    amount_in: int = 0
    amount_out: int = 0


@dataclass
class SyncEvent(EventLog):
    """Uniswap-V2 style ``Sync(reserve0, reserve1)`` after every swap."""

    token0: str = ""
    token1: str = ""
    reserve0: int = 0
    reserve1: int = 0


@dataclass
class LiquidationEvent(EventLog):
    """Lending-platform liquidation: ``liquidator`` repaid ``debt_repaid`` of
    ``debt_token`` on behalf of ``borrower`` and seized
    ``collateral_seized`` of ``collateral_token``."""

    platform: str = ""
    liquidator: Address = ""
    borrower: Address = ""
    debt_token: str = ""
    debt_repaid: int = 0
    collateral_token: str = ""
    collateral_seized: int = 0


@dataclass
class FlashLoanEvent(EventLog):
    """Flash-loan completion: emitted only when the loan was repaid within
    the same transaction (Wang et al.'s detection anchor)."""

    platform: str = ""
    initiator: Address = ""
    token: str = ""
    amount: int = 0
    fee: int = 0


@dataclass
class BorrowEvent(EventLog):
    """Lending-platform borrow (used for loan-book reconstruction)."""

    platform: str = ""
    borrower: Address = ""
    debt_token: str = ""
    amount: int = 0
    collateral_token: str = ""
    collateral_amount: int = 0


@dataclass
class OracleUpdateEvent(EventLog):
    """Price-oracle update: the on-chain event that can *create* a
    liquidation opportunity, making it a backrun target (Definition 3)."""

    token: str = ""
    price_wei: int = 0
