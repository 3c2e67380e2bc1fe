"""Collateralized lending pools with fixed-spread liquidations.

Models the Aave/Compound mechanics the paper's liquidation heuristics
depend on: over-collateralized loans whose health follows an oracle price,
a close factor limiting how much debt one liquidation may repay, and a
fixed liquidation spread (bonus) that makes liquidations profitable and
therefore a first-come-first-served MEV race (Definition 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chain.events import BorrowEvent, LiquidationEvent
from repro.chain.execution import ExecutionContext, ExecutionOutcome, Revert
from repro.chain.gas import GAS_LIQUIDATION, GAS_TOKEN_TRANSFER
from repro.chain.state import WorldState
from repro.chain.transaction import TxIntent
from repro.chain.types import Address, address_from_label
from repro.lending.oracle import PRICE_SCALE, PriceOracle

#: Fraction of the debt a single liquidation may repay (Aave-style 50 %).
DEFAULT_CLOSE_FACTOR_BPS = 5_000
#: Liquidation bonus: collateral seized is worth repay × (1 + 8 %).
DEFAULT_BONUS_BPS = 800
#: A loan is liquidatable when collateral×threshold < debt (82.5 %).
DEFAULT_LIQUIDATION_THRESHOLD_BPS = 8_250
BPS = 10_000


@dataclass
class Loan:
    """One open collateralized debt position."""

    loan_id: int
    borrower: Address
    collateral_token: str
    collateral_amount: int
    debt_token: str
    debt_amount: int

    @property
    def is_closed(self) -> bool:
        return self.debt_amount <= 0 or self.collateral_amount <= 0


class LendingPool:
    """An Aave/Compound-style lending platform."""

    def __init__(self, platform: str, oracle: PriceOracle,
                 close_factor_bps: int = DEFAULT_CLOSE_FACTOR_BPS,
                 bonus_bps: int = DEFAULT_BONUS_BPS,
                 liquidation_threshold_bps: int =
                 DEFAULT_LIQUIDATION_THRESHOLD_BPS) -> None:
        if not 0 < close_factor_bps <= BPS:
            raise ValueError("close factor out of range")
        if not 0 <= bonus_bps < BPS:
            raise ValueError("bonus out of range")
        if not 0 < liquidation_threshold_bps <= BPS:
            raise ValueError("liquidation threshold out of range")
        self.platform = platform
        self.oracle = oracle
        self.address: Address = address_from_label(f"lending:{platform}")
        self.close_factor_bps = close_factor_bps
        self.bonus_bps = bonus_bps
        self.liquidation_threshold_bps = liquidation_threshold_bps
        self.loans: Dict[int, Loan] = {}
        #: Per-pool loan-id counter.  A plain instance int (not a class
        #: itertools.count) so ids are a function of this pool's history
        #: alone: independent of other pools, of earlier runs in the
        #: same process, and carried inside epoch seals so a resumed
        #: run numbers its next loan exactly as the original would.
        self._next_loan_id = 1
        #: Monotonic loan-book change counter (bumped on every loan
        #: mutation, including journal undos — see PriceOracle.version).
        self.book_version = 0
        self._liquidatable_cache: Dict[tuple, List[Loan]] = {}
        self._open_count_cache: Optional[Tuple[int, int]] = None

    # Setup ------------------------------------------------------------------

    def provision(self, state: WorldState, token: str, amount: int) -> None:
        """Seed the pool with lendable liquidity (depositor capital)."""
        state.mint_token(token, self.address, amount)

    # Loan health ---------------------------------------------------------

    def health_factor(self, loan: Loan) -> float:
        """>1 healthy, <1 liquidatable (Aave's definition)."""
        debt_value = self.oracle.value_in_eth(loan.debt_token,
                                              loan.debt_amount)
        if debt_value == 0:
            return float("inf")
        collateral_value = self.oracle.value_in_eth(
            loan.collateral_token, loan.collateral_amount)
        return (collateral_value * self.liquidation_threshold_bps
                / BPS / debt_value)

    def is_liquidatable(self, loan: Loan) -> bool:
        return not loan.is_closed and self.health_factor(loan) < 1.0

    def liquidatable_loans(self) -> List[Loan]:
        """Open, unhealthy loans — what passive searchers scan for.

        Loan health changes only when a price or a loan mutates, and
        both bump a monotonic version, so the scan result is cached per
        (oracle version, book version) — exact, never stale.  A fresh
        list is returned so callers can't alias the cache entry.
        """
        key = (self.oracle.version, self.book_version)
        cached = self._liquidatable_cache.get(key)
        if cached is None:
            cached = [loan for loan in self.loans.values()
                      if self.is_liquidatable(loan)]
            self._liquidatable_cache.clear()
            self._liquidatable_cache[key] = cached
        return list(cached)

    def open_loans(self) -> List[Loan]:
        return [loan for loan in self.loans.values() if not loan.is_closed]

    def open_loan_count(self) -> int:
        """Number of open loans, cached per book version (loan closure
        only ever happens through version-bumping mutations)."""
        cached = self._open_count_cache
        if cached is None or cached[0] != self.book_version:
            cached = (self.book_version,
                      sum(1 for loan in self.loans.values()
                          if not loan.is_closed))
            self._open_count_cache = cached
        return cached[1]

    def max_repay(self, loan: Loan) -> int:
        """Largest debt repayment one liquidation may make (close factor)."""
        return loan.debt_amount * self.close_factor_bps // BPS

    def seizable_collateral(self, loan: Loan, repay_amount: int) -> int:
        """Collateral received for repaying ``repay_amount`` of debt."""
        repay_value = self.oracle.value_in_eth(loan.debt_token,
                                               repay_amount)
        bonus_value = repay_value * (BPS + self.bonus_bps) // BPS
        collateral_price = self.oracle.price(loan.collateral_token)
        seized = bonus_value * PRICE_SCALE // collateral_price
        return min(seized, loan.collateral_amount)

    # State transitions ----------------------------------------------------

    def open_loan(self, ctx: ExecutionContext, collateral_token: str,
                  collateral_amount: int, debt_token: str,
                  debt_amount: int) -> Loan:
        """Deposit collateral and draw debt inside a transaction."""
        if collateral_amount <= 0 or debt_amount <= 0:
            raise Revert("loan amounts must be positive")
        borrower = ctx.tx.sender
        ctx.state.transfer_token(collateral_token, borrower, self.address,
                                 collateral_amount)
        ctx.state.transfer_token(debt_token, self.address, borrower,
                                 debt_amount)
        loan_id = self._next_loan_id
        self._next_loan_id += 1
        loan = Loan(loan_id=loan_id, borrower=borrower,
                    collateral_token=collateral_token,
                    collateral_amount=collateral_amount,
                    debt_token=debt_token, debt_amount=debt_amount)
        if self.health_factor(loan) < 1.0:
            raise Revert("loan would be undercollateralized at inception")
        self.loans[loan.loan_id] = loan
        self.book_version += 1

        def undo_open() -> None:
            self.book_version += 1
            self.loans.pop(loan.loan_id, None)

        ctx.state.record_undo(undo_open)
        ctx.emit(BorrowEvent(address=self.address, platform=self.platform,
                             borrower=borrower, debt_token=debt_token,
                             amount=debt_amount,
                             collateral_token=collateral_token,
                             collateral_amount=collateral_amount))
        return loan

    def liquidate(self, ctx: ExecutionContext, loan_id: int,
                  repay_amount: int) -> int:
        """Fixed-spread liquidation; returns collateral seized.

        Reverts when the loan is healthy (the fate of a liquidator who got
        frontrun: the winner's repayment restores health first).
        """
        loan = self.loans.get(loan_id)
        if loan is None or loan.is_closed:
            raise Revert("unknown or closed loan")
        if not self.is_liquidatable(loan):
            raise Revert("loan is healthy")
        if repay_amount <= 0:
            raise Revert("repay amount must be positive")
        repay_amount = min(repay_amount, self.max_repay(loan))
        seized = self.seizable_collateral(loan, repay_amount)
        if seized <= 0:
            raise Revert("nothing to seize")
        liquidator = ctx.tx.sender
        ctx.state.transfer_token(loan.debt_token, liquidator, self.address,
                                 repay_amount)
        ctx.state.transfer_token(loan.collateral_token, self.address,
                                 liquidator, seized)
        prior_debt = loan.debt_amount
        prior_collateral = loan.collateral_amount
        loan.debt_amount -= repay_amount
        loan.collateral_amount -= seized
        self.book_version += 1

        def undo() -> None:
            self.book_version += 1
            loan.debt_amount = prior_debt
            loan.collateral_amount = prior_collateral

        ctx.state.record_undo(undo)
        ctx.emit(LiquidationEvent(address=self.address,
                                  platform=self.platform,
                                  liquidator=liquidator,
                                  borrower=loan.borrower,
                                  debt_token=loan.debt_token,
                                  debt_repaid=repay_amount,
                                  collateral_token=loan.collateral_token,
                                  collateral_seized=seized))
        return seized


@dataclass(slots=True)
class BorrowIntent(TxIntent):
    """Open a collateralized loan on a lending pool."""

    pool_address: Address
    collateral_token: str
    collateral_amount: int
    debt_token: str
    debt_amount: int
    base_gas: int = 2 * GAS_TOKEN_TRANSFER

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        pool = ctx.contract(self.pool_address)
        loan = pool.open_loan(ctx, self.collateral_token,
                              self.collateral_amount, self.debt_token,
                              self.debt_amount)
        return ExecutionOutcome(success=True, gas_used=self.base_gas,
                                return_data=loan.loan_id)


@dataclass(slots=True)
class LiquidationIntent(TxIntent):
    """Liquidate an unhealthy loan (the MEV transaction itself)."""

    pool_address: Address
    loan_id: int
    repay_amount: int
    coinbase_tip: int = 0
    base_gas: int = GAS_LIQUIDATION

    def execute(self, ctx: ExecutionContext) -> ExecutionOutcome:
        pool = ctx.contract(self.pool_address)
        seized = pool.liquidate(ctx, self.loan_id, self.repay_amount)
        if self.coinbase_tip:
            ctx.pay_coinbase(self.coinbase_tip)
        return ExecutionOutcome(success=True, gas_used=self.base_gas,
                                return_data=seized)
