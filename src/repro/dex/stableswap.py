"""Curve-style stableswap pool (two coins, amplified invariant).

Implements the classic Curve integer math: the invariant
``A·n^n·S + D = A·D·n^n + D^(n+1)/(n^n·Πx)`` solved by Newton iteration.
:class:`StableSwapPool` is a :class:`~repro.dex.amm.Pool`: it adds only
the amplification, its address label, ``amount_out`` (which wraps
:func:`stable_amount_out`) and a probe-based spot price, so routers,
searchers and detection heuristics treat venues uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.chain.state import WorldState
from repro.dex.amm import FEE_DENOMINATOR, Pool

N_COINS = 2


def compute_d(amp: int, balances: Tuple[int, int]) -> int:
    """Newton-solve the stableswap invariant for D."""
    x0, x1 = balances
    s = x0 + x1
    if s == 0:
        return 0
    if x0 == 0 or x1 == 0:
        raise ValueError("stableswap pool is one-sided")
    return _d_newton(amp, x0, x1)


# The Newton iterations are pure integer functions of their arguments, and
# searchers probe the same reserve/amount points over and over between
# trades on the pool — an LRU is exact, not approximate.
@lru_cache(maxsize=4096)
def _d_newton(amp: int, x0: int, x1: int) -> int:
    s = x0 + x1
    d = s
    d_prev_prev = -1
    ann = amp * N_COINS**N_COINS
    for _ in range(255):
        d_p = d
        for x in (x0, x1):
            d_p = d_p * d // (N_COINS * x)
        d_prev = d
        d = ((ann * s + d_p * N_COINS) * d
             // ((ann - 1) * d + (N_COINS + 1) * d_p))
        # Integer Newton can orbit the root in a short cycle on extreme
        # imbalances; a relative tolerance (1e-15) ends the iteration with
        # sub-rounding-error accuracy in those cases.
        if abs(d - d_prev) <= max(1, d // 10**15):
            return min(d, d_prev)
        if d == d_prev_prev:
            return min(d, d_prev)
        d_prev_prev = d_prev
    raise ArithmeticError("D did not converge")


@lru_cache(maxsize=4096)
def compute_y(amp: int, d: int, x_new: int) -> int:
    """Given one post-trade balance ``x_new``, solve for the other."""
    ann = amp * N_COINS**N_COINS
    c = d * d // (x_new * N_COINS)
    c = c * d // (ann * N_COINS)
    b = x_new + d // ann
    y = d
    for _ in range(255):
        y_prev = y
        y = (y * y + c) // (2 * y + b - d)
        if abs(y - y_prev) <= 1:
            return y
    raise ArithmeticError("y did not converge")


def stable_amount_out(amount_in: int, reserve_in: int, reserve_out: int,
                      amp: int, fee_bps: int) -> int:
    """Stableswap output for an exact input, net of fee (pure form).

    :meth:`StableSwapPool.amount_out` with the pool's parameters bound.
    """
    if amount_in <= 0:
        raise ValueError("amount_in must be positive")
    if reserve_in <= 0 or reserve_out <= 0:
        raise ValueError("pool has no liquidity")
    d = compute_d(amp, (reserve_in, reserve_out))
    y_new = compute_y(amp, d, reserve_in + amount_in)
    dy = reserve_out - y_new - 1  # -1 mirrors Curve's rounding guard
    if dy <= 0:
        return 0
    return dy - dy * fee_bps // FEE_DENOMINATOR


@dataclass
class StableSwapPool(Pool):
    """A two-coin amplified pool (Curve-like)."""

    amp: int = 100
    fee_bps: int = 4  # Curve's typical 4 bps

    def __post_init__(self) -> None:
        if self.amp <= 0:
            raise ValueError("amplification must be positive")
        super().__post_init__()

    def _label(self) -> str:
        return (f"stable:{self.venue}:{self.token0}/{self.token1}:"
                f"{self.amp}")

    def amount_out(self, amount_in: int, reserve_in: int,
                   reserve_out: int, token_in: str) -> int:
        return stable_amount_out(amount_in, reserve_in, reserve_out,
                                 self.amp, self.fee_bps)

    def spot_price(self, state: WorldState, token: str) -> float:
        """Marginal price via a small probe trade."""
        reserve = self.reserve_of(state, token)
        probe = max(1, reserve // 100_000)
        return self.quote_out(state, token, probe) / probe
