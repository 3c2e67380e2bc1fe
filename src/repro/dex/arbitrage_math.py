"""Closed-form MEV sizing math for constant-product pools.

Searchers need two calculations the paper's strategy descriptions assume:

* the profit-maximizing input for a two-pool arbitrage (Definition 2's
  opportunity, sized optimally), and
* the largest sandwich frontrun that still clears the victim's slippage
  limit (Definition 1's attack, sized to the constraint).

Both are derived for Uniswap-V2 style pools.  The arbitrage optimum has a
closed form; the sandwich bound is monotone, so an integer binary search is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.dex.amm import FEE_DENOMINATOR, get_amount_out


@dataclass(frozen=True)
class ArbitragePlan:
    """Optimal two-pool arbitrage: trade ``amount_in`` of the start token
    through the cheap pool then back through the dear pool."""

    amount_in: int
    expected_out: int

    @property
    def expected_profit(self) -> int:
        return self.expected_out - self.amount_in


# The sizing functions below are pure in their integer arguments and get
# re-evaluated with identical reserves whenever a pool sits untouched
# between blocks (or several searchers size the same opportunity), so an
# argument-keyed LRU returns the exact same plan objects — the plans are
# frozen, never mutated by callers.
@lru_cache(maxsize=16384)
def optimal_two_pool_arbitrage(reserve_in_1: int, reserve_out_1: int,
                               reserve_in_2: int, reserve_out_2: int,
                               fee_bps_1: int = 30, fee_bps_2: int = 30,
                               ) -> Optional[ArbitragePlan]:
    """Profit-maximizing input for: token X → pool1 → token Y → pool2 → X.

    Pool 1 takes X (reserves ``reserve_in_1`` X / ``reserve_out_1`` Y);
    pool 2 takes Y (reserves ``reserve_in_2`` Y / ``reserve_out_2`` X).
    Returns None when no positive-profit input exists (price gap below the
    combined fee).

    Derivation: composing the two swap curves gives another hyperbola
    ``out(a) = A·a / (B + C·a)`` with
    ``A = γ1·γ2·R1out·R2out``, ``B = R1in·R2in``,
    ``C = γ1·(R2in + γ2·R1out)`` (γ = 1 − fee); maximizing ``out(a) − a``
    yields ``a* = (√(A·B) − B) / C``.
    """
    for reserve in (reserve_in_1, reserve_out_1, reserve_in_2,
                    reserve_out_2):
        if reserve <= 0:
            return None
    g1 = FEE_DENOMINATOR - fee_bps_1
    g2 = FEE_DENOMINATOR - fee_bps_2
    a_coeff = g1 * g2 * reserve_out_1 * reserve_out_2
    b_coeff = FEE_DENOMINATOR**2 * reserve_in_1 * reserve_in_2
    c_coeff = g1 * (FEE_DENOMINATOR * reserve_in_2 + g2 * reserve_out_1)
    if a_coeff <= b_coeff:
        return None  # gap does not clear the fees
    amount_in = (math.isqrt(a_coeff * b_coeff) - b_coeff) // c_coeff
    if amount_in <= 0:
        return None
    mid = get_amount_out(amount_in, reserve_in_1, reserve_out_1, fee_bps_1)
    if mid <= 0:
        return None
    out = get_amount_out(mid, reserve_in_2, reserve_out_2, fee_bps_2)
    if out <= amount_in:
        return None
    return ArbitragePlan(amount_in=amount_in, expected_out=out)


def simulate_two_pool_arbitrage(amount_in: int, reserve_in_1: int,
                                reserve_out_1: int, reserve_in_2: int,
                                reserve_out_2: int, fee_bps_1: int = 30,
                                fee_bps_2: int = 30) -> int:
    """Final output of the two-hop cycle for a given input (no state)."""
    if amount_in <= 0:
        return 0
    mid = get_amount_out(amount_in, reserve_in_1, reserve_out_1, fee_bps_1)
    if mid <= 0:
        return 0
    return get_amount_out(mid, reserve_in_2, reserve_out_2, fee_bps_2)


@dataclass(frozen=True)
class SandwichPlan:
    """A sized sandwich: frontrun amount and projected leg outcomes."""

    frontrun_in: int         # token X spent in the frontrun
    frontrun_out: int        # token Y acquired by the frontrun
    victim_out: int          # what the victim still receives
    backrun_out: int         # token X recovered by the backrun

    @property
    def expected_profit(self) -> int:
        """Projected gross profit in token X (before fees and tips)."""
        return self.backrun_out - self.frontrun_in


def _victim_out_after_frontrun(frontrun_in: int, reserve_in: int,
                               reserve_out: int, victim_in: int,
                               fee_bps: int) -> int:
    """Victim's output if the attacker frontruns with ``frontrun_in``."""
    if frontrun_in == 0:
        return get_amount_out(victim_in, reserve_in, reserve_out, fee_bps)
    bought = get_amount_out(frontrun_in, reserve_in, reserve_out, fee_bps)
    return get_amount_out(victim_in, reserve_in + frontrun_in,
                          reserve_out - bought, fee_bps)


@lru_cache(maxsize=16384)
def max_sandwich_frontrun(reserve_in: int, reserve_out: int,
                          victim_in: int, victim_min_out: int,
                          fee_bps: int = 30) -> int:
    """Largest frontrun input that keeps the victim above its slippage
    floor.  Returns 0 when even an untouched pool cannot satisfy the victim
    (the victim's swap would revert anyway).

    The victim's output is strictly decreasing in the frontrun size, so the
    boundary is found by integer binary search (exact, no float error).
    """
    if victim_min_out <= 0:
        # No slippage protection: cap the attack at the pool's own depth so
        # the numbers stay finite (a real attacker is capital-limited too).
        victim_min_out = 1
    untouched = _victim_out_after_frontrun(0, reserve_in, reserve_out,
                                           victim_in, fee_bps)
    if untouched < victim_min_out:
        return 0
    # The predicate body is ``_victim_out_after_frontrun`` with the two
    # ``get_amount_out`` calls inlined (identical integer arithmetic —
    # the frontrun's buy never exhausts ``reserve_out``, so the guard
    # paths of ``get_amount_out`` are unreachable here).
    gamma = FEE_DENOMINATOR - fee_bps
    scaled_reserve_in = reserve_in * FEE_DENOMINATOR
    victim_with_fee = victim_in * gamma

    def clears(frontrun: int) -> bool:
        front_with_fee = frontrun * gamma
        bought = (front_with_fee * reserve_out
                  // (scaled_reserve_in + front_with_fee))
        out = (victim_with_fee * (reserve_out - bought)
               // ((reserve_in + frontrun) * FEE_DENOMINATOR
                   + victim_with_fee))
        return out >= victim_min_out

    low, high = 0, reserve_in * 10
    # Bisecting [0, 10·R_in] directly takes ~77 iterations.  Instead,
    # solve the real-arithmetic slippage boundary in closed form: ignoring
    # floors, ``victim_out(f) = m`` is the quadratic
    #   gD·f² + (D·R_in·(D+g) + g²·v)·f
    #     + D·R_in·(D·R_in + g·v) − D·R_in·R_out·g·v / m = 0
    # (D = fee denominator, g = D − fee, v = victim_in, m = min_out).
    # Multiplying through by m keeps everything integer, and ``isqrt``
    # makes the root exact in real arithmetic.  Floor divisions shift the
    # true integer boundary slightly off this root, so the root is only a
    # *starting point*: gallop outward with the exact predicate until the
    # boundary is bracketed, then bisect the (tiny) bracket.  The answer
    # is decided solely by ``clears`` — the same monotone predicate the
    # full-range bisection used — so the result is bit-identical, just
    # reached in ~a dozen evaluations.
    a2 = 2 * gamma * FEE_DENOMINATOR * victim_min_out
    b_m = (FEE_DENOMINATOR * reserve_in * (FEE_DENOMINATOR + gamma)
           + gamma * victim_with_fee) * victim_min_out
    c_m = scaled_reserve_in * (
        victim_min_out * (scaled_reserve_in + victim_with_fee)
        - reserve_out * victim_with_fee)
    disc = b_m * b_m - 2 * a2 * c_m
    if disc > 0:
        guess = (math.isqrt(disc) - b_m) // a2
    else:
        guess = 0
    guess = min(max(guess, 0), high)
    if clears(guess):
        low = guess
        step = 1
        while low + step <= high and clears(low + step):
            low += step
            step <<= 1
        high = min(high, low + step - 1)
    elif guess > 0:
        high = guess - 1
        step = 1
        while high - step >= low and not clears(high - step + 1):
            high -= step
            step <<= 1
    while low < high:
        mid = (low + high + 1) // 2
        if clears(mid):
            low = mid
        else:
            high = mid - 1
    return low


@lru_cache(maxsize=16384)
def plan_sandwich(reserve_in: int, reserve_out: int, victim_in: int,
                  victim_min_out: int, fee_bps: int = 30,
                  max_capital: Optional[int] = None,
                  ) -> Optional[SandwichPlan]:
    """Size and project a full sandwich against a pending victim swap.

    Returns None when no profitable frontrun exists (tight slippage, tiny
    victim, or fee-dominated pool).
    """
    frontrun = max_sandwich_frontrun(reserve_in, reserve_out, victim_in,
                                     victim_min_out, fee_bps)
    if max_capital is not None:
        frontrun = min(frontrun, max_capital)
    if frontrun <= 0:
        return None
    frontrun_out = get_amount_out(frontrun, reserve_in, reserve_out,
                                  fee_bps)
    if frontrun_out <= 0:
        return None
    r_in_1 = reserve_in + frontrun
    r_out_1 = reserve_out - frontrun_out
    victim_out = get_amount_out(victim_in, r_in_1, r_out_1, fee_bps)
    if victim_out < victim_min_out:
        return None
    r_in_2 = r_in_1 + victim_in
    r_out_2 = r_out_1 - victim_out
    # Backrun: sell the acquired token Y back for X.
    backrun_out = get_amount_out(frontrun_out, r_out_2, r_in_2, fee_bps)
    plan = SandwichPlan(frontrun_in=frontrun, frontrun_out=frontrun_out,
                        victim_out=victim_out, backrun_out=backrun_out)
    if plan.expected_profit <= 0:
        return None
    return plan
