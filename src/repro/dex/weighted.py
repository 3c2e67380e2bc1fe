"""Balancer-style weighted constant-mean pools.

A weighted pool holds reserves ``B_in, B_out`` with weights
``w_in, w_out`` and preserves the value function ``B_in^w_in ·
B_out^w_out``.  The exact-input swap formula is::

    out = B_out · (1 − (B_in / (B_in + in·(1−fee)))^(w_in/w_out))

Weights are kept as small integers (e.g. 4:1 for an 80/20 pool) so the
exponent is a rational ``p/q`` and the whole computation stays in exact
integer arithmetic via ``q``-th roots (floor), preserving the
no-free-money property bit-for-bit like the rest of the DEX layer.
A 1:1 weighting reduces to the constant-product formula exactly.

:class:`WeightedPool` is a :class:`~repro.dex.amm.Pool`: it adds only
the weights (which follow the tokens into canonical order), its address
label, ``amount_out`` (which wraps :func:`weighted_amount_out`) and the
weighted spot price.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.state import WorldState
from repro.dex.amm import FEE_DENOMINATOR, Pool


def integer_nth_root(value: int, n: int) -> int:
    """Floor of the n-th root of a non-negative integer (exact)."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if n <= 0:
        raise ValueError("root order must be positive")
    if value in (0, 1) or n == 1:
        return value
    # Newton iteration on x^n = value, seeded from the bit length.
    x = 1 << (value.bit_length() // n + 1)
    while True:
        y = ((n - 1) * x + value // x**(n - 1)) // n
        if y >= x:
            break
        x = y
    return x


def pow_ratio_floor(base_num: int, base_den: int, exp_num: int,
                    exp_den: int, scale: int = 10**18) -> int:
    """Floor of ``scale · (base_num/base_den)^(exp_num/exp_den)``.

    Requires ``base_num ≤ base_den`` (the swap formula only raises
    numbers in (0, 1]), so intermediate powers cannot explode.
    """
    if base_num < 0 or base_den <= 0:
        raise ValueError("invalid base")
    if base_num > base_den:
        raise ValueError("base must be <= 1")
    # (num/den)^(p/q) = q-th root of (num^p / den^p); multiply by
    # scale^q inside the root to keep precision.
    powered_num = base_num ** exp_num
    powered_den = base_den ** exp_num
    return integer_nth_root(powered_num * scale**exp_den // powered_den,
                            exp_den)


#: Balancer's MAX_IN_RATIO: a single swap may consume at most half the
#: input-side reserve, which also bounds the output strictly below the
#: output-side reserve.
MAX_IN_RATIO_DENOM = 2


def weighted_amount_out(amount_in: int, reserve_in: int,
                        reserve_out: int, weight_in: int,
                        weight_out: int,
                        fee_bps: int = 25) -> int:
    """Balancer ``outGivenIn`` in exact integer arithmetic."""
    if amount_in <= 0:
        raise ValueError("amount_in must be positive")
    if reserve_in <= 0 or reserve_out <= 0:
        raise ValueError("pool has no liquidity")
    if weight_in <= 0 or weight_out <= 0:
        raise ValueError("weights must be positive")
    if amount_in > reserve_in // MAX_IN_RATIO_DENOM:
        raise ValueError("swap exceeds Balancer's max-in ratio")
    effective_in = amount_in * (FEE_DENOMINATOR - fee_bps) \
        // FEE_DENOMINATOR
    scale = 10**18
    # Round the retained-balance ratio UP (+1) so the output rounds in
    # the pool's favour — Balancer's fixed-point rounding direction, and
    # what keeps dust-sized round trips from minting a stray wei.
    ratio = pow_ratio_floor(reserve_in, reserve_in + effective_in,
                            weight_in, weight_out, scale) + 1
    out = reserve_out * max(0, scale - ratio) // scale
    return min(out, reserve_out - 1)


@dataclass
class WeightedPool(Pool):
    """A two-token weighted pool (Balancer-like).

    ``weight0``/``weight1`` are small integers; an 80/20 WETH pool is
    ``weight(WETH)=4, weight(other)=1``.
    """

    weight0: int = 1
    weight1: int = 1
    fee_bps: int = 25

    def __post_init__(self) -> None:
        if self.weight0 <= 0 or self.weight1 <= 0:
            raise ValueError("weights must be positive")
        # The weights follow their tokens into canonical order.
        if self.token0 > self.token1:
            self.weight0, self.weight1 = self.weight1, self.weight0
        super().__post_init__()

    def _label(self) -> str:
        return (f"weighted:{self.venue}:{self.token0}/{self.token1}:"
                f"{self.weight0}:{self.weight1}:{self.fee_bps}")

    def weight_of(self, token: str) -> int:
        self._require_member(token)
        return self.weight0 if token == self.token0 else self.weight1

    def amount_out(self, amount_in: int, reserve_in: int,
                   reserve_out: int, token_in: str) -> int:
        # Direct comparisons, not weight_of: this runs on every probe
        # rung of the searcher's ladder.
        if token_in == self.token0:
            weight_in, weight_out = self.weight0, self.weight1
        else:
            weight_in, weight_out = self.weight1, self.weight0
        return weighted_amount_out(amount_in, reserve_in, reserve_out,
                                   weight_in, weight_out, self.fee_bps)

    def spot_price(self, state: WorldState, token: str) -> float:
        """Marginal price of ``token`` in the other token:
        (B_other/w_other) / (B_token/w_token)."""
        other = self.other(token)
        reserve_token = self.reserve_of(state, token)
        if reserve_token == 0:
            raise ValueError("pool has no liquidity")
        return ((self.reserve_of(state, other) / self.weight_of(other))
                / (reserve_token / self.weight_of(token)))
