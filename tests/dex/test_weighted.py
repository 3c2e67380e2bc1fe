"""Tests for Balancer-style weighted pools and the integer root math."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.execution import ExecutionContext, Revert
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label, ether
from repro.dex.amm import get_amount_out
from repro.dex.weighted import (
    WeightedPool,
    integer_nth_root,
    weighted_amount_out,
)

TRADER = address_from_label("w-trader")
MINER = address_from_label("w-miner")


class TestIntegerNthRoot:
    @given(st.integers(0, 10**40), st.integers(1, 6))
    def test_floor_root_exact(self, value, n):
        root = integer_nth_root(value, n)
        assert root**n <= value
        assert (root + 1)**n > value

    def test_perfect_powers(self):
        assert integer_nth_root(10**36, 2) == 10**18
        assert integer_nth_root(2**40, 4) == 2**10

    def test_validation(self):
        with pytest.raises(ValueError):
            integer_nth_root(-1, 2)
        with pytest.raises(ValueError):
            integer_nth_root(4, 0)


class TestWeightedFormula:
    def test_equal_weights_match_constant_product(self):
        """50/50 weighted == Uniswap V2 with the same fee (exactly, up
        to 1 wei of root-flooring)."""
        for amount in (10**15, 10**18, 37 * 10**17):
            weighted = weighted_amount_out(amount, ether(100),
                                           ether(300_000), 1, 1,
                                           fee_bps=30)
            cp = get_amount_out(amount, ether(100), ether(300_000),
                                fee_bps=30)
            assert abs(weighted - cp) <= cp // 10**9 + 2

    @settings(max_examples=50)
    @given(st.fractions(0, 1), st.integers(10**15, 10**24),
           st.integers(10**15, 10**24),
           st.sampled_from([(1, 1), (4, 1), (1, 4), (3, 2)]))
    def test_no_free_money(self, fraction, r_in, r_out, weights):
        """Round-tripping a weighted pool can never profit."""
        w_in, w_out = weights
        amount_in = max(1, int(r_in * fraction) // 2)
        out = weighted_amount_out(amount_in, r_in, r_out, w_in, w_out)
        if out <= 0 or out > (r_out - out) // 2:
            return  # return leg would exceed the max-in ratio
        back = weighted_amount_out(out, r_out - out, r_in + amount_in,
                                   w_out, w_in)
        assert back <= amount_in

    @settings(max_examples=50)
    @given(st.fractions(0, 1), st.integers(10**15, 10**24),
           st.integers(10**15, 10**24))
    def test_output_below_reserves(self, fraction, r_in, r_out):
        amount_in = max(1, int(r_in * fraction) // 2)
        assert weighted_amount_out(amount_in, r_in, r_out, 4, 1) < r_out

    def test_max_in_ratio_enforced(self):
        with pytest.raises(ValueError):
            weighted_amount_out(ether(51), ether(100), ether(100), 4, 1)

    def test_heavier_in_weight_less_slippage(self):
        """An 80/20 pool (WETH-heavy) slips less for WETH sellers than a
        20/80 pool with the same reserves."""
        big = ether(50)
        heavy = weighted_amount_out(big, ether(1_000), ether(3_000_000),
                                    4, 1)
        light = weighted_amount_out(big, ether(1_000), ether(3_000_000),
                                    1, 4)
        assert heavy > light


class TestWeightedPool:
    @pytest.fixture
    def setup(self):
        state = WorldState()
        pool = WeightedPool(venue="Balancer", token0="WETH",
                            token1="WBTC", weight0=4, weight1=1)
        # 80/20: spot parity needs B_wbtc = price·B_weth·(w_wbtc/w_weth)
        pool.add_liquidity(state, WETH=ether(1_400),
                           WBTC=ether(25))
        state.mint_token("WETH", TRADER, ether(100))
        state.mint_token("WBTC", TRADER, ether(10))
        return state, pool

    def test_weights_follow_canonical_order(self):
        pool = WeightedPool(venue="Balancer", token0="WETH",
                            token1="DAI", weight0=4, weight1=1)
        assert pool.weight_of("WETH") == 4
        assert pool.weight_of("DAI") == 1

    def test_spot_price_uses_weights(self, setup):
        state, pool = setup
        # (25/1) / (1400/4) = 25/350 ≈ 0.0714 WBTC per WETH
        assert pool.spot_price(state, "WETH") == \
            pytest.approx(25 / 350, rel=1e-9)

    def test_quote_weighs_the_input_side(self, setup):
        state, pool = setup
        weth, wbtc = ether(1_400), ether(25)
        assert pool.quote_out(state, "WETH", ether(1)) == \
            weighted_amount_out(ether(1), weth, wbtc, 4, 1, pool.fee_bps)
        assert pool.quote_out(state, "WBTC", ether(1) // 10) == \
            weighted_amount_out(ether(1) // 10, wbtc, weth, 1, 4,
                                pool.fee_bps)

    def test_swap_moves_tokens_and_emits(self, setup):
        state, pool = setup
        tx = Transaction(sender=TRADER, nonce=0, to=pool.address)
        ctx = ExecutionContext(state, tx, block_number=1,
                               coinbase=MINER,
                               contracts={pool.address: pool})
        out = pool.swap(ctx, "WETH", ether(1), TRADER)
        assert out > 0
        assert state.token_balance("WBTC", TRADER) == ether(10) + out
        assert [type(l).__name__ for l in ctx.logs] == \
            ["SwapEvent", "SyncEvent"]

    def test_slippage_guard(self, setup):
        state, pool = setup
        tx = Transaction(sender=TRADER, nonce=0, to=pool.address)
        ctx = ExecutionContext(state, tx, block_number=1,
                               coinbase=MINER)
        quote = pool.quote_out(state, "WETH", ether(1))
        with pytest.raises(Revert):
            pool.swap(ctx, "WETH", ether(1), TRADER,
                      min_amount_out=quote + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedPool(venue="B", token0="A", token1="A")
        with pytest.raises(ValueError):
            WeightedPool(venue="B", token0="A", token1="C", weight0=0)
