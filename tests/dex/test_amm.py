"""Tests for constant-product AMM math, the shared pool shell, and swap
execution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chain.execution import ExecutionContext, Revert
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.events import SwapEvent, SyncEvent
from repro.chain.types import address_from_label, ether
from repro.dex.amm import (
    ConstantProductPool,
    Pool,
    get_amount_in,
    get_amount_out,
)
from repro.dex.stableswap import StableSwapPool
from repro.dex.weighted import WeightedPool

TRADER = address_from_label("trader")
MINER = address_from_label("miner")

reserves_st = st.integers(10**6, 10**27)
amounts_st = st.integers(1, 10**24)


class TestGetAmountOut:
    def test_known_value(self):
        # 1 in, 100/100 reserves, 0.3% fee → floor(0.997*100/100.997)
        out = get_amount_out(ether(1), ether(100), ether(100))
        assert out == 987_158_034_397_061_298

    def test_zero_fee_is_pure_constant_product(self):
        out = get_amount_out(1_000, 10**6, 10**6, fee_bps=0)
        assert out == (1_000 * 10**6) // (10**6 + 1_000)

    def test_rejects_nonpositive_input(self):
        with pytest.raises(ValueError):
            get_amount_out(0, 10**6, 10**6)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            get_amount_out(10, 0, 10**6)

    @given(amounts_st, reserves_st, reserves_st)
    def test_output_below_reserves(self, amount_in, r_in, r_out):
        assert get_amount_out(amount_in, r_in, r_out) < r_out

    @given(amounts_st, reserves_st, reserves_st)
    def test_invariant_never_decreases(self, amount_in, r_in, r_out):
        out = get_amount_out(amount_in, r_in, r_out)
        assert (r_in + amount_in) * (r_out - out) >= r_in * r_out

    @given(amounts_st, reserves_st, reserves_st)
    def test_monotone_in_input(self, amount_in, r_in, r_out):
        smaller = get_amount_out(amount_in, r_in, r_out)
        larger = get_amount_out(amount_in + 1, r_in, r_out)
        assert larger >= smaller

    @given(amounts_st, reserves_st, reserves_st)
    def test_round_trip_loses_money(self, amount_in, r_in, r_out):
        """Swapping there and back can never profit (no-free-money)."""
        out = get_amount_out(amount_in, r_in, r_out)
        if out == 0:
            return
        back = get_amount_out(out, r_out - out, r_in + amount_in)
        assert back <= amount_in


class TestGetAmountIn:
    @given(st.integers(1, 10**5), reserves_st, reserves_st)
    def test_quote_in_covers_quote_out(self, amount_out, r_in, r_out):
        if amount_out >= r_out:
            return
        needed = get_amount_in(amount_out, r_in, r_out)
        assert get_amount_out(needed, r_in, r_out) >= amount_out

    def test_rejects_draining_pool(self):
        with pytest.raises(ValueError):
            get_amount_in(10**6, 10**6, 10**6)


@pytest.fixture
def setup():
    state = WorldState()
    pool = ConstantProductPool(venue="UniswapV2", token0="WETH",
                               token1="DAI")
    pool.add_liquidity(state, WETH=ether(1_000), DAI=ether(3_000_000))
    state.mint_token("WETH", TRADER, ether(100))
    state.mint_token("DAI", TRADER, ether(100_000))
    return state, pool


def make_ctx(state, pool):
    tx = Transaction(sender=TRADER, nonce=0, to=pool.address)
    return ExecutionContext(state, tx, block_number=1, coinbase=MINER,
                            contracts={pool.address: pool})


class TestPoolConstruction:
    def test_tokens_canonically_ordered(self):
        pool = ConstantProductPool(venue="X", token0="WETH", token1="DAI")
        assert (pool.token0, pool.token1) == ("DAI", "WETH")

    def test_same_token_rejected(self):
        with pytest.raises(ValueError):
            ConstantProductPool(venue="X", token0="DAI", token1="DAI")

    def test_address_deterministic(self):
        a = ConstantProductPool(venue="X", token0="A", token1="B")
        b = ConstantProductPool(venue="X", token0="B", token1="A")
        assert a.address == b.address

    def test_fee_range_enforced(self):
        with pytest.raises(ValueError):
            ConstantProductPool(venue="X", token0="A", token1="B",
                                fee_bps=10_000)


class TestPoolQueries:
    def test_reserves(self, setup):
        state, pool = setup
        assert pool.reserve_of(state, "WETH") == ether(1_000)
        assert pool.reserve_of(state, "DAI") == ether(3_000_000)

    def test_other(self, setup):
        _, pool = setup
        assert pool.other("WETH") == "DAI"
        assert pool.other("DAI") == "WETH"
        with pytest.raises(ValueError):
            pool.other("USDC")

    def test_spot_price(self, setup):
        state, pool = setup
        assert pool.spot_price(state, "WETH") == pytest.approx(3_000.0)

    def test_quote_matches_formula(self, setup):
        state, pool = setup
        quote = pool.quote_out(state, "WETH", ether(1))
        manual = get_amount_out(ether(1), ether(1_000), ether(3_000_000))
        assert quote == manual


class TestSwapExecution:
    def test_swap_moves_tokens(self, setup):
        state, pool = setup
        ctx = make_ctx(state, pool)
        quoted = pool.quote_out(state, "WETH", ether(1))
        out = pool.swap(ctx, "WETH", ether(1), TRADER)
        assert out == quoted
        assert state.token_balance("WETH", TRADER) == ether(99)
        assert state.token_balance("DAI", TRADER) == ether(100_000) + out

    def test_swap_emits_swap_and_sync(self, setup):
        state, pool = setup
        ctx = make_ctx(state, pool)
        pool.swap(ctx, "WETH", ether(1), TRADER)
        kinds = [type(log).__name__ for log in ctx.logs]
        assert kinds == ["SwapEvent", "SyncEvent"]
        swap = ctx.logs[0]
        assert swap.venue == "UniswapV2"
        assert swap.token_in == "WETH"
        assert swap.amount_in == ether(1)

    def test_sync_reports_post_swap_reserves(self, setup):
        state, pool = setup
        ctx = make_ctx(state, pool)
        pool.swap(ctx, "WETH", ether(1), TRADER)
        sync = ctx.logs[1]
        assert (sync.reserve0, sync.reserve1) == pool.reserves(state)

    def test_slippage_guard_reverts(self, setup):
        state, pool = setup
        ctx = make_ctx(state, pool)
        quoted = pool.quote_out(state, "WETH", ether(1))
        with pytest.raises(Revert):
            pool.swap(ctx, "WETH", ether(1), TRADER,
                      min_amount_out=quoted + 1)

    def test_swap_without_funds_fails(self, setup):
        state, pool = setup
        ctx = make_ctx(state, pool)
        from repro.chain.state import InsufficientBalance
        with pytest.raises(InsufficientBalance):
            pool.swap(ctx, "WETH", ether(101), TRADER)

    def test_consecutive_swaps_worsen_price(self, setup):
        state, pool = setup
        ctx = make_ctx(state, pool)
        first = pool.swap(ctx, "WETH", ether(1), TRADER)
        second = pool.swap(ctx, "WETH", ether(1), TRADER)
        assert second < first


# One pool of each curve, built with its tokens out of canonical order
# (and, for the weighted pool, unequal weights) so ordering is exercised.
SHELL_KINDS = {
    "constant-product": lambda: ConstantProductPool("UniswapV2", "WETH",
                                                    "DAI"),
    "stableswap": lambda: StableSwapPool("Curve", "WETH", "DAI", 100),
    "weighted": lambda: WeightedPool("Balancer", "WETH", "DAI", 4, 1),
}


@pytest.mark.parametrize("kind", sorted(SHELL_KINDS))
class TestPoolShell:
    """The behaviour every curve inherits from :class:`Pool`."""

    @pytest.fixture
    def funded(self, kind):
        state = WorldState()
        pool = SHELL_KINDS[kind]()
        pool.add_liquidity(state, WETH=ether(1_000), DAI=ether(900_000))
        state.mint_token("WETH", TRADER, ether(10))
        return state, pool

    def test_is_a_pool(self, kind):
        assert isinstance(SHELL_KINDS[kind](), Pool)

    def test_amount_out_equals_quote_out_both_ways(self, funded):
        state, pool = funded
        for token_in, amount in (("WETH", ether(3)), ("DAI", ether(500))):
            reserve_in = pool.reserve_of(state, token_in)
            reserve_out = pool.reserve_of(state, pool.other(token_in))
            assert pool.amount_out(amount, reserve_in, reserve_out,
                                   token_in) == \
                pool.quote_out(state, token_in, amount) > 0

    def test_non_member_token_raises(self, funded):
        state, pool = funded
        with pytest.raises(ValueError, match="not in pool"):
            pool.other("USDC")
        with pytest.raises(ValueError, match="not in pool"):
            pool.reserve_of(state, "USDC")
        with pytest.raises(ValueError, match="not in pool"):
            pool.add_liquidity(state, USDC=1)
        assert not pool.has_token("USDC")

    def test_canonical_order_carries_the_weights(self, kind):
        pool = SHELL_KINDS[kind]()
        assert (pool.token0, pool.token1) == ("DAI", "WETH")
        twin = SHELL_KINDS[kind]()
        assert twin.address == pool.address
        if isinstance(pool, WeightedPool):
            assert (pool.weight0, pool.weight1) == (1, 4)
            assert pool.weight_of("WETH") == 4

    def test_swap_emits_swap_then_sync(self, funded):
        state, pool = funded
        ctx = make_ctx(state, pool)
        out = pool.swap(ctx, "WETH", ether(1), TRADER)
        assert [type(log) for log in ctx.logs] == [SwapEvent, SyncEvent]
        swap, sync = ctx.logs
        assert (swap.address, swap.token_in, swap.token_out,
                swap.amount_in, swap.amount_out) == \
            (pool.address, "WETH", "DAI", ether(1), out)
        assert (sync.reserve0, sync.reserve1) == pool.reserves(state)

    def test_swap_reverts_past_slippage_limit(self, funded):
        state, pool = funded
        ctx = make_ctx(state, pool)
        quoted = pool.quote_out(state, "WETH", ether(1))
        with pytest.raises(Revert, match="slippage"):
            pool.swap(ctx, "WETH", ether(1), TRADER,
                      min_amount_out=quoted + 1)
        assert ctx.logs == []
