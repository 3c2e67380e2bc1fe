"""Tests for swap/arbitrage intents executed through full transactions."""

import pytest

from repro.chain.block import BlockBuilder
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label, ether, gwei
from repro.dex.registry import SUSHISWAP, UNISWAP_V2, ExchangeRegistry
from repro.dex.router import ArbitrageIntent, SwapIntent

TRADER = address_from_label("trader")
MINER = address_from_label("miner")


@pytest.fixture
def world():
    state = WorldState()
    registry = ExchangeRegistry()
    uni = registry.create_pool(UNISWAP_V2, "WETH", "DAI")
    sushi = registry.create_pool(SUSHISWAP, "WETH", "DAI")
    link = registry.create_pool(UNISWAP_V2, "DAI", "LINK")
    uni.add_liquidity(state, WETH=ether(1_000), DAI=ether(3_000_000))
    sushi.add_liquidity(state, WETH=ether(1_000), DAI=ether(3_300_000))
    link.add_liquidity(state, DAI=ether(3_000_000), LINK=ether(400_000))
    state.credit_eth(TRADER, ether(10))
    state.mint_token("WETH", TRADER, ether(100))
    return state, registry, uni, sushi, link


def run(state, registry, intent, gas_limit=500_000):
    tx = Transaction(sender=TRADER, nonce=state.nonce(TRADER),
                     to=registry.pools[0].address, gas_price=gwei(10),
                     gas_limit=gas_limit, intent=intent)
    builder = BlockBuilder(state, number=1, timestamp=13, coinbase=MINER,
                           base_fee=0, contracts=registry.contracts)
    receipt = builder.apply_transaction(tx)
    builder.finalize()
    return receipt


class TestSwapIntent:
    def test_simple_swap(self, world):
        state, registry, uni, *_ = world
        receipt = run(state, registry,
                      SwapIntent(uni.address, "WETH", ether(1)))
        assert receipt.status
        assert state.token_balance("DAI", TRADER) > 0

    def test_slippage_reverts_whole_tx(self, world):
        state, registry, uni, *_ = world
        receipt = run(state, registry,
                      SwapIntent(uni.address, "WETH", ether(1),
                                 min_amount_out=ether(10_000)))
        assert not receipt.status
        assert state.token_balance("WETH", TRADER) == ether(100)

    def test_coinbase_tip_paid_on_success(self, world):
        state, registry, uni, *_ = world
        receipt = run(state, registry,
                      SwapIntent(uni.address, "WETH", ether(1),
                                 coinbase_tip=ether(1)))
        assert receipt.coinbase_transfer == ether(1)

    def test_unknown_pool_reverts(self, world):
        state, registry, *_ = world
        receipt = run(state, registry,
                      SwapIntent(address_from_label("nowhere"), "WETH",
                                 ether(1)))
        assert not receipt.status

    def test_nonpositive_amount_reverts(self, world):
        state, registry, uni, *_ = world
        receipt = run(state, registry, SwapIntent(uni.address, "WETH", 0))
        assert not receipt.status


class TestArbitrageIntent:
    def test_profitable_cycle_succeeds(self, world):
        state, registry, uni, sushi, _ = world
        # WETH cheap on uni → buy DAI.. wait: WETH price: uni 3000, sushi
        # 3300.  Buy WETH where cheap in DAI terms: route DAI→? Start in
        # WETH: sell WETH on sushi (dear), buy back on uni (cheap).
        intent = ArbitrageIntent(route=[sushi.address, uni.address],
                                 token_in="WETH", amount_in=ether(5))
        receipt = run(state, registry, intent)
        assert receipt.status
        assert state.token_balance("WETH", TRADER) > ether(100)

    def test_unprofitable_cycle_reverts(self, world):
        state, registry, uni, sushi, _ = world
        # Wrong direction: buy dear, sell cheap.
        intent = ArbitrageIntent(route=[uni.address, sushi.address],
                                 token_in="WETH", amount_in=ether(5))
        receipt = run(state, registry, intent)
        assert not receipt.status
        assert state.token_balance("WETH", TRADER) == ether(100)

    def test_open_cycle_reverts(self, world):
        state, registry, uni, _, link = world
        intent = ArbitrageIntent(route=[uni.address, link.address],
                                 token_in="WETH", amount_in=ether(1))
        receipt = run(state, registry, intent)
        assert not receipt.status

    def test_min_profit_enforced(self, world):
        state, registry, uni, sushi, _ = world
        intent = ArbitrageIntent(route=[sushi.address, uni.address],
                                 token_in="WETH", amount_in=ether(5),
                                 min_profit=ether(10_000))
        receipt = run(state, registry, intent)
        assert not receipt.status

