"""Tests for the Qin-et-al cyclic-arbitrage detection heuristic."""

from dataclasses import dataclass

from repro.chain.execution import ExecutionOutcome
from repro.chain.transaction import Transaction, TxIntent
from repro.chain.types import ether, gwei
from repro.core.heuristics.arbitrage import detect_arbitrages
from repro.dex.router import ArbitrageIntent

from tests.core.conftest import ATTACKER, VICTIM


@dataclass
class SwapThenSwap(TxIntent):
    """Swap on ``first``, then swap that output on ``second``: an open
    two-hop route that ends in a different token than it started."""

    first: str
    second: str
    token_in: str
    amount_in: int

    def execute(self, ctx):
        sender = ctx.tx.sender
        pool = ctx.contract(self.first)
        out = pool.swap(ctx, self.token_in, self.amount_in, sender, 0)
        nxt = ctx.contract(self.second)
        out = nxt.swap(ctx, pool.other(self.token_in), out, sender, 0)
        return ExecutionOutcome(success=True, gas_used=240_000,
                                return_data=out)


def arb_tx(harness, route, amount=ether(5), sender=ATTACKER, tip=0):
    return Transaction(
        sender=sender, nonce=harness.state.nonce(sender),
        to=route[0], gas_limit=500_000, gas_price=gwei(50),
        intent=ArbitrageIntent(route=route, token_in="WETH",
                               amount_in=amount, min_profit=1,
                               coinbase_tip=tip))


class TestDetection:
    def test_two_hop_cycle_found(self, harness):
        tx = arb_tx(harness, [harness.sushi.address,
                              harness.uni.address])
        harness.mine([tx])
        records = detect_arbitrages(harness.node, harness.prices)
        assert len(records) == 1
        record = records[0]
        assert record.extractor == ATTACKER
        assert record.tx_hash == tx.hash
        assert record.token_cycle[0] == record.token_cycle[-1] == "WETH"
        assert set(record.venues) == {"SushiSwap", "UniswapV2"}
        assert record.gain_wei > 0
        assert record.profit_wei > 0

    def test_cost_includes_tip(self, harness):
        harness.state.credit_eth(ATTACKER, ether(10))
        tx = arb_tx(harness, [harness.sushi.address,
                              harness.uni.address], tip=ether(1))
        harness.mine([tx])
        record = detect_arbitrages(harness.node, harness.prices)[0]
        assert record.cost_wei >= ether(1)

    def test_single_swap_not_arbitrage(self, harness):
        tx = harness.swap_tx(ATTACKER, harness.uni, "WETH", ether(5))
        harness.mine([tx])
        assert detect_arbitrages(harness.node, harness.prices) == []

    def test_open_multihop_not_arbitrage(self, harness):
        """A WETH→DAI→... route that doesn't close is a plain trade."""
        link = harness.registry.create_pool("UniswapV2", "DAI", "LINK")
        link.add_liquidity(harness.state, DAI=ether(1_000_000),
                           LINK=ether(130_000))
        harness.contracts[link.address] = link
        tx = Transaction(
            sender=VICTIM, nonce=harness.state.nonce(VICTIM),
            to=harness.uni.address, gas_limit=500_000,
            gas_price=gwei(50),
            intent=SwapThenSwap(harness.uni.address, link.address,
                                token_in="WETH", amount_in=ether(2)))
        _, receipts = harness.mine([tx])
        assert receipts[0].status
        assert detect_arbitrages(harness.node, harness.prices) == []

    def test_reverted_arbitrage_not_counted(self, harness):
        """Losing an arbitrage race leaves a revert, not a record."""
        winner = arb_tx(harness, [harness.sushi.address,
                                  harness.uni.address], amount=ether(3))
        loser = arb_tx(harness, [harness.sushi.address,
                                 harness.uni.address], amount=ether(3),
                       sender=VICTIM)
        _, receipts = harness.mine([winner, loser])
        assert receipts[0].status
        assert not receipts[1].status
        records = detect_arbitrages(harness.node, harness.prices)
        assert len(records) == 1
        assert records[0].extractor == ATTACKER

    def test_amateur_arbitrage_also_detected(self, harness):
        """The heuristic catches victims' naive arbs too (the paper's
        3.4 M arbitrages include everyone)."""
        tx = arb_tx(harness, [harness.sushi.address,
                              harness.uni.address], sender=VICTIM)
        harness.mine([tx])
        records = detect_arbitrages(harness.node, harness.prices)
        assert len(records) == 1
        assert records[0].extractor == VICTIM

    def test_block_range_filter(self, harness):
        harness.mine([arb_tx(harness, [harness.sushi.address,
                                       harness.uni.address])])
        assert detect_arbitrages(harness.node, harness.prices,
                                 from_block=2) == []
