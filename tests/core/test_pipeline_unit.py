"""Unit tests for the MevInspector orchestrator."""

import pytest

from repro.core.pipeline import MevInspector
from repro.core.profit import PriceService
from repro.chain.types import ether
from repro.engine import RunConfig
from repro.flashbots.api import FlashbotsBlocksApi

from tests.core.conftest import ChainHarness


@pytest.fixture
def harness():
    return ChainHarness()


class TestInspector:
    def test_minimal_configuration(self, harness):
        """API and observer are optional (pure archive-node mode)."""
        harness.mine_sandwich()
        inspector = MevInspector(harness.node, harness.prices)
        dataset = inspector.run()
        assert len(dataset.sandwiches) == 1
        assert not dataset.sandwiches[0].via_flashbots
        assert dataset.sandwiches[0].privacy is None

    def test_block_range_restriction(self, harness):
        harness.mine_sandwich()
        harness.mine_sandwich()
        inspector = MevInspector(harness.node, harness.prices)
        assert len(inspector.run(
            config=RunConfig(from_block=2)).sandwiches) == 1
        assert len(inspector.run(
            config=RunConfig(to_block=1)).sandwiches) == 1
        assert len(inspector.run().sandwiches) == 2

    def test_flashbots_join_applied(self, harness):
        front, victim, back = harness.mine_sandwich()
        api = FlashbotsBlocksApi()
        # Fake the public dataset: label both legs as Flashbots.
        from repro.flashbots.api import ApiTransaction, ApiBlock
        rows = tuple(ApiTransaction(tx_hash=tx.hash, bundle_id="0xb",
                                    bundle_type="flashbots",
                                    bundle_index=0,
                                    tx_index_in_bundle=i)
                     for i, tx in enumerate((front, back)))
        api._blocks[1] = ApiBlock(block_number=1, miner="0x" + "00" * 20,
                                  miner_reward=0, bundle_count=1,
                                  transactions=rows)
        for row in rows:
            api._tx_index[row.tx_hash] = row
        inspector = MevInspector(harness.node, harness.prices,
                                 flashbots_api=api)
        dataset = inspector.run()
        assert dataset.sandwiches[0].via_flashbots

    def test_empty_chain(self, harness):
        inspector = MevInspector(harness.node, harness.prices)
        dataset = inspector.run()
        assert dataset.totals()["total"] == 0

    def test_unpriced_tokens_dropped(self, harness):
        """Records whose tokens the price service cannot value are
        dropped, as the paper drops non-CoinGecko tokens."""
        ghost = harness.registry.create_pool("UniswapV2", "WETH",
                                             "GHOST")
        ghost.add_liquidity(harness.state, WETH=ether(100),
                            GHOST=ether(100_000))
        harness.contracts[ghost.address] = ghost
        from tests.core.conftest import ATTACKER, VICTIM
        harness.state.mint_token("GHOST", ATTACKER, ether(10_000))
        harness.state.mint_token("GHOST", VICTIM, ether(10_000))
        # The attack trades GHOST → WETH → GHOST: its gain is in GHOST
        # units, which the price service cannot value.
        front = harness.swap_tx(ATTACKER, ghost, "GHOST", ether(500))
        victim = harness.swap_tx(VICTIM, ghost, "GHOST", ether(800))
        bought = ghost.quote_out(harness.state, "GHOST", ether(500))
        back = harness.swap_tx(ATTACKER, ghost, "WETH", bought)
        back.nonce = front.nonce + 1
        _, receipts = harness.mine([front, victim, back])
        assert all(r.status for r in receipts)
        inspector = MevInspector(harness.node, harness.prices)
        assert inspector.run().sandwiches == []
