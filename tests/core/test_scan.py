"""Tests for the single-pass block scan (``repro.core.scan``).

The fused pass must be a pure refactor of the four standalone
detectors: same records, same order, same flash-loan transaction set —
on surgical harness chains and on a full simulated study window alike,
over every read path (sliced, linear, segment-backed).
"""

import pytest

from repro.chain.events import (
    FlashLoanEvent,
    LiquidationEvent,
    OracleUpdateEvent,
    SwapEvent,
)
from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.segments import SegmentStore
from repro.core.heuristics import (
    detect_arbitrages,
    detect_flash_loan_txs,
    detect_liquidations,
    detect_sandwiches,
)
from repro.core.datasets import SandwichRecord
from repro.core.profit import PriceService
from repro.core.heuristics import (
    ArbitrageVisitor,
    FlashLoanVisitor,
    LiquidationVisitor,
    SandwichVisitor,
)
from repro.core.scan import BlockView, Detector
from repro.sim import ScenarioConfig, build_paper_scenario

from tests.chain.test_node import chain_of, make_block, make_receipt


class TestBlockView:
    def test_buckets_follow_receipt_status(self):
        swap = SwapEvent("0xpool", venue="UniswapV2")
        liq = LiquidationEvent("0xlending", platform="AaveV2")
        flash_ok = FlashLoanEvent("0xaave", platform="Aave")
        flash_failed = FlashLoanEvent("0xaave", platform="Aave")
        swap_failed = SwapEvent("0xpool", venue="UniswapV2")
        block = make_block(1, [
            make_receipt(1, 0, [swap, liq, flash_ok]),
            make_receipt(1, 1, [swap_failed, flash_failed],
                         status=False),
        ])
        view = BlockView.of(block)
        # Swaps and liquidations come from successful receipts only;
        # flash loans are status-blind (get_logs never filtered).
        assert [s for _, swaps in view.swap_receipts for s in swaps] \
            == [swap]
        assert view.liquidations == [liq]
        assert view.flash_loans == [flash_ok, flash_failed]

    def test_swapless_receipts_are_dropped(self):
        block = make_block(1, [
            make_receipt(1, 0, [LiquidationEvent("0xl",
                                                 platform="AaveV2")]),
            make_receipt(1, 1, []),
        ])
        view = BlockView.of(block)
        assert view.swap_receipts == []
        assert len(view.liquidations) == 1

    def test_unrelated_events_ignored(self):
        block = make_block(1, [make_receipt(1, 0, [
            OracleUpdateEvent("0xl", token="WETH")])])
        view = BlockView.of(block)
        assert view.swap_receipts == []
        assert view.liquidations == []
        assert view.flash_loans == []


VISITORS = (SandwichVisitor, ArbitrageVisitor, LiquidationVisitor,
            FlashLoanVisitor)


class TestBlockScanDispatch:
    def test_each_visitor_sees_every_block_once_in_order(
            self, harness, monkeypatch):
        seen = {cls: [] for cls in VISITORS}
        for cls in VISITORS:
            def recording(visitor, view, _cls=cls, _visit=cls.visit):
                seen[_cls].append(view.block.number)
                _visit(visitor, view)

            monkeypatch.setattr(cls, "visit", recording)
        Detector(harness.prices).scan_range(
            ArchiveNode(chain_of([], [], [])))
        assert all(numbers == [1, 2, 3] for numbers in seen.values())


class TestScanRangeEquivalence:
    """``scan_range`` == the four standalone detectors, record for
    record — the refactor's correctness contract."""

    def assert_equivalent(self, node, prices, lo=None, hi=None):
        payload = Detector(prices).scan_range(node, lo, hi)
        assert payload.records == (
            *detect_sandwiches(node, prices, lo, hi),
            *detect_arbitrages(node, prices, lo, hi),
            *detect_liquidations(node, prices, lo, hi))
        assert payload.flash_txs == detect_flash_loan_txs(node, lo, hi)
        return payload

    def test_on_harness_sandwich(self, harness):
        harness.mine_sandwich()
        payload = self.assert_equivalent(harness.node, harness.prices)
        assert [type(record) for record in payload.records] \
            == [SandwichRecord]

    def test_on_empty_range(self, harness):
        harness.mine_sandwich()
        payload = Detector(harness.prices).scan_range(harness.node,
                                                      99, 120)
        assert payload.records == ()
        assert payload.flash_txs == set()

    def test_on_simulated_study_window(self, tmp_path):
        from repro.chain.transaction import reset_tx_counter
        reset_tx_counter()
        config = ScenarioConfig(blocks_per_month=8, seed=11,
                                epoch_blocks=8)
        world = build_paper_scenario(config)
        world.attach_segment_store(SegmentStore.create(str(tmp_path)),
                                   max_resident_epochs=2)
        result = world.run()
        prices = PriceService(result.oracle)
        # The spilled chain keeps only a resident tail in memory; read
        # it back whole for the in-memory read paths.
        spilled = ArchiveNode(result.blockchain)
        chain = Blockchain()
        for block in result.blockchain.iter_range():
            chain.append(block)
        assert len(result.blockchain.blocks) < len(chain)
        first, last = chain.blocks[0].number, chain.height
        dataset = self.assert_equivalent(ArchiveNode(chain), prices,
                                         first, last)
        # The segment-backed read path scans to the same records.
        assert dataset == self.assert_equivalent(spilled, prices, first,
                                                 last)
        assert dataset.records  # the window actually has MEV

    def test_single_blocks_in_seeded_order_over_spilled_store(
            self, tmp_path):
        """The spot-lookup pattern of a spilled re-study: one block at
        a time, in a seeded random order, through a one-segment LRU —
        every read jumps epochs, yet the rows equal the in-memory
        chain's block for block."""
        import random

        from repro.chain.transaction import reset_tx_counter
        reset_tx_counter()
        config = ScenarioConfig(blocks_per_month=8, seed=11,
                                epoch_blocks=8)
        world = build_paper_scenario(config)
        world.attach_segment_store(SegmentStore.create(str(tmp_path)),
                                   max_resident_epochs=1)
        result = world.run()
        prices = PriceService(result.oracle)
        spilled = ArchiveNode(result.blockchain)
        chain = Blockchain()
        for block in result.blockchain.iter_range():
            chain.append(block)
        memory = ArchiveNode(chain)
        numbers = [block.number for block in chain.blocks]
        rows = 0
        detector = Detector(prices)
        for number in random.Random(5).sample(numbers, len(numbers)):
            payload = detector.scan_range(spilled, number, number)
            assert payload == detector.scan_range(
                memory, number, number), number
            rows += len(payload.records)
        assert len(result.blockchain.reader.resident_epochs) == 1
        assert rows  # the window actually has MEV


@pytest.fixture(scope="module")
def default_world():
    from repro.chain.transaction import reset_tx_counter
    reset_tx_counter()
    return build_paper_scenario(
        ScenarioConfig(blocks_per_month=20, seed=7)).run()


class LinearScanNode(ArchiveNode):
    """A node whose ranged reads walk the whole chain from its first
    block: a reference read path that shares nothing with the chain's
    offset slicing."""

    def iter_blocks(self, from_block=None, to_block=None):
        for block in self.chain.iter_range():
            if from_block is not None and block.number < from_block:
                continue
            if to_block is not None and block.number > to_block:
                break
            yield block


class TestScanBlock:
    """``Detector.scan_block`` over a block in hand is ``scan_range``
    over that block's one-block range: the stream detects exactly as
    batch does."""

    @pytest.mark.parametrize("node_class", [ArchiveNode, LinearScanNode],
                             ids=["indexed", "linear"])
    def test_matches_one_block_scan_range(self, default_world,
                                          node_class):
        prices = PriceService(default_world.oracle)
        node = node_class(default_world.blockchain)
        detector = Detector(prices)
        rows = flash_txs = 0
        for block in default_world.blockchain.blocks:
            number = block.number
            payload = detector.scan_block(block)
            assert payload == detector.scan_range(node, number, number)
            rows += len(payload.records)
            flash_txs += len(payload.flash_txs)
        assert rows and flash_txs  # the window actually has MEV
