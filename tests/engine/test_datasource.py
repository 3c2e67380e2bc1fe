"""The three typed data sources, their fault chain, and ``shield``.

Every query runs ``fetch(op, *args)``: the caller's retry/breaker (when
armed), then the plan's transient decision, then its unrecoverable
degradation, then the raw source.  These tests pin each stage directly
against the raw objects of one simulated world.
"""

import pytest

from repro.chain.events import SwapEvent
from repro.faults import FaultPlan, FaultSpec
from repro.faults.errors import (
    DataSourceError,
    MalformedResponseError,
    SourceGapError,
    TransportError,
    TransportTimeout,
)
from repro.reliability import (
    ArchiveSource,
    FlashbotsSource,
    MempoolSource,
    render_key,
    shield,
)


class TestRenderKey:
    """The rendered key seeds retry jitter: its format is frozen."""

    def test_no_args(self):
        assert render_key(()) == "-"

    def test_single_arg(self):
        assert render_key((123,)) == "123"

    def test_range(self):
        assert render_key((10, 20)) == "10-20"

    def test_typed_log_query(self):
        assert render_key((SwapEvent, 1, 5)) == "SwapEvent:1-5"

    def test_none_bounds(self):
        assert render_key((None, None)) == "None-None"


def _first_tx(node, number):
    return node.get_block(number).transactions[0].hash


class TestAdapters:
    """Each source puts a raw surface behind ``fetch(op, *args)``."""

    def test_archive_adapter(self, sim_result):
        source = ArchiveSource(sim_result.node)
        assert source.name == "archive"
        latest = source.fetch("latest_block_number")
        assert latest == sim_result.node.latest_block_number()

    def test_archive_adapter_materializes_iterators(self, sim_result):
        source = ArchiveSource(sim_result.node)
        blocks = source.fetch("iter_blocks", 1, 5)
        assert isinstance(blocks, list) and len(blocks) == 5

    def test_mempool_adapter_reports_downtime(self, sim_result):
        source = MempoolSource(sim_result.observer)
        assert source.name == "mempool"
        assert source.downtime_ranges == \
            tuple(sim_result.observer.downtime_ranges)

    def test_flashbots_adapter(self, sim_result):
        source = FlashbotsSource(sim_result.flashbots_api)
        assert source.name == "flashbots"
        count = source.fetch("block_count")
        assert count == sim_result.flashbots_api.block_count()


class TestWithoutPlan:
    """``plan=None``: every method answers exactly as the raw object."""

    def test_archive_matches_raw(self, sim_result, span):
        raw = sim_result.node
        source = ArchiveSource(raw)
        lo, hi = span[0], span[0] + 4
        tx_hash = _first_tx(raw, lo)
        assert source.latest_block_number() == raw.latest_block_number()
        assert source.earliest_block_number() == \
            raw.earliest_block_number()
        assert source.get_block(lo) is raw.get_block(lo)
        assert source.iter_blocks(lo, hi) == list(raw.iter_blocks(lo, hi))
        assert source.get_transaction(tx_hash) is \
            raw.get_transaction(tx_hash)
        assert source.get_receipt(tx_hash) is raw.get_receipt(tx_hash)
        assert source.get_logs(SwapEvent, lo, hi) == \
            raw.get_logs(SwapEvent, lo, hi)
        assert source.iter_receipts(lo, hi) == \
            list(raw.iter_receipts(lo, hi))

    def test_mempool_matches_raw(self, sim_result, span):
        raw = sim_result.observer
        source = MempoolSource(raw)
        for tx_hash in sorted(raw.observed_hashes)[:20] + ["0xmissing"]:
            assert source.was_observed(tx_hash) == raw.was_observed(tx_hash)
            assert source.first_seen(tx_hash) == raw.first_seen(tx_hash)
        for number in range(span[0], span[0] + 10):
            assert source.in_window(number) == raw.in_window(number)
            assert source.was_down(number) == raw.was_down(number)
        assert source.observed_hashes == raw.observed_hashes
        assert len(source) == len(raw)
        assert source.observed_count == raw.observed_count
        assert source.missed_count == raw.missed_count
        assert source.gossiped_total == raw.gossiped_total
        assert source.observed_coverage() == raw.observed_coverage()

    def test_flashbots_matches_raw(self, sim_result, span):
        raw = sim_result.flashbots_api
        source = FlashbotsSource(raw)
        number = raw.all_blocks()[0].block_number
        tx_hash = raw.all_blocks()[0].transactions[0].tx_hash
        assert source.all_blocks() == list(raw.all_blocks())
        assert source.blocks_until(number) == list(raw.blocks_until(number))
        assert source.get_block(number) == raw.get_block(number)
        assert source.is_flashbots_block(number) == \
            raw.is_flashbots_block(number)
        assert source.is_flashbots_tx(tx_hash) == \
            raw.is_flashbots_tx(tx_hash)
        assert source.tx_label(tx_hash) == raw.tx_label(tx_hash)
        assert source.flashbots_tx_hashes() == \
            set(raw.flashbots_tx_hashes())
        assert source.block_count() == raw.block_count()
        assert source.bundle_count() == raw.bundle_count()
        assert source.has_block_data(number) == raw.has_block_data(number)
        assert source.coverage_gaps() == list(raw.coverage_gaps())


class TestArchiveBlackout:
    """A blackout fails the four ranged reads, never point lookups."""

    @pytest.fixture
    def blacked_out(self, sim_result, span):
        number = span[0] + 3
        plan = FaultPlan(archive_blackouts=((number, number),))
        return ArchiveSource(sim_result.node, plan), number

    def test_ranged_reads_raise_gap_errors(self, blacked_out):
        source, number = blacked_out
        reads = [lambda: source.get_block(number),
                 lambda: source.iter_blocks(number - 2, number + 2),
                 lambda: source.get_logs(SwapEvent, number, number + 1),
                 lambda: source.iter_receipts(number - 1, number)]
        for read in reads:
            with pytest.raises(SourceGapError, match=f"{number}-{number}"):
                read()

    def test_reads_outside_the_blackout_pass(self, blacked_out,
                                             sim_result):
        source, number = blacked_out
        assert source.get_block(number + 1) is \
            sim_result.node.get_block(number + 1)
        assert len(source.iter_blocks(number + 1, number + 3)) == 3

    def test_receipt_lookup_is_not_blacked_out(self, blacked_out,
                                               sim_result):
        source, number = blacked_out
        tx_hash = _first_tx(sim_result.node, number)
        assert source.get_receipt(tx_hash) is \
            sim_result.node.get_receipt(tx_hash)
        assert source.get_transaction(tx_hash) is not None


class TestTransientFaults:
    """Each fault kind raises its class for N attempts, then heals."""

    @pytest.mark.parametrize("timeout, malformed, error_cls", [
        (1.0, 0.0, TransportTimeout),
        (0.0, 1.0, MalformedResponseError),
        (0.0, 0.0, TransportError),
    ])
    def test_kind_then_heal(self, sim_result, span, timeout, malformed,
                            error_cls):
        spec = FaultSpec(fault_rate=1.0, max_failures=3,
                         timeout_share=timeout, malformed_share=malformed)
        plan = FaultPlan(seed=4, archive=spec)
        source = ArchiveSource(sim_result.node, plan)
        number = span[0] + 2
        failures = plan.decide("archive", "get_block",
                               str(number)).failures
        for attempt in range(1, failures + 1):
            with pytest.raises(DataSourceError) as raised:
                source.get_block(number)
            assert type(raised.value) is error_cls
            assert f"archive.get_block({number})" in str(raised.value)
            assert f"[attempt {attempt}/{failures}]" in str(raised.value)
        assert source.get_block(number) is sim_result.node.get_block(number)

    def test_shielded_source_absorbs_the_faults(self, sim_result, span):
        spec = FaultSpec(fault_rate=1.0, max_failures=2)
        plan = FaultPlan(seed=4, archive=spec)
        node, _, _ = shield(sim_result.node, plan=plan)
        number = span[0] + 2
        failures = plan.decide("archive", "get_block",
                               str(number)).failures
        assert node.get_block(number) is sim_result.node.get_block(number)
        assert node.caller.stats.requests == 1
        assert node.caller.stats.retries == failures

    def test_fresh_copy_replays_the_faults(self, sim_result, span):
        spec = FaultSpec(fault_rate=1.0, max_failures=2)
        node, _, _ = shield(sim_result.node,
                            plan=FaultPlan(seed=4, archive=spec))
        number = span[0] + 2
        node.get_block(number)
        first = node.caller.stats.retries
        copy = node.fresh()
        assert copy.caller is not node.caller
        assert copy.caller.retry is node.caller.retry
        copy.get_block(number)
        assert copy.caller.stats.retries == first > 0


class TestMempoolDowntime:
    @pytest.fixture
    def hidden(self, sim_result):
        raw = sim_result.observer
        tx_hash = sorted(raw.observed_hashes)[0]
        seen = raw.first_seen(tx_hash)
        plan = FaultPlan(observer_downtime=((seen, seen),))
        return MempoolSource(raw, plan), tx_hash, seen

    def test_downtime_hides_the_observation(self, hidden, sim_result):
        source, tx_hash, seen = hidden
        assert source.was_observed(tx_hash) is False
        assert source.first_seen(tx_hash) is None
        assert tx_hash not in source.observed_hashes
        assert source.was_down(seen)
        assert sim_result.observer.was_observed(tx_hash)  # raw untouched

    def test_hidden_observations_count_as_missed(self, hidden,
                                                 sim_result):
        source, _, _ = hidden
        raw = sim_result.observer
        hidden_count = raw.observed_count - source.observed_count
        assert hidden_count >= 1
        assert source.missed_count == raw.missed_count + hidden_count
        assert source.observed_count + source.missed_count \
            == source.gossiped_total == raw.gossiped_total
        assert len(source) == source.observed_count

    def test_downtime_ranges_merge(self, hidden, sim_result):
        source, _, seen = hidden
        assert source.downtime_ranges == tuple(sorted(
            set(sim_result.observer.downtime_ranges) | {(seen, seen)}))


class TestFlashbotsGaps:
    @pytest.fixture
    def gapped(self, sim_result):
        raw = sim_result.flashbots_api
        block = raw.all_blocks()[0]
        number = block.block_number
        plan = FaultPlan(flashbots_gaps=((number, number),))
        return FlashbotsSource(raw, plan), block

    def test_point_lookups_degrade(self, gapped):
        source, block = gapped
        tx_hash = block.transactions[0].tx_hash
        assert source.get_block(block.block_number) is None
        assert source.is_flashbots_block(block.block_number) is False
        assert source.is_flashbots_tx(tx_hash) is False
        assert source.tx_label(tx_hash) is None
        assert source.has_block_data(block.block_number) is False
        assert (block.block_number, block.block_number) in \
            source.coverage_gaps()

    def test_listings_filter_the_gap(self, gapped, sim_result):
        source, block = gapped
        raw = sim_result.flashbots_api
        assert block not in source.all_blocks()
        assert len(source.all_blocks()) == len(raw.all_blocks()) - 1
        assert block not in source.blocks_until(block.block_number)
        assert not {row.tx_hash for row in block.transactions} \
            & source.flashbots_tx_hashes()
        assert source.block_count() == raw.block_count() - 1
        assert source.bundle_count() == \
            raw.bundle_count() - block.bundle_count

    def test_counts_pass_the_all_blocks_gate(self, sim_result):
        spec = FaultSpec(fault_rate=1.0, max_failures=2)
        plan = FaultPlan(seed=9, flashbots=spec)
        source = FlashbotsSource(sim_result.flashbots_api, plan)
        own = plan.decide("flashbots", "block_count", "-").failures
        gate = plan.decide("flashbots", "all_blocks", "-").failures
        for _ in range(own):
            with pytest.raises(Exception, match=r"block_count\(-\)"):
                source.block_count()
        for _ in range(gate):
            with pytest.raises(Exception, match=r"all_blocks\(-\)"):
                source.block_count()
        assert source.block_count() == \
            sim_result.flashbots_api.block_count()
        # The gate's attempts are shared with direct ``all_blocks``.
        assert source.all_blocks() == sim_result.flashbots_api.all_blocks()


class TestShimRemoved:
    """The PR 2 spelling finished its deprecation cycle in 1.5.0."""

    def test_shield_sources_is_gone(self):
        import repro.reliability as reliability
        import repro.reliability.sources as sources

        assert not hasattr(reliability, "shield" "_sources")
        assert not hasattr(sources, "shield" "_sources")
        assert "shield" "_sources" not in reliability.__all__

    def test_shield_wraps_all_three_sources(self, sim_result):
        node, observer, api = shield(
            sim_result.node, sim_result.observer,
            sim_result.flashbots_api)
        assert node.inner is sim_result.node
        assert observer.inner is sim_result.observer
        assert api.inner is sim_result.flashbots_api


class TestShield:
    def test_each_source_gets_its_own_caller(self, sim_result):
        node, observer, api = shield(sim_result.node,
                                     sim_result.observer,
                                     sim_result.flashbots_api)
        callers = [source.caller for source in (node, observer, api)]
        assert [c.source for c in callers] == \
            ["archive", "mempool", "flashbots"]
        assert len({id(c.breaker) for c in callers}) == 3
        assert len({id(c.retry) for c in callers}) == 1

    def test_fetch_counts_requests(self, sim_result):
        node, _, _ = shield(sim_result.node)
        node.get_block(1)
        node.fetch("get_block", 2)
        assert node.caller.stats.requests == 2

    def test_results_match_bare_source(self, sim_result):
        node, _, _ = shield(sim_result.node)
        assert node.get_block(1).number == \
            sim_result.node.get_block(1).number
        assert [b.number for b in node.iter_blocks(1, 3)] == \
            [b.number for b in sim_result.node.iter_blocks(1, 3)]
