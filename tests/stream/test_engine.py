"""StreamEngine: convergence on the batch pipeline, under any feed.

The engine's standing contract (ISSUE acceptance): streaming over a
faulted feed — reorgs up to depth 3, duplicates, out-of-order delivery,
an outage window — produces rows and a quality ledger *bit-identical*
to ``MevInspector.run(chunk_size=1)`` over the final canonical chain.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro import RunConfig, follow_inspector, follow_reference
from repro.chain.node import ArchiveNode
from repro.core.datasets import record_row
from repro.core.scan import Detector
from repro.faults import FAULT_PROFILES, FaultPlan
from repro.faults.feed import ChainFeed, FaultyFeed
from repro.reliability import CheckpointStore
from repro.stream import StreamDivergenceError, StreamEngine, StreamSubscriber

from tests.stream.conftest import CHAOS_SEED


def make_engine(sim_result, prices, span, confirm_depth=3, **kwargs):
    return StreamEngine(prices, first_block=span[0],
                        confirm_depth=confirm_depth,
                        flashbots_api=sim_result.flashbots_api,
                        observer=sim_result.observer, **kwargs)


class Recorder(StreamSubscriber):
    """Every ``block_indexed``/``block_retracted`` call, in order."""

    def __init__(self):
        self.calls = []

    def block_indexed(self, height, block_hash, rows):
        self.calls.append(("indexed", height, block_hash))

    def block_retracted(self, height, block_hash, rows_retracted):
        self.calls.append(("retracted", height, block_hash))


class TestConvergence:
    @pytest.mark.parametrize("fault_seed",
                             [CHAOS_SEED, CHAOS_SEED + 10,
                              CHAOS_SEED + 20])
    def test_faulted_stream_matches_batch(self, sim_result, prices,
                                          span, batch_baseline,
                                          fault_seed):
        plan = FaultPlan.from_profile("reorg", fault_seed, *span)
        engine = make_engine(sim_result, prices, span)
        dataset = engine.run(FaultyFeed(sim_result.blockchain, plan))
        assert dataset.fingerprint() == batch_baseline.fingerprint()
        # The convergence was earned, not vacuous: the feed actually
        # reorged, duplicated, and delivered out of order.
        report = engine.report
        assert report.reorgs > 0
        assert report.max_reorg_depth == 3
        assert report.duplicates > 0
        assert report.out_of_order > 0
        assert report.retracted_blocks > 0
        assert len(report.ledger) == report.retracted_blocks

    def test_stream_detects_without_archive_reads(self, sim_result,
                                                  prices, span,
                                                  batch_baseline,
                                                  monkeypatch):
        """Each announced block is scanned in hand: a reorg-heavy
        follow that can never read an archive node still converges."""
        def no_archive(self, *args, **kwargs):
            raise RuntimeError("the stream engine read an archive node")

        monkeypatch.setattr(ArchiveNode, "iter_blocks", no_archive)
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        engine = make_engine(sim_result, prices, span)
        dataset = engine.run(FaultyFeed(sim_result.blockchain, plan))
        assert dataset.fingerprint() == batch_baseline.fingerprint()
        assert engine.report.reorgs > 0

    def test_clean_feed_matches_batch(self, sim_result, prices, span,
                                      batch_baseline):
        engine = make_engine(sim_result, prices, span)
        dataset = engine.run(ChainFeed(sim_result.blockchain))
        assert dataset.fingerprint() == batch_baseline.fingerprint()
        report = engine.report
        assert report.reorgs == 0
        assert report.duplicates == 0
        assert report.out_of_order == 0
        assert report.appended == len(sim_result.blockchain.blocks)

    def test_confirmation_lag_floor_is_confirm_depth(self, sim_result,
                                                     prices, span):
        """Every height confirmed *during* the stream lags the head by
        at least ``confirm_depth``; only the finalize flush goes
        shallower."""
        engine = make_engine(sim_result, prices, span, confirm_depth=5)
        engine.run(ChainFeed(sim_result.blockchain))
        lags = engine.report.confirmation_lags
        assert len(lags) == len(sim_result.blockchain.blocks)
        assert min(lags) == 0  # the finalize flush reaches the head
        streamed = lags[:-5]
        assert streamed and min(streamed) >= 5


class TestFollowPath:
    @pytest.mark.parametrize("profile", FAULT_PROFILES)
    def test_follow_inspector_matches_reference(self, sim_result,
                                                profile):
        """The one follow path converges on its one reference — rows
        and ledger, label sources shielded under the same plan on
        both sides — whatever the fault profile."""
        config = RunConfig(fault_profile=profile, fault_seed=CHAOS_SEED)
        assert (follow_inspector(sim_result, config=config).fingerprint()
                == follow_reference(sim_result,
                                    config=config).fingerprint())


class TestWindowAndWatermark:
    def test_blocks_below_first_block_are_ignored(self, sim_result,
                                                  prices, span,
                                                  batch_baseline):
        first, last = span
        window_start = first + 3
        engine = StreamEngine(prices, first_block=window_start,
                              confirm_depth=3,
                              flashbots_api=sim_result.flashbots_api,
                              observer=sim_result.observer)
        dataset = engine.run(ChainFeed(sim_result.blockchain))
        assert engine.report.ignored == 3
        assert dataset.quality.from_block == window_start
        assert dataset.quality.to_block == last

    def test_reorg_below_watermark_diverges_loudly(self, sim_result,
                                                   prices, span):
        """``confirm_depth=0`` confirms the head itself, so the first
        reorg the feed emits must be fatal, not silently absorbed."""
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        engine = make_engine(sim_result, prices, span, confirm_depth=0)
        with pytest.raises(StreamDivergenceError) as excinfo:
            engine.run(FaultyFeed(sim_result.blockchain, plan))
        assert "watermark" in str(excinfo.value)

    def test_confirm_depth_at_reorg_depth_suffices(self, sim_result,
                                                   prices, span,
                                                   batch_baseline):
        """The documented sizing rule: ``confirm_depth >=
        max_reorg_depth`` never diverges."""
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        engine = make_engine(sim_result, prices, span,
                             confirm_depth=plan.feed.max_reorg_depth)
        dataset = engine.run(FaultyFeed(sim_result.blockchain, plan))
        assert dataset.fingerprint() == batch_baseline.fingerprint()

    def test_negative_confirm_depth_rejected(self, prices):
        with pytest.raises(ValueError):
            StreamEngine(prices, first_block=1, confirm_depth=-1)


class TestRetractionLedger:
    def test_ledger_accounts_for_every_retraction(self, sim_result,
                                                  prices, span):
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        engine = make_engine(sim_result, prices, span)
        engine.run(FaultyFeed(sim_result.blockchain, plan))
        report = engine.report
        assert sum(e.rows_retracted for e in report.ledger) \
            == report.retracted_rows
        canonical = sim_result.blockchain
        for entry in report.ledger:
            # Ledger heights are real streamed heights; the retracted
            # hash never survives as the canonical block there.
            block = canonical.block_by_number(entry.height)
            assert block is not None

    def test_empty_stream_finalizes_empty(self, prices):
        engine = StreamEngine(prices, first_block=1)
        dataset = engine.finalize()
        assert dataset.to_rows() == []
        assert dataset.quality.chunks_total == 0


class TestRescanReuse:
    def test_each_block_scanned_once(self, sim_result, prices, span,
                                     batch_baseline, monkeypatch):
        """A block a reorg retracted and the feed re-delivers is served
        from its kept payload: detection runs once per distinct
        ``(height, hash)`` the follower ever appended."""
        scanned = []
        scan_block = Detector.scan_block

        def counting_scan(detector, block):
            scanned.append((block.number, block.hash))
            return scan_block(detector, block)

        monkeypatch.setattr(Detector, "scan_block", counting_scan)
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        engine = make_engine(sim_result, prices, span)
        recorder = Recorder()
        engine.subscribe(recorder)
        dataset = engine.run(FaultyFeed(sim_result.blockchain, plan))
        appended = {(height, block_hash)
                    for kind, height, block_hash in recorder.calls
                    if kind == "indexed"}
        assert len(scanned) == len(set(scanned))
        assert set(scanned) == appended
        report = engine.report
        assert report.rescans_skipped == report.appended - len(scanned)
        assert report.rescans_skipped > 0
        assert report.payloads_reused == 0  # no checkpoint to reuse
        assert report.to_dict()["rescans_skipped"] \
            == report.rescans_skipped
        assert dataset.fingerprint() == batch_baseline.fingerprint()

    def test_kept_payloads_stay_above_watermark(self, sim_result,
                                                prices, span):
        """Retracted payloads are kept only while their height can
        still be re-delivered, never at-or-below the watermark."""
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        engine = make_engine(sim_result, prices, span)
        for event in FaultyFeed(sim_result.blockchain, plan):
            engine.ingest(event)
            assert all(height > engine.watermark
                       for height in engine._retracted)
        engine.finalize()
        assert engine.report.rescans_skipped > 0
        assert all(height > engine.watermark
                   for height in engine._retracted)

    def test_resume_counts_only_checkpoint_reuse(self, sim_result,
                                                 prices, span, tmp_path):
        """A resumed follow over a faulted feed counts as
        ``chunks_resumed`` the final canonical heights whose payload
        came from the checkpoint: at most ``chunks_total``, however
        often a reorg re-appended a checkpointed block.  Skipped
        rescans are not resumed chunks."""
        store = CheckpointStore(tmp_path / "stream.ckpt.log")
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        events = list(FaultyFeed(sim_result.blockchain, plan))
        crashed = make_engine(sim_result, prices, span, checkpoint=store)
        for event in events[:len(events) // 2]:
            crashed.ingest(event)
        saved = {height: entry["hash"]
                 for height, entry in store.load("height")[1].items()}
        resumed = make_engine(sim_result, prices, span, checkpoint=store,
                              resume=True)
        recorder = Recorder()
        resumed.subscribe(recorder)
        dataset = resumed.run(events)
        report = resumed.report
        from_checkpoint = sum(1 for kind, height, block_hash
                              in recorder.calls
                              if kind == "indexed"
                              and saved.get(height) == block_hash)
        assert report.payloads_reused == from_checkpoint > 0
        assert report.rescans_skipped > 0
        canonical = {block.number: block.hash
                     for block in sim_result.blockchain.blocks}
        quality = dataset.quality
        assert quality.chunks_resumed == sum(
            1 for height, block_hash in saved.items()
            if canonical.get(height) == block_hash) > 0
        assert quality.chunks_resumed <= quality.chunks_total
        assert quality.chunks_resumed <= report.payloads_reused


class TestLinkValidation:
    def test_parent_hash_mismatch_rejected_untouched(self, sim_result,
                                                     prices, span):
        blocks = sim_result.blockchain.blocks
        engine = make_engine(sim_result, prices, span)
        recorder = Recorder()
        engine.subscribe(recorder)
        for block in blocks[:2]:
            engine.ingest(block)
        head, calls = engine.head, list(recorder.calls)
        payloads = dict(engine._payloads)
        wrong = replace(blocks[2], parent_hash="0x" + "ab" * 32)
        with pytest.raises(ValueError, match="parent hash mismatch"):
            engine.ingest(wrong)
        assert engine.head == head
        assert engine._payloads == payloads
        assert recorder.calls == calls
        assert engine.report.appended == 2

    def test_unlinked_block_stamped_with_tip_hash(self, sim_result,
                                                  prices, span):
        blocks = sim_result.blockchain.blocks
        engine = make_engine(sim_result, prices, span)
        engine.ingest(blocks[0])
        unlinked = replace(blocks[1], parent_hash=None)
        engine.ingest(unlinked)
        assert unlinked.parent_hash == blocks[0].hash
        assert engine.head == blocks[1].number


class TestTypedPayloads:
    def test_finalize_twice_keeps_detection_labels(self, sim_result,
                                                   prices, span,
                                                   batch_baseline,
                                                   tmp_path):
        """The joins relabel copies: finalizing twice gives the same
        dataset, and the kept payloads and the checkpoint log still
        carry detection-time labels."""
        store = CheckpointStore(tmp_path / "stream.ckpt.log")
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        engine = make_engine(sim_result, prices, span, checkpoint=store)
        first = engine.run(FaultyFeed(sim_result.blockchain, plan))
        second = engine.finalize()
        assert first.fingerprint() == second.fingerprint() \
            == batch_baseline.fingerprint()
        # The joins did relabel the finalized dataset...
        assert any(record.via_flashbots or record.via_flashloan
                   or record.privacy is not None
                   for record in first.all_records())
        # ...but neither a kept payload nor the checkpoint.
        kept = [record for payload in engine._payloads.values()
                for record in payload.records]
        assert len(kept) == len(first.all_records())
        saved = [row for entry in store.load("height")[1].values()
                 for row in entry["payload"]["rows"]]
        assert len(saved) == len(kept)
        for labels in ([(r.via_flashbots, r.via_flashloan, r.privacy)
                        for r in kept],
                       [(row["via_flashbots"], row["via_flashloan"],
                         row["privacy"]) for row in saved]):
            assert set(labels) == {(False, False, None)}

    def test_indexed_records_render_as_canonical_rows(self, sim_result,
                                                      prices, span):
        """Every record ``block_indexed`` hands out renders, through
        the one renderer, to the row the serve store used to build:
        ``to_rows()`` normalized tuple-for-list, for every kind."""
        def canonical(record, kind):
            row = {name: list(value) if isinstance(value, tuple)
                   else value for name, value
                   in dataclasses.asdict(record).items()}
            row["kind"] = kind
            return row

        class Rows(StreamSubscriber):
            def __init__(self):
                self.records = []

            def block_indexed(self, height, block_hash, records):
                self.records.extend(records)

        engine = make_engine(sim_result, prices, span)
        rows = Rows()
        engine.subscribe(rows)
        engine.run(ChainFeed(sim_result.blockchain))
        kinds = {"SandwichRecord": "sandwich",
                 "ArbitrageRecord": "arbitrage",
                 "LiquidationRecord": "liquidation"}
        seen = set()
        for record in rows.records:
            kind = kinds[type(record).__name__]
            rendered = record_row(record)
            assert rendered == canonical(record, kind)
            assert list(rendered) == list(canonical(record, kind))
            seen.add(kind)
            if kind == "arbitrage":
                assert isinstance(record.venues, tuple)
                assert isinstance(rendered["venues"], list)
                assert isinstance(rendered["token_cycle"], list)
        assert seen == set(kinds.values())
