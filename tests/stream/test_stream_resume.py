"""Crash-kill a mid-stream follower, resume, and land bit-identically.

The checkpoint log holds one ``(height, hash, payload)`` record per
appended block; a resumed engine replays the feed and reuses each
payload whose identity matches the log's last record for its height — so the resumed run's dataset is
indistinguishable from the uninterrupted run's, modulo the honest
``resumed`` markers in the quality report.
"""

import json

import pytest

from repro import run_inspector
from repro.engine import RunConfig
from repro.faults import FaultPlan
from repro.faults.feed import ChainFeed, FaultyFeed
from repro.reliability import CheckpointError, CheckpointStore
from repro.stream import StreamEngine

from tests.stream.conftest import CHAOS_SEED


def modulo_resume(dataset):
    """The dataset's identity with the resume markers normalized."""
    rows, quality = dataset.fingerprint()
    document = dataset.quality.to_dict()
    document["resumed"] = False
    document["chunks_resumed"] = 0
    return rows, json.dumps(document, sort_keys=True)


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "stream.ckpt.log")


def make_engine(sim_result, prices, span, **kwargs):
    return StreamEngine(prices, first_block=span[0], confirm_depth=3,
                        flashbots_api=sim_result.flashbots_api,
                        observer=sim_result.observer, **kwargs)


class TestCrashResume:
    @pytest.mark.parametrize("feed_kind", ["clean", "faulted"])
    def test_killed_follower_resumes_bit_identical(
            self, sim_result, prices, span, store, feed_kind):
        if feed_kind == "clean":
            def feed():
                return ChainFeed(sim_result.blockchain)
        else:
            plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)

            def feed():
                return FaultyFeed(sim_result.blockchain, plan)

        uninterrupted = make_engine(sim_result, prices, span).run(feed())

        # Crash: ingest half the announcements, then vanish without
        # finalizing — the per-ingest checkpoint is all that survives.
        events = list(feed())
        crashed = make_engine(sim_result, prices, span, checkpoint=store)
        for event in events[:len(events) // 2]:
            crashed.ingest(event)
        assert store.exists()
        _, saved = store.load("height")

        resumed_engine = make_engine(sim_result, prices, span,
                                     checkpoint=store, resume=True)
        resumed = resumed_engine.run(feed())
        assert resumed_engine.report.payloads_reused > 0
        assert resumed.quality.resumed is True
        # Final canonical heights served from the checkpoint: never
        # more than the run's chunks, however often a reorg re-appended
        # a checkpointed block (``payloads_reused`` counts each time).
        quality = resumed.quality
        assert quality.chunks_resumed == sum(
            1 for height, entry in saved.items()
            if sim_result.blockchain.block_by_number(
                height).hash == entry["hash"])
        assert 0 < quality.chunks_resumed <= quality.chunks_total
        assert quality.chunks_resumed \
            <= resumed_engine.report.payloads_reused
        assert modulo_resume(resumed) == modulo_resume(uninterrupted)

    def test_resume_without_checkpoint_starts_fresh(self, sim_result,
                                                    prices, span, store):
        engine = make_engine(sim_result, prices, span, checkpoint=store,
                             resume=True)
        dataset = engine.run(ChainFeed(sim_result.blockchain))
        assert engine.report.payloads_reused == 0
        assert dataset.quality.resumed is False

    def test_stale_payloads_recomputed_not_reused(self, sim_result,
                                                  prices, span, store):
        """A checkpointed fork payload whose hash no longer matches the
        delivered block must be recomputed, never trusted."""
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        crashed = make_engine(sim_result, prices, span, checkpoint=store)
        for event in list(FaultyFeed(sim_result.blockchain, plan))[:40]:
            crashed.ingest(event)
        _, saved = store.load("height")
        # Resume over the *clean* feed: any saved fork-block payload is
        # stale; canonical heights still reuse.
        resumed_engine = make_engine(sim_result, prices, span,
                                     checkpoint=store, resume=True)
        resumed = resumed_engine.run(ChainFeed(sim_result.blockchain))
        canonical_saved = sum(
            1 for height, entry in saved.items()
            if sim_result.blockchain.block_by_number(
                height).hash == entry["hash"])
        assert resumed_engine.report.payloads_reused == canonical_saved
        baseline = make_engine(sim_result, prices, span).run(
            ChainFeed(sim_result.blockchain))
        assert modulo_resume(resumed) == modulo_resume(baseline)


class TestCheckpointIdentity:
    def test_mismatched_stream_parameters_rejected(self, sim_result,
                                                   prices, span, store):
        engine = make_engine(sim_result, prices, span, checkpoint=store)
        engine.ingest(sim_result.blockchain.blocks[0])
        with pytest.raises(CheckpointError):
            StreamEngine(prices, first_block=span[0] + 1,
                         confirm_depth=3, checkpoint=store, resume=True)
        with pytest.raises(CheckpointError):
            StreamEngine(prices, first_block=span[0], confirm_depth=7,
                         checkpoint=store, resume=True)

    def test_batch_checkpoint_rejected(self, sim_result, prices, span,
                                       store):
        store.open({"from_block": span[0], "to_block": span[1],
                    "chunk_size": 1}, "key", resume=False)
        store.append({"key": f"{span[0]}-{span[0]}", "payload": {
            "rows": [], "flash_txs": []}})
        with pytest.raises(CheckpointError):
            make_engine(sim_result, prices, span, checkpoint=store,
                        resume=True)


class LineCountingStore(CheckpointStore):
    """A checkpoint that checks, at every append, that the file is its
    header plus exactly one line per append so far."""

    appends = 0

    def append(self, record):
        super().append(record)
        self.appends += 1
        assert self.path.read_bytes().count(b"\n") == 1 + self.appends


class TestLogGrowth:
    def test_each_chunk_and_block_appends_one_line(self, sim_result,
                                                   prices, span,
                                                   tmp_path):
        """A save costs one line whatever the run's length: a
        ``chunk_size=1`` batch run appends one per completed chunk and
        a follow over a reorging feed one per appended block."""
        batch = LineCountingStore(tmp_path / "batch.log")
        dataset = run_inspector(sim_result, config=RunConfig(
            chunk_size=1, checkpoint=batch))
        assert batch.appends == dataset.quality.chunks_completed \
            == span[1] - span[0] + 1

        stream = LineCountingStore(tmp_path / "stream.log")
        plan = FaultPlan.from_profile("reorg", CHAOS_SEED, *span)
        engine = make_engine(sim_result, prices, span, checkpoint=stream)
        engine.run(FaultyFeed(sim_result.blockchain, plan))
        assert engine.report.reorgs > 0
        assert stream.appends == engine.report.appended
