"""The ``ChunkRunner`` chunk contract.

A chunk is one ranged read: ``run_chunk((lo, hi))`` issues exactly one
archive op, ``iter_blocks(lo, hi)``, and every heuristic runs over the
blocks it returns.  Its rows must equal the standalone ``detect_*``
reference over the same range, a dead archive must give a failed
artifact instead of a crash, and a chunk's result must be a pure
function of (world, fault plan, chunk).

The chaos row comparison runs on each of seeds 1-3; the other chaos
cases seed their fault plans from ``REPRO_CHAOS_SEED`` (CI runs them
across several values), like the chaos suites' conftests.
"""

import os

import pytest

from repro.core.datasets import ChunkPayload
from repro.core.heuristics import (
    detect_arbitrages,
    detect_flash_loan_txs,
    detect_liquidations,
    detect_sandwiches,
)
from repro.core.profit import PriceService
from repro.engine import ChunkRunner
from repro.faults import FaultPlan
from repro.faults.errors import SourceGapError
from repro.reliability import ArchiveSource, shield

#: seed for the chaos-profile fault plans (CI matrix: 1, 2, 3)
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

PROFILES = ["none", "chaos", "transient", "gaps", "outage"]


def _chunks(span, size=25):
    lo, hi = span
    out = []
    while lo <= hi:
        out.append((lo, min(lo + size - 1, hi)))
        lo += size
    return out


def _plan(profile, span):
    if profile == "none":
        return None
    seed = CHAOS_SEED if profile == "chaos" else 2
    return FaultPlan.from_profile(profile, seed, *span)


def _runner(sim_result, fault_plan=None):
    shielded, _, _ = shield(sim_result.node, plan=fault_plan)
    return ChunkRunner(node=shielded, prices=PriceService(sim_result.oracle))


def _reference_payload(sim_result, chunk):
    """The chunk's payload from the standalone detectors."""
    node, prices = sim_result.node, PriceService(sim_result.oracle)
    lo, hi = chunk
    return ChunkPayload((*detect_sandwiches(node, prices, lo, hi),
                         *detect_arbitrages(node, prices, lo, hi),
                         *detect_liquidations(node, prices, lo, hi)),
                        frozenset(detect_flash_loan_txs(node, lo, hi)))


def assert_rows_match_reference(sim_result, span, plan, complete):
    """Every chunk that succeeds carries the reference payload; with
    ``complete`` every chunk must succeed."""
    runner = _runner(sim_result, plan)
    results = [runner.run_chunk(chunk) for chunk in _chunks(span)]
    done = [result for result in results if not result.failed]
    assert done
    for result in done:
        assert result.payload == _reference_payload(sim_result,
                                                    result.chunk)
    if complete:
        assert len(done) == len(results)


class TestChunkContract:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_one_ranged_read_per_chunk(self, sim_result, span, profile,
                                       monkeypatch):
        fetches = []
        fetch = ArchiveSource.fetch

        def counted(source, op, *args):
            fetches.append((op, args))
            return fetch(source, op, *args)

        monkeypatch.setattr(ArchiveSource, "fetch", counted)
        runner = _runner(sim_result, _plan(profile, span))
        for chunk in _chunks(span):
            del fetches[:]
            result = runner.run_chunk(chunk)
            assert fetches == [("iter_blocks", chunk)]
            assert result.stats.requests == 1

    @pytest.mark.parametrize("profile",
                             ["none", "transient", "gaps", "outage"])
    def test_rows_match_detect_reference(self, sim_result, span,
                                         profile):
        assert_rows_match_reference(
            sim_result, span, _plan(profile, span),
            complete=profile in ("none", "transient"))

    def test_dead_node_gives_failed_artifact(self, sim_result, span):
        class DeadNode:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def iter_blocks(self, from_block=None, to_block=None):
                raise SourceGapError("archive range pruned")

        prices = PriceService(sim_result.oracle)
        bare = ChunkRunner(node=DeadNode(sim_result.node), prices=prices)
        shielded, _, _ = shield(DeadNode(sim_result.node))
        armed = ChunkRunner(node=shielded, prices=prices)
        chunk = _chunks(span)[0]
        result = bare.run_chunk(chunk)
        assert result.failed and result.payload is None
        assert result.stats.requests == 0
        result = armed.run_chunk(chunk)
        assert result.failed and result.payload is None
        assert result.stats.requests == 1
        assert result.stats.exhausted == 1

    @pytest.mark.parametrize("blackout", ["whole_read", "mid_read"])
    def test_failed_chunk_leaves_nothing_behind(self, sim_result, span,
                                                blackout):
        """The runner's one detector starts every chunk empty: a chunk
        lost to an archive blackout, then a good chunk, gives the good
        chunk exactly the rows a fresh runner gives it."""
        prices = PriceService(sim_result.oracle)
        fresh = ChunkRunner(node=sim_result.node, prices=prices)
        results = {chunk: fresh.run_chunk(chunk)
                   for chunk in _chunks(span)}
        bad, good = [chunk for chunk, result in results.items()
                     if result.payload.records][:2]
        if blackout == "whole_read":
            plan = FaultPlan(archive_blackouts=(bad,))
            node, _, _ = shield(sim_result.node, plan=plan)
        else:
            class GapMidRead:
                """Serves the chunk's first half, then loses history."""

                def iter_blocks(self, lo, hi):
                    yield from sim_result.node.iter_blocks(
                        lo, (lo + hi) // 2)
                    raise SourceGapError("archive range pruned")

            node = GapMidRead()
        runner = ChunkRunner(node=node, prices=prices)
        assert runner.run_chunk(bad).failed
        if blackout == "mid_read":
            runner.node = sim_result.node
        outcome = runner.run_chunk(good)
        assert outcome.payload == results[good].payload
        assert outcome.payload.document() \
            == results[good].payload.document()


class TestSinglePassMatchesLegacy:
    """The single-pass chunk against the per-heuristic path (one
    ``detect_*`` scan per heuristic) under each chaos seed 1-3."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_under_chaos(self, sim_result, span, seed):
        plan = FaultPlan.from_profile("chaos", seed, *span)
        assert_rows_match_reference(sim_result, span, plan,
                                    complete=False)


class TestChunkRerunPurity:
    """A chunk's result is a pure function of (world, plan, chunk):
    re-running it on the same runner replays the same faults, retries
    and breaker trips, because each run gets a fresh copy of the
    shielded source."""

    @pytest.mark.parametrize("profile", ["chaos", "transient"])
    def test_rerun_on_one_runner_is_identical(self, sim_result, span,
                                              profile):
        plan = FaultPlan.from_profile(profile, CHAOS_SEED, *span)
        runner = _runner(sim_result, plan)
        chunks = _chunks(span)
        first = [runner.run_chunk(chunk) for chunk in chunks]
        again = [runner.run_chunk(chunk) for chunk in chunks]
        assert again == first
        assert any(result.stats.retries for result in first)
