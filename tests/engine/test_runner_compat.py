"""The single-pass ``ChunkRunner`` against its per-heuristic ancestor.

``run_chunk`` used to walk each chunk once *per heuristic*; it now
walks once total, through :class:`repro.core.scan.BlockScan`.  The
rewrite's contract is stronger than "same rows": the *entire chunk
artifact* — payload and resilience stats — must be bit-identical,
because the stats feed the quality ledger and any change there breaks
checkpoint/cache compatibility and the parallel≡serial invariant.

``LegacyChunkRunner`` below embeds a literal copy of the pre-rewrite
detection loop (four standalone detectors, each re-scanning the range)
so the comparison cannot drift with the production code.  It must stay
frozen: it *is* the historical behaviour.
"""

import pytest

from repro.core.profit import PriceService
from repro.engine import ChunkRunner
from repro.engine.runner import CHUNK_FAILURES
from repro.faults import FaultPlan
from repro.faults.errors import SourceGapError
from repro.reliability import shield


class LegacyChunkRunner(ChunkRunner):
    """The pre-single-pass ``run_chunk``, verbatim (one scan per
    heuristic, flash loans via ``get_logs``)."""

    def run_chunk(self, chunk):
        from repro.core.datasets import MevDataset
        from repro.core.heuristics.arbitrage import detect_arbitrages
        from repro.core.heuristics.flashloan import \
            detect_flash_loan_txs
        from repro.core.heuristics.liquidation import \
            detect_liquidations
        from repro.core.heuristics.sandwich import detect_sandwiches
        from repro.engine.executors import ChunkResult

        node = self._chunk_node()
        lo, hi = chunk
        try:
            partial = MevDataset(
                sandwiches=detect_sandwiches(node, self.prices,
                                             lo, hi),
                arbitrages=detect_arbitrages(node, self.prices,
                                             lo, hi),
                liquidations=detect_liquidations(node, self.prices,
                                                 lo, hi),
            )
            flash_txs = detect_flash_loan_txs(node, lo, hi)
        except CHUNK_FAILURES:
            return ChunkResult(chunk=chunk, payload=None,
                               stats=self._stats_of(node))
        payload = {"rows": partial.to_rows(),
                   "flash_txs": sorted(flash_txs)}
        return ChunkResult(chunk=chunk, payload=payload,
                           stats=self._stats_of(node))


def _chunks(span, size=25):
    lo, hi = span
    out = []
    while lo <= hi:
        out.append((lo, min(lo + size - 1, hi)))
        lo += size
    return out


def _runner(cls, sim_result, fault_plan=None):
    shielded, _, _ = shield(sim_result.node, plan=fault_plan)
    return cls(node=shielded, prices=PriceService(sim_result.oracle))


def _runners(sim_result, fault_plan=None):
    return (_runner(ChunkRunner, sim_result, fault_plan),
            _runner(LegacyChunkRunner, sim_result, fault_plan))


def assert_identical_artifacts(new, legacy, chunks):
    for chunk in chunks:
        got = new.run_chunk(chunk)
        want = legacy.run_chunk(chunk)
        assert got.chunk == want.chunk
        assert got.payload == want.payload
        assert got.stats == want.stats


class TestSinglePassMatchesLegacy:
    def test_without_faults(self, sim_result, span):
        new, legacy = _runners(sim_result)
        assert_identical_artifacts(new, legacy, _chunks(span))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_under_chaos(self, sim_result, span, seed):
        plan = FaultPlan.from_profile("chaos", seed, *span)
        new, legacy = _runners(sim_result, plan)
        assert_identical_artifacts(new, legacy, _chunks(span))

    @pytest.mark.parametrize("profile", ["transient", "gaps", "outage"])
    def test_under_other_profiles(self, sim_result, span, profile):
        plan = FaultPlan.from_profile(profile, 2, *span)
        new, legacy = _runners(sim_result, plan)
        assert_identical_artifacts(new, legacy, _chunks(span, size=10))

    def test_permanent_failure_artifacts_match(self, sim_result, span):
        """The equivalence must cover failed chunks too, not just the
        happy path — force an unretryable archive and compare the
        failure artifacts."""

        class DeadNode:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def iter_blocks(self, from_block=None, to_block=None):
                raise SourceGapError("archive range pruned")

        prices = PriceService(sim_result.oracle)
        new = ChunkRunner(node=DeadNode(sim_result.node), prices=prices)
        legacy = LegacyChunkRunner(node=DeadNode(sim_result.node),
                                   prices=prices)
        chunk = _chunks(span)[0]
        got = new.run_chunk(chunk)
        want = legacy.run_chunk(chunk)
        assert got.failed and want.failed
        assert got.payload == want.payload == None  # noqa: E711
        assert got.stats == want.stats


class TestChunkRerunPurity:
    """A chunk's result is a pure function of (world, plan, chunk):
    re-running it on the same runner replays the same faults, retries
    and breaker trips, because each run gets a fresh copy of the
    shielded source."""

    @pytest.mark.parametrize("profile", ["chaos", "transient"])
    def test_rerun_on_one_runner_is_identical(self, sim_result, span,
                                              profile):
        plan = FaultPlan.from_profile(profile, 1, *span)
        runner = _runner(ChunkRunner, sim_result, plan)
        chunks = _chunks(span)
        first = [runner.run_chunk(chunk) for chunk in chunks]
        again = [runner.run_chunk(chunk) for chunk in chunks]
        assert again == first
        assert any(result.stats.retries for result in first)
