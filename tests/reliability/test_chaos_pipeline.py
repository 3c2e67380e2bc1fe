"""Chaos runs of the full pipeline against the fault-free baseline.

Two properties anchor the suite (ISSUE acceptance criteria):

* **transient faults vanish** — with retries, a chaos run's records are
  bit-identical to the fault-free run's;
* **unrecoverable faults are loud** — every record a Flashbots gap or
  observer outage touches is labelled ``unknown`` / ``unobserved`` and
  counted in the :class:`DataQualityReport`; every untouched record
  keeps exactly its baseline labels (zero silent mislabels).
"""

import random

import pytest

from repro import FaultPlan, RunConfig, run_inspector
from repro.core import MevInspector, PriceService
from repro.reliability import shield

from tests.reliability.conftest import CHAOS_SEED


def paired_records(chaos, baseline):
    """Baseline/chaos record pairs; detection must line up exactly."""
    chaos_records = chaos.all_records()
    base_records = baseline.all_records()
    assert len(chaos_records) == len(base_records)
    pairs = list(zip(base_records, chaos_records))
    for base, record in pairs:
        assert type(record) is type(base)
        assert record.block_number == base.block_number
    return pairs


def in_ranges(block, ranges):
    return any(lo <= block <= hi for lo, hi in ranges)


class TestTransientFaults:
    def test_retries_restore_bit_identical_results(self, sim_result,
                                                   baseline):
        plan = FaultPlan.transient(CHAOS_SEED)
        dataset = run_inspector(sim_result, fault_plan=plan)
        assert dataset.records_equal(baseline)

    def test_recovery_work_is_visible_in_the_report(self, sim_result):
        plan = FaultPlan.transient(CHAOS_SEED)
        quality = run_inspector(sim_result, fault_plan=plan).quality
        assert quality.total_retries > 0
        assert quality.total_breaker_trips == 0
        assert quality.chunks_failed == 0
        assert sum(s.simulated_backoff_s
                   for s in quality.sources.values()) > 0.0

    def test_fault_free_run_reports_fully_healthy_sources(self, baseline):
        quality = baseline.quality
        assert quality.total_retries == 0
        assert quality.failed_ranges == ()
        assert quality.unknown_flashbots_records == 0
        assert quality.unobserved_records == 0
        for source in quality.sources.values():
            assert source.healthy


class TestFlashbotsGap:
    @pytest.fixture(scope="class")
    def gap_run(self, sim_result, span):
        plan = FaultPlan.from_profile("gaps", CHAOS_SEED, *span)
        return plan, run_inspector(sim_result, fault_plan=plan)

    def test_gap_is_reported(self, gap_run):
        plan, dataset = gap_run
        flashbots = dataset.quality.sources["flashbots"]
        assert flashbots.gap_ranges == plan.flashbots_gaps
        assert flashbots.coverage < 1.0
        assert not flashbots.healthy
        assert not dataset.quality.healthy

    def test_every_affected_record_is_unknown_never_false(
            self, gap_run, baseline):
        plan, dataset = gap_run
        affected = 0
        for base, record in paired_records(dataset, baseline):
            if plan.in_flashbots_gap(record.block_number):
                affected += 1
                assert record.via_flashbots is None
            else:
                assert record.via_flashbots == base.via_flashbots
        assert affected > 0  # the carved gap must actually bite
        assert dataset.quality.unknown_flashbots_records == affected

    def test_gap_blocks_report_no_coverage(self, sim_result, span):
        plan = FaultPlan.from_profile("gaps", CHAOS_SEED, *span)
        from repro.reliability import FlashbotsSource
        api = FlashbotsSource(sim_result.flashbots_api, plan)
        (lo, hi), = plan.flashbots_gaps
        assert not api.has_block_data(lo)
        assert not api.has_block_data(hi)
        assert in_ranges(lo, api.coverage_gaps())


def outage_plan(sim_result, span):
    """A seeded downtime window carved *inside* the observation window.

    The collector only ran over the study's final stretch (as in the
    paper), so downtime anywhere else would be vacuous: this carve
    guarantees the outage actually overlaps collected blocks.
    """
    observer = sim_result.observer
    lo = observer.start_block
    hi = observer.end_block if observer.end_block is not None else span[1]
    width = max(1, (hi - lo + 1) // 4)
    rng = random.Random(f"{CHAOS_SEED}:outage-test")
    start = lo + rng.randrange(max(1, hi - lo + 1 - width))
    return FaultPlan(
        seed=CHAOS_SEED,
        observer_downtime=((start, min(hi, start + width - 1)),))


class TestObserverOutage:
    @pytest.fixture(scope="class")
    def outage_run(self, sim_result, span):
        plan = outage_plan(sim_result, span)
        return plan, run_inspector(sim_result, fault_plan=plan)

    def test_downtime_is_reported(self, outage_run):
        plan, dataset = outage_run
        mempool = dataset.quality.sources["mempool"]
        assert plan.observer_downtime[0] in mempool.gap_ranges
        assert not mempool.healthy

    def test_every_unobserved_label_sits_next_to_downtime(
            self, outage_run, baseline):
        """'unobserved' appears where (and only where) the collector's
        downtime voids absence-based inference; everywhere else the
        labels match the baseline exactly."""
        plan, dataset = outage_run
        unobserved = 0
        for base, record in paired_records(dataset, baseline):
            voided = (plan.in_observer_downtime(record.block_number)
                      or plan.in_observer_downtime(
                          record.block_number - 1))
            if record.privacy == "unobserved":
                unobserved += 1
                assert voided
            elif not voided:
                assert record.privacy == base.privacy
        assert unobserved > 0  # the outage must actually bite
        assert dataset.quality.unobserved_records == unobserved

    def test_positive_observations_survive_unrelated_downtime(
            self, outage_run, baseline):
        """Downtime never flips a publicly-observed record to private:
        degradation adds uncertainty, it does not invent privacy."""
        plan, dataset = outage_run
        for base, record in paired_records(dataset, baseline):
            if base.privacy == "public":
                assert record.privacy in ("public", "unobserved")


class TestChaosProfile:
    def test_everything_at_once_still_accounts_for_itself(
            self, sim_result, span, baseline):
        plan = FaultPlan.from_profile("chaos", CHAOS_SEED, *span)
        dataset = run_inspector(sim_result, fault_plan=plan)
        quality = dataset.quality
        # same detections — transient faults retried away, and neither
        # gaps nor downtime remove records, only labels
        assert len(dataset.all_records()) == len(baseline.all_records())
        assert quality.total_retries > 0
        assert quality.unknown_flashbots_records == sum(
            1 for r in dataset.all_records() if r.via_flashbots is None)
        assert quality.unobserved_records == sum(
            1 for r in dataset.all_records()
            if r.privacy == "unobserved")
        assert not quality.healthy

    def test_repeated_runs_on_one_inspector_are_identical(self,
                                                          sim_result,
                                                          span):
        """Each run reads through fresh copies of the shielded sources,
        so a second run replays the same faults and reports the same
        ledger instead of adding to the first run's counters."""
        plan = FaultPlan.from_profile("chaos", CHAOS_SEED, *span)
        node, observer, api = shield(sim_result.node, sim_result.observer,
                                     sim_result.flashbots_api, plan=plan)
        inspector = MevInspector(node, PriceService(sim_result.oracle),
                                 api, observer)
        config = RunConfig(chunk_size=25)
        first = inspector.run(config=config)
        second = inspector.run(config=config)
        assert second.to_rows() == first.to_rows()
        assert second.quality.to_dict() == first.quality.to_dict()
        assert first.quality.total_retries > 0


class TestObserverAccounting:
    def test_observed_plus_missed_reconciles_with_gossip(self,
                                                         sim_result):
        observer = sim_result.observer
        assert observer.observed_count + observer.missed_count \
            == observer.gossiped_total
        assert observer.gossiped_total > 0

    def test_coverage_matches_the_ledger(self, sim_result):
        observer = sim_result.observer
        coverage = observer.observed_coverage()
        assert coverage == observer.observed_count \
            / observer.gossiped_total
        assert 0.9 < coverage <= 1.0  # observation_rate is 0.995

    def test_downtime_facade_keeps_the_ledger_reconciled(
            self, sim_result, span):
        from repro.reliability import MempoolSource
        plan = outage_plan(sim_result, span)
        faulty = MempoolSource(sim_result.observer, plan)
        assert faulty.observed_count + faulty.missed_count \
            == faulty.gossiped_total
        assert faulty.observed_count < sim_result.observer.observed_count
        assert faulty.observed_coverage() \
            < sim_result.observer.observed_coverage()
