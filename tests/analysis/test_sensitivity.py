"""Tests for the parameter-sensitivity sweeps (tiny scenarios)."""

import pytest

from repro.analysis.sensitivity import (
    observation_rate_sweep,
    tip_fraction_sweep,
)


class TestTipSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return tip_fraction_sweep([0.3, 0.85], blocks_per_month=12,
                                  seed=11)

    def test_one_point_per_level(self, points):
        assert [p.tip_mean for p in points] == [0.3, 0.85]

    def test_overbidding_raises_miner_uplift(self, points):
        assert points[1].miner_uplift > points[0].miner_uplift

    def test_overbidding_lowers_searcher_take(self, points):
        assert points[1].searcher_fb_mean_eth < \
            points[0].searcher_fb_mean_eth

    def test_point_independent_of_prior_tx_counter(self):
        """A sweep point is a function of its arguments, not of how
        many transactions the process minted before it."""
        from repro.chain.transaction import set_tx_counter
        set_tx_counter(0)
        fresh = tip_fraction_sweep([0.6], blocks_per_month=8, seed=5)
        set_tx_counter(1_000_003)
        assert tip_fraction_sweep([0.6], blocks_per_month=8,
                                  seed=5) == fresh


class TestObservationSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return observation_rate_sweep([1.0, 0.2], blocks_per_month=12,
                                      seed=11)

    def test_coverage_shrinks_with_rate(self, points):
        assert points[0].observed_pending > points[1].observed_pending

    def test_perfect_coverage_perfect_inference(self, points):
        assert points[0].private_precision == 1.0
        assert points[0].private_recall == 1.0

    def test_metrics_bounded(self, points):
        for point in points:
            assert 0.0 <= point.private_precision <= 1.0
            assert 0.0 <= point.private_recall <= 1.0
