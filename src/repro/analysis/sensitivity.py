"""Parameter-sensitivity sweeps for the reproduction's design choices.

DESIGN.md calls out two load-bearing modelling decisions:

* the **sealed-bid overbidding** level (how much of its gross profit a
  Flashbots searcher tips the miner) drives Figure 8's profit
  inversion, and
* the **observation coverage** of the measurement node underpins the
  private-transaction inference of Section 6 — the paper assumes its
  node "saw the vast majority" of gossip.

Each sweep re-runs a small calibrated scenario per parameter value and
reports the headline metric, so the causal link the design claims can
be checked rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.goals import profit_distribution
from repro.chain.transaction import reset_tx_counter
from repro.core import MevInspector, PriceService
from repro.core.datasets import PRIVACY_PRIVATE
# Sensitivity sweeps *re-run the simulator* on purpose — they vary its
# parameters and measure afresh; no ground-truth labels flow into any
# heuristic.  Deliberate exception to the measurement/substrate wall.
from repro.sim import ScenarioConfig, build_paper_scenario  # repro-lint: disable=R003


def _measure(config: ScenarioConfig):
    # Tx hashes commit to the process-wide uid counter; start each
    # sweep world from 0 so a point does not depend on what ran before.
    reset_tx_counter()
    result = build_paper_scenario(config).run()
    inspector = MevInspector(result.node, PriceService(result.oracle),
                             result.flashbots_api, result.observer)
    return result, inspector.run()


@dataclass
class TipSweepPoint:
    """Miner/searcher outcomes at one sealed-bid tip level."""

    tip_mean: float
    miner_uplift: float
    searcher_drop: float
    searcher_fb_mean_eth: float


def tip_fraction_sweep(tip_means: Sequence[float],
                       blocks_per_month: int = 25,
                       seed: int = 7) -> List[TipSweepPoint]:
    """Re-run the scenario at several sealed-bid tip levels.

    The paper's mechanism predicts: the more searchers overbid, the
    larger the miner uplift and the searcher loss — i.e. Figure 8 is a
    consequence of the auction design, not of our calibration.
    """
    points: List[TipSweepPoint] = []
    for tip_mean in tip_means:
        config = ScenarioConfig(blocks_per_month=blocks_per_month,
                                seed=seed,
                                sealed_bid_tip_mean=tip_mean)
        _, dataset = _measure(config)
        report = profit_distribution(dataset)
        points.append(TipSweepPoint(
            tip_mean=tip_mean, miner_uplift=report.miner_uplift,
            searcher_drop=report.searcher_drop,
            searcher_fb_mean_eth=report.stats.searchers_flashbots.mean))
    return points


@dataclass
class ObservationSweepPoint:
    """Inference quality at one observation-coverage level."""

    observation_rate: float
    observed_pending: int
    labelled_sandwiches: int
    inferred_private: int
    #: of the sandwiches the ground truth knows went through a private
    #: channel, the fraction the inference labelled private
    private_recall: float
    #: of the sandwiches labelled private, the fraction that truly were
    private_precision: float


def observation_rate_sweep(rates: Sequence[float],
                           blocks_per_month: int = 25,
                           seed: int = 7,
                           ) -> List[ObservationSweepPoint]:
    """Degrade the measurement node's gossip coverage and re-measure.

    Checks the paper's methodological assumption: the set-intersection
    inference is only as good as the pending-transaction trace.  Missed
    observations turn public attacks "private" (precision loss) and
    hide victims (recall loss).
    """
    points: List[ObservationSweepPoint] = []
    for rate in rates:
        config = ScenarioConfig(blocks_per_month=blocks_per_month,
                                seed=seed, observation_rate=rate)
        result, dataset = _measure(config)
        truth_by_pair = {
            (t.tx_hashes[0], t.tx_hashes[1]): t.channel
            for t in result.landed_truths()
            if t.strategy == "sandwich"}
        # Skip the window's opening block: a sandwich mined there had
        # its victim gossiped *before* collection started, so even a
        # perfect observer legitimately missed it (the real study has
        # the same boundary effect on its first day of data).
        window_start = result.observer.start_block
        labelled = [r for r in dataset.sandwiches
                    if r.privacy is not None
                    and r.block_number > window_start
                    and (r.front_tx, r.back_tx) in truth_by_pair]
        truly_private = [r for r in labelled
                         if truth_by_pair[(r.front_tx, r.back_tx)]
                         == "private"]
        inferred = [r for r in labelled
                    if r.privacy == PRIVACY_PRIVATE]
        hits = [r for r in inferred
                if truth_by_pair[(r.front_tx, r.back_tx)] == "private"]
        recall = (len(hits) / len(truly_private)
                  if truly_private else 1.0)
        precision = len(hits) / len(inferred) if inferred else 1.0
        points.append(ObservationSweepPoint(
            observation_rate=rate,
            observed_pending=len(result.observer),
            labelled_sandwiches=len(labelled),
            inferred_private=len(inferred),
            private_recall=recall, private_precision=precision))
    return points
