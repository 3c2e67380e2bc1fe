"""Section 8.2 ablation — why sealed bids favour miners.

The paper argues Flashbots' sealed-bid auction makes searchers overbid
(they cannot see rivals), transferring the surplus to miners, whereas
the old open priority-gas-auctions ended near the runner-up's valuation
and let the winner keep the gap.  This benchmark plays both mechanisms
over the same sampled opportunity stream and reports the split.
"""

import random

from repro.agents.pga import compare_mechanisms
from repro.analysis import percent, render_table

from benchmarks.conftest import emit


def test_ablation_auction_mechanisms(benchmark):
    # A fresh generator per round: the emitted split must not depend on
    # how many rounds pytest-benchmark chose to run.
    result = benchmark(
        lambda: compare_mechanisms(random.Random(3), opportunities=300))

    emit("ablation_auction_mechanisms", render_table(
        ["Mechanism", "Miner share of MEV",
         "Searcher profit / opportunity (ETH)"],
        [("open PGA (pre-Flashbots)",
          percent(result.pga_miner_share),
          f"{result.pga_searcher_profit_wei / 10**18:.4f}"),
         ("sealed bid (Flashbots)",
          percent(result.sealed_miner_share),
          f"{result.sealed_searcher_profit_wei / 10**18:.4f}")]))

    # The §8.2 mechanism: the sealed auction shifts the split to miners.
    assert result.sealed_miner_share > result.pga_miner_share + 0.15
    assert result.sealed_searcher_profit_wei < \
        result.pga_searcher_profit_wei
