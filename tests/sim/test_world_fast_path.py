"""Fast-path world vs. naive reference world: hash-for-hash identity.

``build_paper_scenario(..., fast_paths=False)`` rebuilds the simulator
on the unoptimized code paths — full mempool re-sorts every block, no
probe memoization, no scan caches.  The optimized default must produce
the *identical* world: same block hashes, same transaction hashes, in
the same order, through every fork (the scenarios here span Berlin and
London, so the base fee goes from pinned-at-zero to moving every
block).  Transaction hashes commit to a process-wide uid counter, so
identity here means the two runs agreed on every transaction ever
created, not merely the included ones.
"""

import pytest

from repro.chain.transaction import reset_tx_counter
from repro.sim import ScenarioConfig, build_paper_scenario
from repro.sim.shard import block_sequence


def run_world(config, fast_paths):
    reset_tx_counter()
    return build_paper_scenario(config, fast_paths=fast_paths).run()


class TestFastPathIdentity:
    @pytest.mark.parametrize("bpm,seed", [(6, 7), (4, 23)])
    def test_same_seed_same_world(self, bpm, seed):
        config = ScenarioConfig(blocks_per_month=bpm, seed=seed)
        fast = run_world(config, fast_paths=True)
        reference = run_world(config, fast_paths=False)
        assert block_sequence(fast.blockchain.blocks) == \
            block_sequence(reference.blockchain.blocks)

    def test_scenario_spans_london(self):
        """The identity above only means something if the scenario
        actually crosses the fee-market switch the fast mempool index
        optimizes around."""
        config = ScenarioConfig(blocks_per_month=6, seed=7)
        result = run_world(config, fast_paths=True)
        base_fees = [b.base_fee for b in result.blockchain.blocks]
        assert base_fees[0] == 0  # pre-London: pinned
        assert base_fees[-1] > 0  # post-London: live fee market
        assert len(set(base_fees)) > 2  # and it actually moves

    def test_fast_world_is_deterministic_across_builds(self):
        config = ScenarioConfig(blocks_per_month=5, seed=3)
        first = run_world(config, fast_paths=True)
        second = run_world(config, fast_paths=True)
        assert block_sequence(first.blockchain.blocks) == \
            block_sequence(second.blockchain.blocks)
