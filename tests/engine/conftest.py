"""Shared world + serial baseline for the execution-engine suite.

One simulated study window per session; every engine test re-measures
it through a different executor configuration and asserts the output is
*bit-identical* — rows and quality ledger both, compared through
``MevDataset.fingerprint`` — to the serial run.
"""

import pytest

from repro import RunConfig, run_inspector
from repro.sim import ScenarioConfig, build_paper_scenario


@pytest.fixture(scope="session")
def sim_result():
    from repro.chain.transaction import reset_tx_counter
    reset_tx_counter()  # identical world regardless of test order
    config = ScenarioConfig(blocks_per_month=12, seed=7)
    world = build_paper_scenario(config)
    return world.run()


@pytest.fixture(scope="session")
def span(sim_result):
    """The study window's inclusive block range."""
    return (sim_result.node.earliest_block_number(),
            sim_result.node.latest_block_number())


@pytest.fixture(scope="session")
def serial_baseline(sim_result):
    """The serial chunked run every executor is compared against."""
    return run_inspector(sim_result, config=RunConfig(chunk_size=25))
