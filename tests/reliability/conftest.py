"""Shared world + baseline for the chaos suite.

The simulated study window is built once per session; every chaos test
re-measures it through fault-injecting sources and compares against
the fault-free ``baseline`` dataset.  ``REPRO_CHAOS_SEED`` (CI runs the
suite across several values) seeds the *fault plans only* — the world
itself stays fixed so baselines are comparable across seeds.
"""

import os

import pytest

from repro import run_inspector
from repro.sim import ScenarioConfig, build_paper_scenario

#: seed for every fault plan in the suite (CI matrix: 1, 2, 3)
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))


@pytest.fixture(scope="session")
def sim_result():
    from repro.chain.transaction import reset_tx_counter
    reset_tx_counter()  # identical world regardless of test order
    config = ScenarioConfig(blocks_per_month=20, seed=7)
    world = build_paper_scenario(config)
    return world.run()


@pytest.fixture(scope="session")
def span(sim_result):
    """The study window's inclusive block range."""
    return (sim_result.node.earliest_block_number(),
            sim_result.node.latest_block_number())


@pytest.fixture(scope="session")
def baseline(sim_result):
    """The fault-free measurement every chaos run is compared against."""
    return run_inspector(sim_result)
