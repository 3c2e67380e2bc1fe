"""Shared world + batch baseline for the streaming suite.

The simulated study window is built once per session; stream tests
replay it through (possibly faulted) block feeds and compare against
``batch_baseline`` — :func:`repro.follow_reference`, the batch pipeline
at ``chunk_size=1``, which is the exact shape
:class:`repro.stream.StreamEngine` must converge on.
``REPRO_CHAOS_SEED`` (CI runs the suite across several values) seeds
the fault plans only; the world itself stays fixed.
"""

import os

import pytest

from repro import follow_reference
from repro.core import PriceService
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
def prices(sim_result):
    return PriceService(sim_result.oracle)


@pytest.fixture(scope="session")
def span(sim_result):
    """The study window's inclusive block range."""
    return (sim_result.node.earliest_block_number(),
            sim_result.node.latest_block_number())


@pytest.fixture(scope="session")
def batch_baseline(sim_result):
    """The fault-free convergence target (bare label sources)."""
    return follow_reference(sim_result)
