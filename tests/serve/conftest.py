"""Shared world + the two store build paths for the serve suite.

One simulated study window per session; the suite builds stores over
it both ways — cold-start from the batch dataset, and live-fed
through the streaming engine over a seeded hostile feed — and pins
the identity rule between them.  ``REPRO_CHAOS_SEED`` (CI matrix:
1, 2, 3) seeds the fault plans only; the world stays fixed.
"""

import os

import pytest

from repro import follow_engine, follow_reference
from repro.faults import FaultPlan
from repro.serve import live_service, service_from_dataset
from repro.sim import ScenarioConfig, build_paper_scenario

#: seed for every fault plan in the suite (CI matrix: 1, 2, 3)
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))


@pytest.fixture(scope="session")
def sim_result():
    from repro.chain.transaction import reset_tx_counter
    reset_tx_counter()  # identical world regardless of test order
    config = ScenarioConfig(blocks_per_month=8, seed=5)
    return build_paper_scenario(config).run()


@pytest.fixture(scope="session")
def span(sim_result):
    """The study window's inclusive block range."""
    return (sim_result.node.earliest_block_number(),
            sim_result.node.latest_block_number())


@pytest.fixture(scope="session")
def plan(span):
    """The seeded reorg plan both build paths run under."""
    return FaultPlan.from_profile("reorg", CHAOS_SEED, *span)


@pytest.fixture(scope="session")
def batch_dataset(sim_result, plan):
    """:func:`repro.follow_reference` under the plan: the serve
    identity target."""
    return follow_reference(sim_result, fault_plan=plan)


@pytest.fixture(scope="session")
def batch_query(batch_dataset):
    """Cold-start service: store snapshotted from the batch dataset."""
    return service_from_dataset(batch_dataset)


@pytest.fixture(scope="session")
def streamed(sim_result, plan):
    """``(service, engine)`` after a full reorg-faulted follow run.

    The store was fed block by block through seeded reorgs (every
    retraction superseded served rows live) and then reconciled by
    finalize — the stream side of the identity rule.
    """
    engine, feed = follow_engine(sim_result, fault_plan=plan)
    service = live_service(engine)
    engine.run(feed)
    return (service, engine)
