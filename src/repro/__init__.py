"""repro — reproduction of "A Flash(bot) in the Pan: Measuring Maximal
Extractable Value in Private Pools" (IMC 2022).

The package is organized as:

* :mod:`repro.chain` — Ethereum-like substrate (state, blocks, mempool,
  gossip, archive node);
* :mod:`repro.dex`, :mod:`repro.lending` — the DeFi substrates MEV preys
  on (AMMs, stableswap, lending pools, flash loans);
* :mod:`repro.flashbots`, :mod:`repro.privatepools` — the private
  transaction channels under study;
* :mod:`repro.agents`, :mod:`repro.sim` — the agent-based market
  simulation and the calibrated study-window scenario;
* :mod:`repro.core` — the paper's measurement pipeline (detection
  heuristics, joins, privacy inference, pool attribution);
* :mod:`repro.engine` — chunk execution, in-process or across worker
  processes, behind one :class:`~repro.engine.RunConfig`;
* :mod:`repro.analysis` — table/figure builders and the goal audits.

Quickstart::

    from repro import quick_study

    study = quick_study(blocks_per_month=60)
    print(study.table1)
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from repro.analysis import build_table1
from repro.chain.node import ArchiveNode
from repro.core import MevDataset, MevInspector, PriceService
from repro.engine import RunConfig
from repro.faults import ChainFeed, FaultPlan, FaultyFeed, FeedEvent
from repro.reliability import RetryPolicy, shield
from repro.sim import ScenarioConfig, SimulationResult, World, \
    build_paper_scenario
from repro.stream import StreamEngine

#: the single source of the package version — ``pyproject.toml``
#: derives its ``[project] version`` from this attribute (dynamic
#: metadata), so bumping it here is the whole release step.
__version__ = "1.6.0"


@dataclass
class Study:
    """A simulated study window plus its measured MEV dataset."""

    result: SimulationResult
    dataset: MevDataset

    @property
    def table1(self):
        return build_table1(self.dataset)


def _plan_from_config(config: RunConfig,
                      node: object) -> Optional[FaultPlan]:
    """The fault plan a run configuration implies, if any."""
    if config.fault_profile == "none":
        return None
    return FaultPlan.from_profile(
        config.fault_profile, config.fault_seed,
        node.earliest_block_number(), node.latest_block_number())


def run_inspector(result: SimulationResult,
                  fault_plan: Optional[FaultPlan] = None,
                  retry: Optional[RetryPolicy] = None,
                  config: Optional[RunConfig] = None) -> MevDataset:
    """Run the full measurement pipeline over a simulation result.

    Every data source is shielded by :func:`repro.reliability.shield`
    (retries + circuit breakers), with ``fault_plan``'s faults injected
    inside each source's query chain when a plan is given; the returned
    dataset carries a ``quality`` report.  ``config`` carries every run
    setting (``None`` means ``RunConfig()``): its ``checkpoint``/
    ``resume`` make the run restartable after a crash, its
    ``workers`` fans chunks out over processes (see
    :mod:`repro.engine`) without changing any output bit, and its
    ``fault_profile``/``fault_seed`` build the fault plan when
    ``fault_plan`` is not given explicitly.
    """
    if config is None:
        config = RunConfig()
    if fault_plan is None:
        fault_plan = _plan_from_config(config, result.node)
    node, observer, api = shield(result.node, result.observer,
                                 result.flashbots_api, retry=retry,
                                 plan=fault_plan)
    inspector = MevInspector(node, PriceService(result.oracle),
                             api, observer)
    return inspector.run(config=config)


def _follow_sources(result: SimulationResult,
                    fault_plan: Optional[FaultPlan],
                    retry: Optional[RetryPolicy], config: RunConfig,
                    ) -> Tuple[Optional[FaultPlan], object, object]:
    """The plan a follow run runs under (``fault_plan``, else the one
    ``config`` implies) and its Flashbots API and mempool observer:
    shielded under that plan, bare when there is none."""
    if fault_plan is None:
        fault_plan = _plan_from_config(config, result.node)
    if fault_plan is None:
        return None, result.flashbots_api, result.observer
    _, observer, api = shield(result.node, result.observer,
                              result.flashbots_api, retry=retry,
                              plan=fault_plan)
    return fault_plan, api, observer


def follow_engine(result: SimulationResult,
                  fault_plan: Optional[FaultPlan] = None,
                  retry: Optional[RetryPolicy] = None,
                  config: Optional[RunConfig] = None,
                  ) -> Tuple[StreamEngine, Iterable[FeedEvent]]:
    """Wire a follow run: the ``(engine, feed)`` pair to drive.

    This is the one place follow mode is assembled.  With a fault plan
    (``fault_plan``, else the one ``config``'s fault profile implies)
    the feed is a :class:`~repro.faults.FaultyFeed` injecting the
    plan's reorgs/delays/duplicates and the label sources are shielded
    under the same plan; without one it is a clean in-order
    :class:`~repro.faults.ChainFeed`.  ``config`` (``None`` means
    ``RunConfig()``) supplies the confirmation depth and the
    checkpoint/resume switches.  Subscribe to the engine before
    driving it; with the default ``retry``, ``engine.run(feed)``
    converges bit-for-bit on :func:`follow_reference` called with the
    same plan and config.
    """
    if config is None:
        config = RunConfig()
    plan, api, observer = _follow_sources(result, fault_plan, retry,
                                          config)
    feed = ChainFeed(result.blockchain) if plan is None \
        else FaultyFeed(result.blockchain, plan)
    engine = StreamEngine(
        PriceService(result.oracle),
        first_block=result.node.earliest_block_number(),
        confirm_depth=config.confirm_depth, flashbots_api=api,
        observer=observer, checkpoint=config.checkpoint,
        resume=config.resume)
    return engine, feed


def follow_reference(result: SimulationResult,
                     fault_plan: Optional[FaultPlan] = None,
                     config: Optional[RunConfig] = None) -> MevDataset:
    """The dataset a follow run must converge on.

    The batch pipeline at ``chunk_size=1`` over the bare archive of the
    final canonical chain, labelled by the same sources
    :func:`follow_engine` wires for ``fault_plan`` and ``config``
    (shielded under the plan, default retry policy).  ``config``
    matters only for the plan it implies.
    """
    _, api, observer = _follow_sources(result, fault_plan, None,
                                       config or RunConfig())
    inspector = MevInspector(ArchiveNode(result.blockchain),
                             PriceService(result.oracle), api, observer)
    return inspector.run(config=RunConfig(chunk_size=1))


def follow_inspector(result: SimulationResult,
                     fault_plan: Optional[FaultPlan] = None,
                     retry: Optional[RetryPolicy] = None,
                     config: Optional[RunConfig] = None) -> MevDataset:
    """Measure a simulation result in *follow* (streaming) mode.

    Instead of one batch pass, the chain is replayed through the block
    feed :func:`follow_engine` wires into a
    :class:`repro.stream.StreamEngine`, which folds detection
    incrementally behind the ``config.confirm_depth`` watermark.  Under
    a fault plan the feed reorgs, delays and duplicates announcements
    and the label sources degrade under the same plan; either way the
    output converges bit-for-bit on :func:`follow_reference`.
    ``config``'s ``checkpoint``/``resume`` make the follower
    crash-restartable mid-stream.
    """
    engine, feed = follow_engine(result, fault_plan, retry, config)
    return engine.run(feed)


def follow_study(blocks_per_month: int = 60, seed: int = 7,
                 fault_plan: Optional[FaultPlan] = None,
                 run_config: Optional[RunConfig] = None,
                 **config_overrides) -> Study:
    """Simulate the study window and measure it in follow mode."""
    config = ScenarioConfig(blocks_per_month=blocks_per_month, seed=seed,
                            **config_overrides)
    result = build_paper_scenario(config).run()
    dataset = follow_inspector(result, fault_plan=fault_plan,
                               config=run_config)
    return Study(result=result, dataset=dataset)


def quick_study(blocks_per_month: int = 60, seed: int = 7,
                fault_plan: Optional[FaultPlan] = None,
                run_config: Optional[RunConfig] = None,
                blocks: Optional[int] = None,
                max_resident_epochs: Optional[int] = None,
                segment_dir: Union[str, Path, None] = None,
                **config_overrides) -> Study:
    """Simulate the study window and measure it, in one call.

    ``blocks`` caps the simulation at that many blocks instead of the
    whole study window.  ``segment_dir`` attaches a spillable
    :class:`repro.chain.segments.SegmentStore` before the run, so
    completed epochs land on disk and only the newest ``max_resident_epochs``
    (default 2) stay in memory — peak residency is O(epoch), which is
    what makes ``repro run --blocks 100000 --epoch-blocks 5000``
    feasible on a small box.  Spilled runs write segments on a
    background thread and use the flat-GC long-run regime.  The run
    re-simulates from genesis, so any store already in ``segment_dir``
    is wiped first and a rerun leaves the same store as the first run.
    """
    config = ScenarioConfig(blocks_per_month=blocks_per_month, seed=seed,
                            **config_overrides)
    world = build_paper_scenario(config)
    flat_gc = None
    if segment_dir is not None:
        from repro.chain.segments import SegmentStore
        world.attach_segment_store(
            SegmentStore.create(str(segment_dir)),
            max_resident_epochs=max_resident_epochs
            if max_resident_epochs is not None else 2,
            overlap_io=True)
        flat_gc = world.install_flat_gc()
    try:
        result = world.run(blocks=blocks)
    finally:
        if flat_gc is not None:
            flat_gc.uninstall()
    dataset = run_inspector(result, fault_plan=fault_plan,
                            config=run_config)
    return Study(result=result, dataset=dataset)


__all__ = ["FaultPlan", "RunConfig", "ScenarioConfig", "SimulationResult",
           "Study", "World", "__version__", "build_paper_scenario",
           "follow_engine", "follow_inspector", "follow_reference",
           "follow_study", "quick_study", "run_inspector"]
