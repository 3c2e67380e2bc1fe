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
* :mod:`repro.engine` — pluggable chunk execution (serial, parallel,
  cached) behind one :class:`~repro.engine.RunConfig`;
* :mod:`repro.analysis` — table/figure builders and the goal audits.

Quickstart::

    from repro import quick_study

    study = quick_study(blocks_per_month=60)
    print(study.table1)
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.analysis import build_table1
from repro.core import MevDataset, MevInspector, PriceService
from repro.engine import RunConfig, resolve_config
from repro.faults import FaultPlan
from repro.reliability import CheckpointStore, RetryPolicy, shield
from repro.sim import ScenarioConfig, SimulationResult, World, \
    build_paper_scenario

#: the single source of the package version — ``pyproject.toml``
#: derives its ``[project] version`` from this attribute (dynamic
#: metadata), and the world cache folds it into its digests, so
#: bumping it here is the whole release step.
__version__ = "1.6.0"


@dataclass
class Study:
    """A simulated study window plus its measured MEV dataset."""

    result: SimulationResult
    dataset: MevDataset

    @property
    def table1(self):
        return build_table1(self.dataset)


def _plan_from_config(config: Optional[RunConfig],
                      node: object) -> Optional[FaultPlan]:
    """The fault plan a run configuration implies, if any."""
    if config is None or config.fault_profile == "none":
        return None
    return FaultPlan.from_profile(
        config.fault_profile, config.fault_seed,
        node.earliest_block_number(), node.latest_block_number())


def run_inspector(result: SimulationResult,
                  fault_plan: Optional[FaultPlan] = None,
                  retry: Optional[RetryPolicy] = None,
                  chunk_size: Optional[int] = None,
                  checkpoint: Union[CheckpointStore, str, Path,
                                    None] = None,
                  resume: bool = False,
                  workers: int = 1,
                  cache_dir: Union[str, Path, None] = None,
                  cache_key: Optional[str] = None,
                  config: Optional[RunConfig] = None) -> MevDataset:
    """Run the full measurement pipeline over a simulation result.

    Every data source is shielded by :func:`repro.reliability.shield`
    (retries + circuit breakers), with ``fault_plan``'s faults injected
    inside each source's query chain when a plan is given; the returned
    dataset carries a ``quality`` report.  ``checkpoint``/``resume`` make the run restartable after a
    crash; ``workers``/``cache_dir`` select the execution strategy (see
    :mod:`repro.engine`) without changing any output bit.  A
    :class:`RunConfig` may be passed instead of the loose keyword
    arguments; its ``fault_profile``/``fault_seed`` build the fault plan
    when ``fault_plan`` is not given explicitly.
    """
    config = resolve_config(config, warn=False, chunk_size=chunk_size,
                            checkpoint=checkpoint, resume=resume,
                            workers=workers, cache_dir=cache_dir,
                            cache_key=cache_key)
    if fault_plan is None:
        fault_plan = _plan_from_config(config, result.node)
    node, observer, api = shield(result.node, result.observer,
                                 result.flashbots_api, retry=retry,
                                 plan=fault_plan)
    inspector = MevInspector(node, PriceService(result.oracle),
                             api, observer)
    return inspector.run(config=config)


def follow_inspector(result: SimulationResult,
                     fault_plan: Optional[FaultPlan] = None,
                     confirm_depth: int = 3,
                     checkpoint: Union[CheckpointStore, str, Path,
                                       None] = None,
                     resume: bool = False,
                     retry: Optional[RetryPolicy] = None,
                     config: Optional[RunConfig] = None) -> MevDataset:
    """Measure a simulation result in *follow* (streaming) mode.

    Instead of one batch pass, the chain is replayed through a block
    feed into :class:`repro.stream.StreamEngine`, which folds detection
    incrementally behind a ``confirm_depth`` watermark.  With a
    ``fault_plan`` the feed injects the plan's reorgs/delays/duplicates
    (and the shielded label sources degrade under the same plan);
    either way the engine's output converges bit-for-bit on the batch
    pipeline over the final canonical chain.  ``checkpoint``/``resume``
    make the follower crash-restartable mid-stream.  A
    :class:`RunConfig` may be passed instead of the loose keyword
    arguments; its ``confirm_depth`` and fault profile apply here the
    same way they do in batch mode.
    """
    from repro.faults.feed import ChainFeed, FaultyFeed
    from repro.stream import StreamEngine

    config = resolve_config(
        config, warn=False, checkpoint=checkpoint, resume=resume,
        confirm_depth=None if confirm_depth == 3 else confirm_depth)
    depth = 3 if config.confirm_depth is None else config.confirm_depth
    if fault_plan is None:
        fault_plan = _plan_from_config(config, result.node)
    observer, api = result.observer, result.flashbots_api
    feed = ChainFeed(result.blockchain)
    if fault_plan is not None:
        _, observer, api = shield(result.node, observer, api,
                                  retry=retry, plan=fault_plan)
        feed = FaultyFeed(result.blockchain, fault_plan)
    engine = StreamEngine(
        PriceService(result.oracle),
        first_block=result.node.earliest_block_number(),
        confirm_depth=depth, flashbots_api=api,
        observer=observer, checkpoint=config.checkpoint,
        resume=config.resume)
    return engine.run(feed)


def follow_study(blocks_per_month: int = 60, seed: int = 7,
                 confirm_depth: int = 3,
                 fault_plan: Optional[FaultPlan] = None,
                 checkpoint: Union[CheckpointStore, str, Path,
                                   None] = None,
                 resume: bool = False,
                 run_config: Optional[RunConfig] = None,
                 **config_overrides) -> Study:
    """Simulate the study window and measure it in follow mode."""
    config = ScenarioConfig(blocks_per_month=blocks_per_month, seed=seed,
                            **config_overrides)
    result = build_paper_scenario(config).run()
    dataset = follow_inspector(result, fault_plan=fault_plan,
                               confirm_depth=confirm_depth,
                               checkpoint=checkpoint, resume=resume,
                               config=run_config)
    return Study(result=result, dataset=dataset)


def quick_study(blocks_per_month: int = 60, seed: int = 7,
                fault_plan: Optional[FaultPlan] = None,
                chunk_size: Optional[int] = None,
                checkpoint: Union[CheckpointStore, str, Path,
                                  None] = None,
                resume: bool = False,
                workers: int = 1,
                cache_dir: Union[str, Path, None] = None,
                cache_key: Optional[str] = None,
                run_config: Optional[RunConfig] = None,
                blocks: Optional[int] = None,
                max_resident_epochs: Optional[int] = None,
                segment_dir: Union[str, Path, None] = None,
                overlap_io: bool = True,
                **config_overrides) -> Study:
    """Simulate the study window and measure it, in one call.

    ``blocks`` caps the simulation at that many blocks instead of the
    whole study window.  ``segment_dir`` attaches a spillable
    :class:`repro.chain.SegmentStore` before the run, so completed
    epochs land on disk and only the newest ``max_resident_epochs``
    (default 2) stay in memory — peak residency is O(epoch), which is
    what makes ``repro run --blocks 100000 --epoch-blocks 5000``
    feasible on a small box.  Spilled runs write segments on a
    background thread and use the flat-GC long-run regime by default
    (``overlap_io=False`` restores fully synchronous spills; the files
    are byte-identical either way).
    """
    config = ScenarioConfig(blocks_per_month=blocks_per_month, seed=seed,
                            **config_overrides)
    world = build_paper_scenario(config)
    flat_gc = None
    if segment_dir is not None:
        from repro.chain.segments import SegmentStore
        world.attach_segment_store(
            SegmentStore.open_or_create(str(segment_dir)),
            max_resident_epochs=max_resident_epochs
            if max_resident_epochs is not None else 2,
            overlap_io=overlap_io)
        flat_gc = world.install_flat_gc()
    try:
        result = world.run(blocks=blocks)
    finally:
        if flat_gc is not None:
            flat_gc.uninstall()
    dataset = run_inspector(result, fault_plan=fault_plan,
                            chunk_size=chunk_size, checkpoint=checkpoint,
                            resume=resume, workers=workers,
                            cache_dir=cache_dir, cache_key=cache_key,
                            config=run_config)
    return Study(result=result, dataset=dataset)


def serve_study(blocks_per_month: int = 60, seed: int = 7,
                follow: bool = False,
                fault_plan: Optional[FaultPlan] = None,
                run_config: Optional[RunConfig] = None,
                **config_overrides):
    """Simulate the study window and build a query service over it.

    Returns ``(study, service)`` where ``service`` is a
    :class:`repro.serve.MevQueryService` ready to go behind
    :class:`repro.serve.MevHttpServer`.  With ``follow=True`` the
    dataset is measured in streaming mode first (converging through
    any faults ``run_config`` implies); either way the service serves
    the final joined dataset.  ``repro serve`` wires the live-follow
    variant — a store fed block-by-block during ingestion — directly
    through :func:`repro.serve.stream_service`.
    """
    from repro.serve import service_from_dataset

    if follow:
        study = follow_study(blocks_per_month=blocks_per_month,
                             seed=seed, fault_plan=fault_plan,
                             run_config=run_config, **config_overrides)
    else:
        study = quick_study(blocks_per_month=blocks_per_month,
                            seed=seed, fault_plan=fault_plan,
                            run_config=run_config, **config_overrides)
    return study, service_from_dataset(study.dataset)


__all__ = ["FaultPlan", "RunConfig", "ScenarioConfig", "SimulationResult",
           "Study", "World", "__version__", "build_paper_scenario",
           "follow_inspector", "follow_study", "quick_study",
           "run_inspector", "serve_study"]
