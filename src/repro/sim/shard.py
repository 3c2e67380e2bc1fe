"""Epoch-sharded world simulation over the chunk-execution engine.

A serial pass with ``World.run(collect_seals=...)`` yields one
:class:`~repro.sim.world.EpochSeal` per epoch boundary.  Given those
seals, every epoch becomes an *independent* unit of work: a fresh
worker rebuilds a mid-window world from ``(config, seal)`` via
:func:`~repro.sim.scenario.restore_paper_scenario`, simulates exactly
its epoch's blocks, and returns them.  :func:`splice_epochs` stitches
worker output back into one chain that must be **bit-identical** —
block hash and transaction hash, element for element — to the serial
reference.  ``repro bench --shard`` enforces that equality as the
``shard_identical`` gate (schema v7), with a sampled-prefix variant for
scenarios too large to reference in full.

Epochs run through the same :class:`~repro.engine.ParallelExecutor`
the detection pipeline uses; as there, worker count is an
optimization, never a semantic change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.chain.node import ArchiveNode, Blockchain
from repro.engine.executors import (
    BlockRange,
    ParallelExecutor,
    effective_workers,
)
from repro.sim.calendar import StudyCalendar
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import restore_paper_scenario, scenario_frame
from repro.sim.world import EpochSeal, SimulationResult


def plan_epochs(config: ScenarioConfig) -> List[BlockRange]:
    """The epoch chunk plan: inclusive ``(first, last)`` block ranges
    covering the study window, one per epoch (the last may be short)."""
    calendar = StudyCalendar(config.blocks_per_month, config.months)
    width = config.epoch_blocks or config.blocks_per_month
    return [calendar.epoch_bounds(index, width)
            for index in range(calendar.epoch_count(width))]


@dataclass
class EpochResult:
    """One epoch re-simulated from its seal on a (possibly remote)
    worker: the blocks it produced and the seal at its far boundary."""

    epoch_index: int
    chunk: BlockRange
    blocks: List[Block]
    end_seal: EpochSeal

    @property
    def failed(self) -> bool:
        """Mirrors ``ChunkResult.failed``: an epoch that raises
        propagates as a crash rather than degrading, so a returned
        result never failed."""
        return False


class EpochRunner:
    """The picklable unit of work: re-simulate one epoch from its seal.

    Shipped to worker processes by :class:`ParallelExecutor` exactly
    like the detection ``ChunkRunner``; only ``(lo, hi)`` ranges travel
    per task.  Restoring positions the process-wide transaction-uid
    counter at the seal, so the hashes a worker mints match the serial
    run's no matter which process runs which epoch.
    """

    def __init__(self, config: ScenarioConfig,
                 seals: Dict[int, EpochSeal]) -> None:
        self.config = config
        self.seals = dict(seals)
        self.epoch_blocks = config.epoch_blocks \
            or config.blocks_per_month

    def run_chunk(self, chunk: BlockRange) -> EpochResult:
        lo, hi = chunk
        epoch_index = (lo - 1) // self.epoch_blocks
        seal = self.seals.get(epoch_index)
        if seal is None:
            raise KeyError(f"no seal for epoch {epoch_index} "
                           f"(blocks {lo}-{hi})")
        if seal.first_block != lo:
            raise ValueError(
                f"seal {epoch_index} starts at block "
                f"{seal.first_block}, chunk starts at {lo}")
        world = restore_paper_scenario(self.config, seal)
        world.run(blocks=hi - lo + 1)
        return EpochResult(
            epoch_index=epoch_index, chunk=chunk,
            blocks=list(world.blockchain.blocks),
            end_seal=world.seal())


def resimulate_epochs(config: ScenarioConfig,
                      seals: Dict[int, EpochSeal],
                      chunks: Optional[Sequence[BlockRange]] = None,
                      workers: int = 1) -> List[EpochResult]:
    """Re-simulate epochs from their seals, fanned out over workers.

    Returns results in *epoch* order regardless of completion order —
    the reordering that makes worker count a pure optimization.
    """
    plan = list(chunks) if chunks is not None else plan_epochs(config)
    if not plan:
        return []
    runner = EpochRunner(config, seals)
    results = list(ParallelExecutor(workers).execute(runner, plan))
    results.sort(key=lambda result: result.epoch_index)
    return results


def splice_epochs(config: ScenarioConfig,
                  results: Sequence[EpochResult]) -> SimulationResult:
    """Stitch per-epoch worker output into one full-window result.

    Blocks are appended in order onto a fresh chain — each epoch's
    first block arrives with ``parent_hash=None`` (its worker chain
    started empty) and is stamped with the true tip hash here, exactly
    as the serial append would have stamped it.  The carried state of
    the *last* epoch's end seal supplies the result's observer trace,
    Flashbots dataset, relay, ledgers, and ground truths: by the seal
    determinism property those equal the serial run's finals.
    """
    ordered = sorted(results, key=lambda result: result.epoch_index)
    if not ordered:
        raise ValueError("cannot splice zero epochs")
    expected = None
    for result in ordered:
        if expected is not None and result.chunk[0] != expected:
            raise ValueError(
                f"epoch gap at block {expected}: next worker chunk "
                f"starts at {result.chunk[0]}")
        expected = result.chunk[1] + 1

    chain = Blockchain()
    for result in ordered:
        for block in result.blocks:
            chain.append(block)
    final = ordered[-1].end_seal
    carried = final.carried()
    calendar, forks, launch = scenario_frame(config)
    return SimulationResult(
        config=config, calendar=calendar, forks=forks,
        blockchain=chain, node=ArchiveNode(chain),
        observer=carried["observer"],
        flashbots_api=carried["flashbots_api"],
        relay=carried["relay"], miners=carried["miners"],
        private_pools=carried["private_pools"],
        oracle=carried["oracle"], registry=carried["registry"],
        lending_pools=carried["lending_pools"],
        ground_truths=carried["ground_truths"],
        flashbots_launch_block=launch)


def block_sequence(blocks: Iterable[Block],
                   ) -> List[Tuple[str, Tuple[str, ...]]]:
    """The identity every splice gate compares: each block's hash plus
    its full transaction-hash tuple, in chain order.  The block hash
    pins header fields (number, miner, timestamp, tx count); the
    tx-hash tuple pins exact inclusion and ordering, and each tx hash
    commits to the process-wide uid counter, so two runs can only match
    if they agreed on every transaction ever *created* — every RNG
    draw, every searcher decision — not merely the ones that landed."""
    return [(block.hash, tuple(block.tx_hashes)) for block in blocks]


def resimulate_and_splice(config: ScenarioConfig,
                          seals: Dict[int, EpochSeal],
                          workers: int = 1,
                          prefix_epochs: Optional[int] = None,
                          ) -> Tuple[SimulationResult, Dict[str, Any]]:
    """Re-simulate every epoch from already-collected seals and splice.

    Only the first ``prefix_epochs`` are re-simulated when given — the
    sampled-prefix gate for scenarios too large to reference in full —
    and the spliced result covers the full window or that prefix
    accordingly.  Returns ``(spliced, info)``; ``info`` describes the
    plan and the worker fan-out.
    """
    plan = plan_epochs(config)
    epochs = len(plan)
    scope = "full"
    if prefix_epochs is not None:
        if prefix_epochs < 1:
            raise ValueError("prefix_epochs must be >= 1")
        plan = plan[:prefix_epochs]
        scope = f"prefix[{len(plan)}]"
    results = resimulate_epochs(config, seals, chunks=plan,
                                workers=workers)
    info: Dict[str, Any] = {
        "epochs": epochs,
        "epoch_blocks": config.epoch_blocks or config.blocks_per_month,
        "resimulated_epochs": len(plan),
        "scope": scope,
        "workers_requested": workers,
        "workers_effective": effective_workers(workers),
    }
    return splice_epochs(config, results), info
