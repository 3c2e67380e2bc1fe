"""The system under test, how it is stood up, and three workloads.

Set-up runs the whole pipeline a user runs before any query: simulate
the study window as ``repro run --segment-dir`` does (completed epochs
spilled to a segment store on the background writer, flat-GC regime)
while collecting epoch seals, read the canonical chain back, re-simulate
one epoch from its seal (the splice identity rule), run the batch
study, follow the chain through the streaming engine into a live
store, and check the two identity rules (streamed dataset == batch
dataset; every endpoint's response byte-identical between the
batch-built and the live-fed store).  Every layer is exercised by
set-up, so the traced run of any workload reports every layer.

The simulated chain is one fixed dataset (``WORLD_SEED``), as the
paper measured one real chain; ``--seed`` draws what the workload does
with it: the order epochs are re-simulated and blocks are studied in,
the fault plans of the followed feeds.  Different world seeds
differ in how much MEV they hold and where, which would move every
figure by more than the noise this benchmark must resolve.

Each workload repeats one pass of work for the whole run.  A pass is a
fixed list of short steps, each timed on its own and each with the
same input every time the pass repeats; every step's output is
checked against a reference (the set-up's serial chain and seals, the
same study over the in-memory chain, or the batch study and its
service), outside the timed span.  Workloads are resumable (``step``
and ``run_for`` continue where the previous call stopped), so a run can
interleave set-up repetitions with measurement.
"""

import json
import os
import random
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.segments import SegmentStore
from repro.chain.transaction import reset_tx_counter
from repro.core.datasets import MevDataset
from repro.core.pipeline import MevInspector
from repro.core.profit import PriceService
from repro.engine import ChunkRunner, RunConfig
from repro.faults.feed import ChainFeed, FaultyFeed
from repro.faults.plan import FaultPlan
from repro.serve.builders import StoreFeeder, service_from_dataset
from repro.serve.service import MevQueryService, responses_identical
from repro.serve.store import ColumnStore
from repro.sim import EpochSeal, ScenarioConfig, SimulationResult, \
    build_paper_scenario, plan_epochs, resimulate_epochs, splice_epochs
from repro.stream import StreamEngine

#: Seed of the simulated chain every run measures.
WORLD_SEED = 7
#: 23 months x 20 blocks: a world small enough to stand up in about a
#: second, large enough that every MEV type and channel appears.
BLOCKS_PER_MONTH = 20
#: One spilled segment, and one seal, per simulated month.
EPOCH_BLOCKS = 20
#: Resident tail kept by the spilling chain and its segment reader.
MAX_RESIDENT_EPOCHS = 2
#: Confirmation depth of the set-up follow over the clean feed.
FOLLOW_CONFIRM_DEPTH = 3
#: Row kinds whose detection looks up receipts by transaction hash.
RECEIPT_KINDS = ("sandwich", "liquidation")
#: Fault plans one reorg_follow pass follows the chain through.
FAULT_PLANS = 32

BlockSequence = List[Tuple[str, Tuple[str, ...]]]


def clock() -> float:
    return time.perf_counter()


def scenario() -> ScenarioConfig:
    return ScenarioConfig(blocks_per_month=BLOCKS_PER_MONTH,
                          seed=WORLD_SEED, epoch_blocks=EPOCH_BLOCKS)


def fingerprint(dataset: MevDataset) -> Tuple[str, str]:
    """Identity of a study: its rows and its quality ledger."""
    return (json.dumps(dataset.to_rows(), sort_keys=True),
            json.dumps(dataset.quality.to_dict(), sort_keys=True))


def block_sequence(blocks) -> BlockSequence:
    """Every block's hash and transaction hashes, in chain order."""
    return [(block.hash, tuple(block.tx_hashes)) for block in blocks]


def spilled_world(config: ScenarioConfig, segment_root: str):
    """A fresh world in the regime of ``repro run --segment-dir``:
    spills overlapped on the background writer, flat GC installed."""
    reset_tx_counter()
    world = build_paper_scenario(config)
    world.attach_segment_store(SegmentStore.create(segment_root),
                               max_resident_epochs=MAX_RESIDENT_EPOCHS,
                               overlap_io=True)
    return world, world.install_flat_gc()


def release(world, flat_gc) -> None:
    flat_gc.uninstall()
    # The world never stops its writer thread; run() has already
    # flushed it, so closing here only ends the idle thread.
    writer = getattr(world, "_overlap_writer", None)
    if writer is not None:
        writer.close()


def simulate_spilled(config: ScenarioConfig, segment_root: str,
                     seals: Dict[int, EpochSeal]) -> SimulationResult:
    """Simulate the whole window in one run, collecting a seal at
    every epoch boundary."""
    world, flat_gc = spilled_world(config, segment_root)
    try:
        return world.run(collect_seals=seals)
    finally:
        release(world, flat_gc)


@dataclass
class Fixture:
    """The stood-up system plus the references checks use."""

    config: ScenarioConfig
    result: SimulationResult
    seals: Dict[int, EpochSeal]
    canonical: Blockchain
    sequence: BlockSequence
    prices: PriceService
    batch: MevDataset
    batch_print: Tuple[str, str]
    service: MevQueryService

    @property
    def bounds(self) -> Tuple[int, int]:
        return self.canonical.blocks[0].number, \
            self.canonical.blocks[-1].number

    @property
    def identity(self) -> Tuple[Any, ...]:
        """What every set-up of the same world must reproduce."""
        return (self.batch_print, self.sequence,
                sorted((index, seal.fingerprint)
                       for index, seal in self.seals.items()))


class CheckFailed(RuntimeError):
    """Set-up produced output that breaks an identity rule."""


def resimulated_matches(fixture: Fixture, results) -> bool:
    """Re-simulated epochs equal the serial run: their blocks, and the
    position (next block, transaction counter) of their end seals.
    Seal bytes are not compared: a restored world pickles the same
    state with a different object layout."""
    blocks = {block.number: (block.hash, tuple(block.tx_hashes))
              for block in fixture.canonical.blocks}
    for result in results:
        lo, hi = result.chunk
        if block_sequence(result.blocks) != [
                blocks.get(number) for number in range(lo, hi + 1)]:
            return False
        serial_end = fixture.seals.get(result.epoch_index + 1)
        end = result.end_seal
        if serial_end is None or \
                (end.first_block, end.tx_counter) != \
                (serial_end.first_block, serial_end.tx_counter):
            return False
    return True


def stand_up(segment_root: str) -> Fixture:
    """Simulate, spill, seal, study, follow and serve the world."""
    config = scenario()
    seals: Dict[int, EpochSeal] = {}
    result = simulate_spilled(config, segment_root, seals)

    canonical = Blockchain()
    for block in result.blockchain.iter_range():
        canonical.append(block)
    if canonical.height != config.total_blocks:
        raise CheckFailed(f"read back {canonical.height} blocks from "
                          f"the segment store, expected "
                          f"{config.total_blocks}")

    prices = PriceService(result.oracle)
    batch = MevInspector(ArchiveNode(canonical), prices,
                         result.flashbots_api, result.observer).run(
        config=RunConfig(chunk_size=1))
    batch_print = fingerprint(batch)
    fixture = Fixture(config=config, result=result, seals=seals,
                      canonical=canonical,
                      sequence=block_sequence(canonical.blocks),
                      prices=prices, batch=batch,
                      batch_print=batch_print,
                      service=service_from_dataset(batch))

    # The splice identity rule, on the last full epoch.
    last_epoch = plan_epochs(config)[-1]
    if not resimulated_matches(fixture, resimulate_epochs(
            config, seals, chunks=[last_epoch])):
        raise CheckFailed("re-simulated epoch differs from the serial run")

    engine = StreamEngine(prices, first_block=canonical.blocks[0].number,
                          confirm_depth=FOLLOW_CONFIRM_DEPTH,
                          flashbots_api=result.flashbots_api,
                          observer=result.observer)
    live = ColumnStore()
    engine.subscribe(StoreFeeder(live))
    if fingerprint(engine.run(ChainFeed(canonical))) != batch_print:
        raise CheckFailed("followed study differs from the batch study")
    if not responses_identical(fixture.service, MevQueryService(live)):
        raise CheckFailed("live-fed store serves different responses")
    return fixture


class Recorder:
    """Fastest time of each step of a pass, and how many steps failed.

    A workload's pass is a fixed list of steps, each with the same
    input every time the pass repeats; ``fastest`` maps each step's key
    to its shortest time over the run, so a pass at its fastest takes
    the sum of its values once the run has completed a pass.  With a tracer attached, output
    checks run inside ``unobserved()`` so the reference calls they make
    are not charged to any layer.
    """

    def __init__(self, tracer=None) -> None:
        self.fastest: Dict[Any, float] = {}
        self.attempted = 0
        self.failed = 0
        self.tracer = tracer

    @contextmanager
    def unobserved(self):
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def record(self, step, elapsed: float) -> None:
        if elapsed < self.fastest.get(step, elapsed + 1.0):
            self.fastest[step] = elapsed
        self.attempted += 1

    def timed(self, step, operation, *args) -> Any:
        started = clock()
        value = operation(*args)
        self.record(step, clock() - started)
        return value


class ShardedSim:
    """Simulate the window as a spilled, sealed run, then shard it.

    One pass is what ``repro bench --shard`` times, in the regime of a
    spilled ``repro run``: the serial simulation with overlapped spills,
    flat GC and a seal at every boundary, then every epoch re-simulated
    from its seal (in a seeded order, as a work queue would hand them
    out) and spliced.  The steps are short: building the world, then
    the serial run in resumed ``World.run`` calls of one epoch's length
    that each end mid-epoch (so each spill still overlaps half an
    epoch of simulation before the call's closing flush), then one
    re-simulated epoch each, then the splice.  The serial chain and
    seals must equal set-up's; every re-simulated epoch must reproduce
    the serial blocks and end where the serial seal at its far boundary
    starts, and the splice must reproduce the serial chain.
    """

    def __init__(self, fixture: Fixture, seed: int, recorder: Recorder,
                 work_dir: str) -> None:
        self.fixture = fixture
        self.recorder = recorder
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.epochs = plan_epochs(fixture.config)
        self.legs = []
        remaining = fixture.config.total_blocks
        while remaining > 0:
            leg = min(EPOCH_BLOCKS // 2 if not self.legs
                      else EPOCH_BLOCKS, remaining)
            self.legs.append(leg)
            remaining -= leg
        self.passes = 0

    def run_for(self, seconds: float) -> None:
        deadline = clock() + seconds
        while clock() < deadline:
            self.step()

    @property
    def passed(self) -> bool:
        return self.passes > 0

    def step(self) -> None:
        """One whole pass: its steps share the serial run's seals."""
        fixture, recorder = self.fixture, self.recorder
        root = os.path.join(self.work_dir, f"shard-{self.passes}")
        self.passes += 1
        order = self.rng.sample(self.epochs, len(self.epochs))
        seals: Dict[int, EpochSeal] = {}
        config = fixture.config
        try:
            world, flat_gc = recorder.timed("build", spilled_world,
                                            config, root)
            try:
                for index, blocks in enumerate(self.legs):
                    serial = recorder.timed(("serial", index), world.run,
                                            blocks, seals)
            finally:
                release(world, flat_gc)
            results = [
                recorder.timed(chunk, resimulate_epochs, config, seals,
                               [chunk])[0]
                for chunk in order]
            results.sort(key=lambda result: result.epoch_index)
            spliced = recorder.timed("splice", splice_epochs, config,
                                     results)
            with recorder.unobserved():
                good = (
                    block_sequence(serial.blockchain.iter_range())
                    == fixture.sequence
                    and {i: s.fingerprint for i, s in seals.items()}
                    == {i: s.fingerprint
                        for i, s in fixture.seals.items()}
                    and resimulated_matches(fixture, results)
                    and block_sequence(spliced.blockchain.blocks)
                    == fixture.sequence)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if not good:
            recorder.failed += 1


class SpilledStudy:
    """Re-study MEV blocks from the spilled archive, one pass at a time.

    The blocks are those where the batch study found a sandwich or a
    liquidation, whose detection looks up receipts by transaction hash;
    on the segment-backed chain the simulation left behind, a lookup
    for a spilled block goes through segment loads and the reader's
    bounded cache, so its cost grows with the block's depth.  One pass
    studies the middle such block of every epoch that has one, in a
    seeded order.  A block's steps are its segment loads, each timed
    on its own, and the rest of its study.  The reader's cache carries
    over from block to block, so the pass order is fixed for the run
    (and primed before timing) to keep each block's loads the same
    every pass.  Each block's rows must equal the same block studied
    over the in-memory chain.
    """

    def __init__(self, fixture: Fixture, seed: int, recorder: Recorder,
                 work_dir: str) -> None:
        self.recorder = recorder
        by_epoch = defaultdict(set)
        for row in fixture.batch.to_rows():
            if row["kind"] in RECEIPT_KINDS:
                height = int(row["block_number"])
                by_epoch[(height - 1) // EPOCH_BLOCKS].add(height)
        heights = [sorted(group)[len(group) // 2]
                   for group in by_epoch.values()]
        reference = ChunkRunner(node=ArchiveNode(fixture.canonical),
                                prices=fixture.prices)
        with recorder.unobserved():
            self.expected = {
                height: reference.run_chunk((height, height)).payload
                for height in heights}
        self.runner = ChunkRunner(
            node=ArchiveNode(fixture.result.blockchain),
            prices=fixture.prices)
        self.order = random.Random(seed).sample(heights, len(heights))
        self.done = 0
        self.loads: List[float] = []
        store = fixture.result.blockchain.store
        load = store.load_segment

        def timed_load(epoch):
            started = clock()
            try:
                return load(epoch)
            finally:
                self.loads.append(clock() - started)

        store.load_segment = timed_load
        last = self.order[-1]
        self.runner.run_chunk((last, last))

    def run_for(self, seconds: float) -> None:
        deadline = clock() + seconds
        while clock() < deadline:
            self.step()

    @property
    def passed(self) -> bool:
        return self.done >= len(self.order)

    def step(self) -> None:
        height = self.order[self.done % len(self.order)]
        self.done += 1
        self.loads = []
        started = clock()
        outcome = self.runner.run_chunk((height, height))
        elapsed = clock() - started
        record = self.recorder.record
        for index, load_s in enumerate(self.loads):
            record((height, index), load_s)
        record((height, "rest"), elapsed - sum(self.loads))
        if outcome.payload != self.expected[height]:
            self.recorder.failed += 1


class ReorgFollow:
    """Follow the chain through feeds full of reorgs.

    One pass follows the chain through each of ``FAULT_PLANS`` seeded
    fault plans (forks, re-deliveries, delays, duplicates, an outage
    window): it replays the canonical chain through the plan into a
    fresh engine feeding a live store, and finalizes it.  The steps are
    building the plan, its feed and the engine; each ingested event;
    and the finalize.  Plans differ in cost, so a pass covers enough of
    them that its time barely depends on the seed.  Each finalized
    study must equal the batch study and each live store must serve
    identical responses.
    """

    def __init__(self, fixture: Fixture, seed: int, recorder: Recorder,
                 work_dir: str) -> None:
        self.fixture = fixture
        self.recorder = recorder
        self.plans = [seed * 100003 + index
                      for index in range(FAULT_PLANS)]
        self.done = 0

    def run_for(self, seconds: float) -> None:
        deadline = clock() + seconds
        while clock() < deadline:
            self.step()

    @property
    def passed(self) -> bool:
        return self.done >= FAULT_PLANS

    def step(self) -> None:
        fixture, recorder = self.fixture, self.recorder
        plan_seed = self.plans[self.done % FAULT_PLANS]
        self.done += 1
        dataset, live = self.follow(plan_seed)
        with recorder.unobserved():
            good = (fingerprint(dataset) == fixture.batch_print
                    and responses_identical(fixture.service,
                                            MevQueryService(live)))
        if not good:
            recorder.failed += 1

    def follow(self, plan_seed: int):
        timed = self.recorder.timed
        engine, live, events = timed((plan_seed, "open"), self.open,
                                     plan_seed)
        for index, event in enumerate(events):
            timed((plan_seed, index), engine.ingest, event)
        return timed((plan_seed, "finalize"), engine.finalize), live

    def open(self, plan_seed: int):
        fixture = self.fixture
        first, last = fixture.bounds
        plan = FaultPlan.from_profile("reorg", plan_seed, first, last)
        engine = StreamEngine(fixture.prices, first_block=first,
                              confirm_depth=plan.feed.max_reorg_depth,
                              flashbots_api=fixture.result.flashbots_api,
                              observer=fixture.result.observer)
        live = ColumnStore()
        engine.subscribe(StoreFeeder(live))
        return engine, live, FaultyFeed(fixture.canonical, plan).events()


WORKLOADS = {
    "sharded_sim": ShardedSim,
    "spilled_study": SpilledStudy,
    "reorg_follow": ReorgFollow,
}
