#!/usr/bin/env python
"""Large-scenario spilling smoke: O(epoch) memory, measured for real.

Simulates a ~100k-block scenario with the segment store attached
(overlapped background spill writes and the flat-GC long-run regime,
like production runs), then asserts the four properties that
make million-block windows feasible:

1. **Residency bound** — the in-memory block list never exceeds
   ``(max_resident_epochs + 1) * epoch_blocks`` blocks, and peak RSS
   (``getrusage``) stays under a fixed ceiling regardless of
   ``--blocks``.
2. **Scale-flat throughput** — per-epoch blocks/s is printed for every
   epoch, and every epoch past the activity ramp's saturation point
   must hold at least ``FLATNESS`` of the first saturated epoch's
   throughput; a violation fails naming the offending epoch.
3. **Segment-backed reads** — a full ``iter_range`` walk off the
   spilled store yields every block, contiguous and parent-linked, and
   spot lookups resolve through the fingerprint-verified segments.  A
   seeded sample of cold spot reads, each through a fresh
   ``SegmentReader`` (segment open plus one frame), prints its median.
4. **Splice identity (sampled prefix)** — the first epochs are
   re-simulated from their seals across ``--workers`` processes and
   must match the stored chain hash-for-hash (the ``shard_identical``
   rule, checked here against the spilled reference).

Exits nonzero on any violation.  CI runs this at workers 1 and 2; run
it locally with smaller ``--blocks`` for a quick check.
"""

import argparse
import os
import random
import resource
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

from repro.chain.segments import SegmentReader, SegmentStore
from repro.chain.transaction import reset_tx_counter
from repro.sim import (
    ScenarioConfig,
    build_paper_scenario,
    resimulate_and_splice,
)
from repro.sim.shard import block_sequence
from repro.sim.world import activity_saturation_month

#: Minimum fraction of the first saturated epoch's throughput every
#: later epoch must hold (same margin as the bench ``scale_flat`` gate).
FLATNESS = 0.8

#: Spilled blocks read cold, one fresh reader each, for the spot-read
#: median.
SPOT_READS = 200


def rss_mb():
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGESIZE") / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=100_000)
    parser.add_argument("--bpm", type=int, default=5_000,
                        help="blocks per month (window must cover "
                             "--blocks)")
    parser.add_argument("--epoch-blocks", type=int, default=5_000)
    parser.add_argument("--max-resident-epochs", type=int, default=2)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--prefix-epochs", type=int, default=2,
                        help="epochs re-simulated for the identity "
                             "check")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ceiling-mb", type=int, default=900,
                        help="peak-RSS ceiling asserted after the run")
    args = parser.parse_args(argv)

    config = ScenarioConfig(blocks_per_month=args.bpm, seed=args.seed,
                            epoch_blocks=args.epoch_blocks)
    total = args.bpm * len(config.months)
    if args.blocks > total:
        parser.error(f"--blocks {args.blocks} exceeds the window "
                     f"({total} blocks at bpm={args.bpm})")
    prefix = min(args.prefix_epochs,
                 max(1, args.blocks // args.epoch_blocks))

    reset_tx_counter()
    world = build_paper_scenario(config)
    with tempfile.TemporaryDirectory(prefix="repro-segs-") as root:
        store = SegmentStore.create(os.path.join(root, "segments"))
        world.attach_segment_store(
            store, max_resident_epochs=args.max_resident_epochs,
            overlap_io=True)
        flat_gc = world.install_flat_gc()

        # Epoch-by-epoch so throughput is a per-epoch series, not one
        # average that would hide late-epoch decay.  Seals are collected
        # only over the prefix we re-simulate, so the parent's RSS
        # measures the spilling run, not a seal archive.
        started = time.time()
        seals = {}
        telemetry = []
        done = 0
        while done < args.blocks:
            span = min(args.epoch_blocks, args.blocks - done)
            epoch = done // args.epoch_blocks
            epoch_started = time.time()
            world.run(blocks=span,
                      collect_seals=seals if epoch < prefix else None)
            epoch_s = time.time() - epoch_started
            telemetry.append((epoch, span, span / epoch_s))
            print(f"epoch {epoch}: {epoch_s:.2f}s  "
                  f"{span / epoch_s:.0f} blocks/s  rss={rss_mb():.0f}MB")
            done += span
        flat_gc.uninstall()
        seals = {epoch: seal for epoch, seal in seals.items()
                 if epoch < prefix}
        elapsed = time.time() - started

        chain = world.blockchain
        assert chain.height == args.blocks, chain.height
        assert store.in_flight_epochs == [], store.in_flight_epochs
        resident = len(chain.blocks)
        bound = (args.max_resident_epochs + 1) * args.epoch_blocks
        assert resident <= bound, \
            f"resident blocks {resident} exceed bound {bound}"
        spilled = len(store.segments)
        print(f"simulated {args.blocks} blocks in {elapsed:.1f}s "
              f"({args.blocks / elapsed:.0f} blocks/s); "
              f"{spilled} segments spilled, {resident} blocks resident "
              f"(bound {bound})")

        # Scale-flat: every saturated full epoch holds the baseline.
        saturated_block = activity_saturation_month() * args.bpm
        steady = [(epoch, rate) for epoch, span, rate in telemetry
                  if epoch * args.epoch_blocks >= saturated_block
                  and span == args.epoch_blocks]
        if len(steady) >= 2:
            base_epoch, baseline = steady[0]
            floor = FLATNESS * baseline
            for epoch, rate in steady[1:]:
                assert rate >= floor, (
                    f"throughput decayed with scale: epoch {epoch} ran "
                    f"{rate:.0f} blocks/s, below {FLATNESS:.0%} of "
                    f"epoch {base_epoch}'s {baseline:.0f} blocks/s")
            print(f"scale-flat ok: epochs {base_epoch}..{steady[-1][0]} "
                  f"all >= {FLATNESS:.0%} of {baseline:.0f} blocks/s")
        else:
            print("scale-flat skipped: fewer than two saturated epochs")

        # Full walk off the spilled store: contiguous and parent-linked.
        previous = None
        count = 0
        walk_started = time.perf_counter()
        for block in chain.iter_range():
            count += 1
            assert block.number == count, (block.number, count)
            if previous is not None:
                assert block.parent_hash == previous.hash, block.number
            previous = block
        assert count == args.blocks, count
        walk_s = time.perf_counter() - walk_started
        for number in (1, args.epoch_blocks, args.epoch_blocks + 1,
                       args.blocks // 2, args.blocks):
            found = chain.block_by_number(number)
            assert found is not None and found.number == number, number
        print(f"segment-backed walk ok: {count} blocks in {walk_s:.2f}s, "
              f"linkage verified")

        # Cold spot reads: a fresh reader opens the segment (header and
        # index) and reads one frame.
        if store.segments:
            spilled_blocks = range(store.first_block,
                                   store.segments[-1].last_block + 1)
            spot_us = []
            for number in random.Random(args.seed).sample(
                    spilled_blocks, min(SPOT_READS, len(spilled_blocks))):
                read_started = time.perf_counter()
                found = SegmentReader(store).block(number)
                spot_us.append((time.perf_counter() - read_started) * 1e6)
                assert found is not None and found.number == number, \
                    number
            print(f"cold spot read: median "
                  f"{statistics.median(spot_us):.0f} us over "
                  f"{len(spot_us)} blocks, a fresh reader each")

        # Sampled-prefix shard identity against the spilled reference.
        resumed = time.time()
        spliced, info = resimulate_and_splice(
            config, seals, workers=args.workers, prefix_epochs=prefix)
        sharded = block_sequence(spliced.blockchain.blocks)
        stored = block_sequence(chain.iter_range(1, len(sharded)))
        assert sharded == stored, \
            f"{info['scope']} diverged from the spilled reference"
        print(f"shard identity ok: {info['scope']} re-simulated from "
              f"seals across {info['workers_effective']} worker(s) in "
              f"{time.time() - resumed:.1f}s, bit-identical")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak_kb / 1024.0
    print(f"peak RSS {peak_mb:.0f} MB (ceiling {args.ceiling_mb} MB)")
    assert peak_mb <= args.ceiling_mb, \
        f"peak RSS {peak_mb:.0f} MB exceeds {args.ceiling_mb} MB"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
