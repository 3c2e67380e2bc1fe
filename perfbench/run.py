"""Benchmark of the MEV measurement pipeline: whole passes of one kind.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sharded_sim --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``workloads.py``):

* ``sharded_sim`` — the study window simulated with overlapped spills,
  flat GC and epoch seals, then every epoch re-simulated from its seal
  and spliced; stresses the simulation, sealing, restoring and the
  segment writer.
* ``spilled_study`` — MEV blocks re-studied from the spilled segment
  store; stresses receipt lookups and segment loads.
* ``reorg_follow`` — the chain followed through reorg-heavy fault plans
  by the streaming engine into a live store; stresses follower
  bookkeeping, per-block detection, finalization and store writes.

Set-up (simulate with spill and seals, shard check, study, follow,
serve, identity checks) runs ``SETUPS`` times, each followed by an
equal share of the ``--seconds`` measurement; the first set-up's system
is the one the workload drives, and every later one must reproduce it.
``setup_s`` is the median set-up time.

``pass_ms`` is the time of one pass with every step at its fastest:
the sum over the pass's steps of each step's minimum time in the run,
as ``timeit`` takes the minimum of repeats.  A pass's steps repeat
with identical inputs, so a step's spread over the run is
interference, not work.  On a shared machine each CPU flips between a
fast and a slow state for seconds to minutes (±25-40% on a pure CPU
loop) as other tenants' load comes and goes; short steps each get
many chances to run in a fast stretch, so their minima read the
program's cost, which is what a code change moves, while a mean or
median moves with the share of the run the neighbours happened to
take.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``pass_ms``, ``setup_s``); with ``--trace 1`` every layer's entry
point is wrapped in a timing shim (``tracer.py``) and the line carries
per-layer metrics instead.  Exits 2 without a result when the
program's sources (``src/repro``) are not next to this directory.
"""

import argparse
import json
import os
import shutil
import statistics
import sys

#: Set-ups per run, each followed by an equal share of the measurement.
SETUPS = 4

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = os.path.join(ROOT, "src")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(SOURCES, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SOURCES}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCES)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer as tracing
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    recorder = workloads.Recorder(tracer)

    work_dir = os.path.join(ROOT, ".bench_build",
                            f"perfbench-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        started = workloads.clock()
        setups = []
        workload = None
        reproducible = True
        for index in range(SETUPS):
            began = workloads.clock()
            fixture = workloads.stand_up(
                os.path.join(work_dir, f"segments-{index}"))
            setups.append(workloads.clock() - began)
            if workload is None:
                identity = fixture.identity
                workload = workloads.WORKLOADS[args.workload](
                    fixture, args.seed, recorder, work_dir)
            # Every set-up simulates the same world: same chain, seals
            # and study.
            reproducible &= fixture.identity == identity
            del fixture
            workload.run_for(args.seconds / SETUPS)
        # A pass needs every step timed at least once.
        while not workload.passed:
            workload.step()
        wall_s = workloads.clock() - started
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = recorder.attempted
    if tracer is not None:
        tracer.unwrap()
        metrics = tracing.layer_metrics(tracer, wall_s)
    else:
        metrics = {
            "pass_ms": (sum(recorder.fastest.values()) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} seed={args.seed} {name} = {value:.6g} "
              f"{unit}")
    print(json.dumps({
        "correct": reproducible and recorder.failed == 0,
        "attempted": attempted,
        "failed": recorder.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
