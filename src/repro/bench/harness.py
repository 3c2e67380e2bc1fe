"""Seeded wall-clock benchmarks for the measurement pipeline.

The harness simulates one study window, then times the layers the
paper's crawl spends its time in — the world simulation itself (the
``simulate`` stage), detection as the fused single-pass scan vs. the
four standalone detectors over linear archive reads, and the
end-to-end pipeline — reporting each as blocks/second.  The end-to-end
stage runs at several worker counts and *verifies* (not just assumes)
that every parallel run is bit-identical to the serial one before
reporting a speedup; the fused scan is likewise verified row-for-row
against the linear reference on every run.  The simulation gets the
same treatment: the world is rebuilt on the naive reference paths
(``build_paper_scenario(..., fast_paths=False)`` — full mempool
re-sorts, no scan memoization) and the complete block-hash and
transaction-hash sequence must match the optimized run before the
``simulate`` number is trusted (``sim_identical``).  The stream,
serve and shard stages follow, each behind its own identity gate.
Every run runs every stage, and every identity gate is listed once,
in :data:`GATES`.

One bench run builds two worlds, the timed one and the reference,
both under flat GC (``World.install_flat_gc``, the regime production
long runs use).  The timed ``simulate`` stage runs one epoch at a
time, sealing every boundary, and records the per-epoch rows the
advisory ``scale_flat`` verdict judges; ``shard`` re-simulates from
those seals.

Passing ``profile=True`` wraps each stage in :mod:`cProfile` and
attaches top-25 cumulative-time tables under ``report["profile"]``.
Profiling inflates wall times severalfold, so a profiled report is for
reading *where* time goes, never for comparing *how much*.

Wall-clock measurement is the one legitimate use of ambient time in
this codebase: the numbers describe the machine, never the simulated
world, so determinism rule R002 is suppressed locally instead of
weakened globally.  Everything that shapes the *workload* (world seed,
chunk plan, worker counts) is pinned in the emitted scenario block, so
two runs on the same machine benchmark the same work.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import platform
import pstats
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, \
    Tuple, Union

from repro.chain.node import ArchiveNode
from repro.chain.transaction import reset_tx_counter
from repro.core.datasets import ChunkPayload
from repro.core.pipeline import plan_chunks
from repro.core.profit import PriceService
from repro.engine import RunConfig, effective_workers
from repro.faults.plan import FaultPlan
from repro.sim import ScenarioConfig, build_paper_scenario
from repro.sim.shard import block_sequence
from repro.sim.world import SimulationResult, activity_saturation_month

#: Schema version of BENCH_pipeline.json; CHANGES.md records what each
#: version added or removed.
BENCH_VERSION = 10

#: The identity gates, in report order: ``(report key, failure
#: message)``.  Any gate that is not ``True`` fails ``repro bench``.
#: ``simulate.scale_flat`` is advisory and deliberately not listed.
GATES: Tuple[Tuple[str, str], ...] = (
    ("sim_identical",
     "optimized simulation diverged from the reference paths"),
    ("parallel_identical", "parallel run diverged from serial run"),
    ("indexed_matches_linear",
     "indexed read path diverged from linear scan"),
    ("stream_identical",
     "streamed dataset diverged from the batch pipeline over the "
     "canonical chain"),
    ("serve_identical",
     "stream-built store served responses that diverged from the "
     "batch-built store"),
    ("shard_identical",
     "sharded epoch splice diverged from the serial block/tx hash "
     "sequence"),
)

#: ``scale_flat`` passes when the median throughput of the last quarter
#: of saturated epochs is at least this fraction of the first
#: quarter's — the "throughput does not decay with total progress"
#: claim, with room for machine noise.
SCALE_FLAT_THRESHOLD = 0.8

#: How many rows of each per-stage cProfile table to keep.
PROFILE_TOP_N = 25

#: Worker counts the end-to-end stage sweeps.
DEFAULT_WORKERS: Tuple[int, ...] = (1, 2, 4)

#: Requests in the serve stage's seeded replay mix.
SERVE_REQUESTS = 300

#: Worker processes the shard stage re-simulates epochs across.
SHARD_WORKERS = 2


def _clock() -> float:
    """Monotonic wall-clock seconds (machine time, not simulated)."""
    return time.perf_counter()  # repro-lint: disable=R002


class _Stages:
    """The stage rows of one bench run, and their cProfile tables.

    Without ``profile`` the bodies run bare, so the timed code paths
    are byte-for-byte the same with and without ``--profile`` — only
    the interpreter-level tracing differs.
    """

    def __init__(self, profile: bool) -> None:
        self.profile = profile
        self.rows: List[Dict[str, Any]] = []
        self.tables: Dict[str, str] = {}

    def run(self, label: str, blocks: int, body: Callable[[], Any],
            workers_requested: int = 1) -> Any:
        """Time ``body()``, append its stage row, return its value;
        when profiling, keep a top-``PROFILE_TOP_N`` cumulative-time
        table under ``label``.  Every row reports both the worker count
        it *asked for* and the count the host actually granted, so a
        1-CPU box's numbers are never mistaken for parallel ones."""
        profiler = cProfile.Profile() if self.profile else None
        started = _clock()
        value = profiler.runcall(body) if profiler else body()
        elapsed_s = _clock() - started
        if profiler is not None:
            stream = io.StringIO()
            stats = pstats.Stats(profiler, stream=stream)
            stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
            self.tables[label] = stream.getvalue()
        self.rows.append({
            "stage": label,
            "blocks": blocks,
            "elapsed_s": round(elapsed_s, 6),
            "blocks_per_s": round(blocks / elapsed_s, 3)
            if elapsed_s > 0 else None,
            "workers_requested": workers_requested,
            "workers_effective": effective_workers(workers_requested),
        })
        return value


def _lint_self() -> float:
    """Wall time of a syntactic lint pass over this package's tree.

    Deliberately the default per-module rules R001–R007 only
    (``LintConfig()`` builds no project for R101–R103): the number
    tracks how much a pre-commit hook or CI gate pays per run, and
    stays comparable as the rule set grows.
    """
    from repro.lint import LintConfig, lint_paths

    package_root = Path(__file__).resolve().parents[1]
    started = _clock()
    lint_paths([package_root], LintConfig())
    return _clock() - started


def _rss_mb() -> Optional[float]:
    """Current resident-set size in MB (Linux; None elsewhere)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return round(pages * os.sysconf("SC_PAGESIZE") / 1e6, 1)
    except (OSError, ValueError, IndexError):
        return None


def _simulate(config: ScenarioConfig, seals: Dict[int, Any],
              telemetry: List[Dict[str, Any]]) -> SimulationResult:
    """The timed world, one epoch at a time, under flat GC.

    The same draws as one ``run()`` (a seal draws nothing), filling
    ``seals`` for the shard stage and ``telemetry`` with one row per
    epoch — wall time, throughput, resident set — for ``scale_flat``.
    """
    reset_tx_counter()
    world = build_paper_scenario(config)
    total = config.total_blocks
    with world.install_flat_gc():
        for start in range(0, total, world.epoch_blocks):
            span = min(world.epoch_blocks, total - start)
            started = _clock()
            world.run(blocks=span, collect_seals=seals)
            elapsed = _clock() - started
            telemetry.append({
                "epoch": start // world.epoch_blocks,
                "blocks": span,
                "elapsed_s": round(elapsed, 6),
                "blocks_per_s": round(span / elapsed, 3)
                if elapsed > 0 else None,
                "rss_mb": _rss_mb(),
            })
    return world.result()


def _scale_flat_windows(telemetry: Sequence[Dict[str, Any]],
                        epoch_blocks: int, blocks_per_month: int,
                        ) -> Optional[Tuple[List[Dict[str, Any]],
                                            List[Dict[str, Any]]]]:
    """The first and last quarter (at least one epoch each) of the
    telemetry rows whose *first* block is past the activity ramp's
    saturation month — earlier epochs carry less traffic per block, so
    their higher blocks/s says nothing about scale.  ``None`` when
    fewer than two saturated epochs ran."""
    saturated_block = activity_saturation_month() * blocks_per_month
    steady = [row for row in telemetry
              if row["epoch"] * epoch_blocks >= saturated_block
              and row["blocks_per_s"]]
    if len(steady) < 2:
        return None
    quarter = max(1, len(steady) // 4)
    return steady[:quarter], steady[-quarter:]


def _median_rate(rows: Sequence[Dict[str, Any]]) -> float:
    return statistics.median(row["blocks_per_s"] for row in rows)


def _scale_flat_gate(telemetry: Sequence[Dict[str, Any]],
                     epoch_blocks: int, blocks_per_month: int,
                     ) -> Optional[bool]:
    """Whether per-epoch throughput held flat over total progress: the
    median of the last saturated quarter against the first quarter's.
    ``None`` (not judgeable, never faked) when fewer than two saturated
    epochs ran."""
    windows = _scale_flat_windows(telemetry, epoch_blocks,
                                  blocks_per_month)
    if windows is None:
        return None
    head, tail = windows
    return _median_rate(tail) >= SCALE_FLAT_THRESHOLD * _median_rate(head)


def run_bench(bpm: int = 60, seed: int = 7,
              workers: Sequence[int] = DEFAULT_WORKERS,
              chunk_size: Optional[int] = None,
              quick: bool = False,
              profile: bool = False,
              ) -> Dict[str, Any]:
    """Benchmark the pipeline; returns the BENCH_pipeline.json document.

    Every call runs every stage and decides every gate in
    :data:`GATES`.  ``quick`` shrinks the scenario for CI smoke runs.
    ``chunk_size`` defaults to an eighth of the range so every worker
    count in the sweep has chunks to parallelize over.  ``profile``
    attaches per-stage cProfile tables (and inflates every wall time;
    never compare profiled numbers against plain ones).
    """
    import asyncio

    # lazy: repro imports the engine
    from repro import follow_engine, follow_reference, run_inspector
    from repro.core.heuristics import (
        detect_arbitrages,
        detect_flash_loan_txs,
        detect_liquidations,
        detect_sandwiches,
    )
    from repro.core.scan import Detector
    from repro.serve import (build_mix, live_service,
                             responses_identical, serve_and_replay,
                             service_from_dataset)
    from repro.serve.loadgen import nearest_rank
    from repro.sim.shard import resimulate_and_splice

    if quick:
        bpm = min(bpm, 10)
    config = ScenarioConfig(blocks_per_month=bpm, seed=seed)
    blocks = config.total_blocks
    if chunk_size is None:
        chunk_size = max(1, blocks // 8)
    stages = _Stages(profile)

    # The one timed simulation.  ``_simulate`` resets the process-wide
    # transaction-uid counter first, so the world is the same whether
    # or not other scenarios were built earlier in the process.
    seals: Dict[int, Any] = {}
    epoch_telemetry: List[Dict[str, Any]] = []
    result = stages.run("simulate", blocks, lambda: _simulate(
        config, seals, epoch_telemetry))
    first = result.node.earliest_block_number()
    last = result.node.latest_block_number()
    chunks = plan_chunks(first, last, chunk_size)
    prices = PriceService(result.oracle)

    # Fast-vs-reference world gate: rebuild the same scenario on the
    # naive paths (full mempool re-sorts, no probe memoization) and
    # demand the identical block/tx hash sequence.  The optimized
    # simulator's speed is only a result once this passes.  Flat GC,
    # like the timed run, so the printed ratio compares like with like.
    reset_tx_counter()
    started = _clock()
    reference_world = build_paper_scenario(config, fast_paths=False)
    with reference_world.install_flat_gc():
        reference = reference_world.run()
    sim_reference_s = round(_clock() - started, 6)
    reference_seq = block_sequence(result.blockchain.blocks)
    sim_identical = \
        block_sequence(reference.blockchain.blocks) == reference_seq

    # The chunks through the bare read path, no shield: the
    # single-pass scan vs. the four standalone detectors, each
    # re-reading every range.  The gap between these two stages is what
    # the fused scan buys.
    node = ArchiveNode(result.blockchain)
    detector = Detector(prices)
    indexed_payloads = stages.run(
        "detection_indexed", blocks,
        lambda: [detector.scan_range(node, lo, hi) for lo, hi in chunks])
    linear_payloads = stages.run(
        "detection_linear", blocks,
        lambda: [ChunkPayload(
            (*detect_sandwiches(node, prices, lo, hi),
             *detect_arbitrages(node, prices, lo, hi),
             *detect_liquidations(node, prices, lo, hi)),
            frozenset(detect_flash_loan_txs(node, lo, hi)))
            for lo, hi in chunks])
    indexed_matches_linear = indexed_payloads == linear_payloads

    # End to end: the full run_inspector pass (shielded detection,
    # merge, flash-loan / Flashbots / privacy labelling, quality
    # accounting) at every worker count, each verified bit-identical
    # to the serial pass.  These rows go to ``end_to_end``, not to the
    # stage list.
    sweep = _Stages(profile=False)
    serial_print = sweep.run(
        "end_to_end[workers=1]", blocks,
        lambda: run_inspector(result, config=RunConfig(
            chunk_size=chunk_size))).fingerprint()
    serial = sweep.rows[0]
    end_to_end: List[Dict[str, Any]] = []
    for count in workers:
        entry, identical = serial, True
        if count != 1:
            parallel = RunConfig(chunk_size=chunk_size, workers=count)
            identical = sweep.run(
                f"end_to_end[workers={count}]", blocks,
                lambda: run_inspector(result, config=parallel),
                workers_requested=count).fingerprint() == serial_print
            entry = sweep.rows[-1]
        entry["workers"] = count
        entry["identical_to_serial"] = identical
        entry["speedup_vs_serial"] = \
            round(serial["elapsed_s"] / entry["elapsed_s"], 3) \
            if entry["elapsed_s"] > 0 else None
        end_to_end.append(entry)
    parallel_identical = all(entry["identical_to_serial"]
                             for entry in end_to_end)

    # Streaming convergence gate: replay the finished canonical chain
    # through a deliberately hostile feed (seeded reorgs, delays,
    # duplicates, one outage window) and demand that the incremental
    # engine's dataset — rows and quality ledger — is bit-identical to
    # ``follow_reference``, the batch pipeline over per-block chunks.
    # The serving stage rides the same engine: its store is built
    # live, block by block, through every injected reorg.
    plan = FaultPlan.from_profile("reorg", seed, first, last)
    engine, feed = follow_engine(
        result, fault_plan=plan,
        config=RunConfig(confirm_depth=plan.feed.max_reorg_depth))
    stream_query = live_service(engine)
    stream_dataset = stages.run("stream", blocks,
                                lambda: engine.run(feed))
    batch_dataset = follow_reference(result, fault_plan=plan)
    stream_identical = \
        stream_dataset.fingerprint() == batch_dataset.fingerprint()
    lags = engine.report.confirmation_lags
    stream_info: Dict[str, Any] = {
        "confirm_depth": engine.confirm_depth,
        "events": engine.report.events,
        "reorgs": engine.report.reorgs,
        "max_reorg_depth": engine.report.max_reorg_depth,
        "duplicates": engine.report.duplicates,
        "out_of_order": engine.report.out_of_order,
        "retracted_blocks": engine.report.retracted_blocks,
        "retracted_rows": engine.report.retracted_rows,
        "rescans_skipped": engine.report.rescans_skipped,
        "lag_p50_blocks": nearest_rank(lags, 50),
        "lag_p99_blocks": nearest_rank(lags, 99),
    }

    # Serving stage: the identity gate first (batch-built store vs the
    # live-fed one above, byte-for-byte per endpoint), then a seeded
    # load replay over real sockets.  The latency numbers are only a
    # result once the identity gate passes — fast wrong answers are
    # not a serving layer.
    batch_query = service_from_dataset(batch_dataset)
    serve_identical = responses_identical(batch_query, stream_query)
    mix = build_mix(first, last, requests=SERVE_REQUESTS, seed=seed)
    load = stages.run("serve", blocks, lambda: asyncio.run(
        serve_and_replay(batch_query, mix, seed=seed)))

    # Epoch-shard gate: every epoch is re-simulated from the seal the
    # ``simulate`` stage took at its boundary, on worker processes, and
    # the spliced chain must reproduce the benchmarked world bit for
    # bit — the splice-vs-reference discipline, applied to world
    # generation itself.  Runs last: it re-simulates, which must not
    # perturb the stages above.
    spliced, shard_info = stages.run(
        "shard", blocks,
        lambda: resimulate_and_splice(config, seals,
                                      workers=SHARD_WORKERS),
        workers_requested=SHARD_WORKERS)
    shard_identical = bool(reference_seq) and \
        block_sequence(spliced.blockchain.blocks) == reference_seq

    report: Dict[str, Any] = {
        "version": BENCH_VERSION,
        "scenario": {
            "blocks_per_month": bpm,
            "seed": seed,
            "blocks": blocks,
            "chunk_size": chunk_size,
            "chunks": len(chunks),
            "quick": quick,
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python_version": platform.python_version(),
        },
        "simulate_s": stages.rows[0]["elapsed_s"],
        "simulate": {
            "epoch_telemetry": epoch_telemetry,
            "scale_flat": _scale_flat_gate(
                epoch_telemetry, shard_info["epoch_blocks"], bpm),
        },
        "lint_s": round(_lint_self(), 6),
        "sim_reference_s": sim_reference_s,
        "sim_identical": sim_identical,
        "stages": stages.rows,
        "end_to_end": end_to_end,
        "parallel_identical": parallel_identical,
        "indexed_matches_linear": indexed_matches_linear,
        "stream_identical": stream_identical,
        "stream": stream_info,
        "serve_identical": serve_identical,
        "serve": load.to_dict(),
        "shard_identical": shard_identical,
        "shard": shard_info,
    }
    if profile:
        report["profile"] = stages.tables
    return report


def write_report(report: Dict[str, Any],
                 path: Union[str, Path]) -> None:
    """Write the benchmark document as stable, diffable JSON."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")


def render_report(report: Dict[str, Any]) -> str:
    """A short human summary of one benchmark document: stage rows,
    stage details, then one verdict line per entry of :data:`GATES`."""
    scenario = report["scenario"]
    lines = [
        f"pipeline benchmark — {scenario['blocks']} blocks "
        f"(bpm={scenario['blocks_per_month']}, seed={scenario['seed']}, "
        f"{scenario['chunks']} chunks of {scenario['chunk_size']}), "
        f"{report['machine']['cpu_count']} cpu(s)",
    ]
    for stage in report["stages"]:
        lines.append(f"  {stage['stage']:<18} "
                     f"{stage['elapsed_s']:>9.3f}s  "
                     f"{stage['blocks_per_s'] or 0:>10.1f} blocks/s")
    for entry in report["end_to_end"]:
        check = "ok" if entry["identical_to_serial"] else "DIVERGED"
        lines.append(f"  workers={entry['workers']:<4} "
                     f"{entry['elapsed_s']:>9.3f}s  "
                     f"{entry['speedup_vs_serial']:>5.2f}x  [{check}]")
    reference_s = report["sim_reference_s"]
    if report["simulate_s"] > 0:
        lines.append(f"  reference sim: {reference_s:.3f}s vs "
                     f"{report['simulate_s']:.3f}s, "
                     f"{reference_s / report['simulate_s']:.2f}x")
    stream_info = report["stream"]
    lines.append(
        f"  stream: {stream_info['reorgs']} reorgs, "
        f"max depth {stream_info['max_reorg_depth']}, "
        f"{stream_info['retracted_rows']} rows retracted, "
        f"lag p50/p99 {stream_info['lag_p50_blocks']}/"
        f"{stream_info['lag_p99_blocks']} blocks")
    serve_info = report["serve"]
    lines.append(
        f"  serve replay: {serve_info['requests']} requests "
        f"over {serve_info['connections']} conns, "
        f"{serve_info['qps']:.0f} qps, p50/p99 "
        f"{serve_info['p50_ms']:.3f}/{serve_info['p99_ms']:.3f} ms, "
        f"{serve_info['not_modified']} not-modified, "
        f"{serve_info['errors']} errors")
    shard_info = report["shard"]
    lines.append(
        f"  epoch shard: {shard_info['resimulated_epochs']}"
        f"/{shard_info['epochs']} epochs ({shard_info['scope']}, "
        f"epoch_blocks={shard_info['epoch_blocks']}, workers "
        f"{shard_info['workers_requested']}→"
        f"{shard_info['workers_effective']} effective)")
    lines.append(_scale_flat_line(report["simulate"],
                                  shard_info["epoch_blocks"],
                                  scenario["blocks_per_month"]))
    for key, message in GATES:
        lines.append(f"  {key}: " + ("yes" if report[key] is True
                                     else f"NO — {message}"))
    lines.append(f"  syntactic lint of own tree: {report['lint_s']:.3f}s")
    return "\n".join(lines)


def _scale_flat_line(simulate: Dict[str, Any], epoch_blocks: int,
                     blocks_per_month: int) -> str:
    """The advisory ``scale_flat`` verdict, quoting the epochs and the
    median throughputs the verdict actually compared."""
    scale_flat = simulate["scale_flat"]
    windows = _scale_flat_windows(simulate["epoch_telemetry"],
                                  epoch_blocks, blocks_per_month)
    if scale_flat is None or windows is None:
        return ("  simulate throughput scale-flat: skipped "
                "(fewer than two saturated epochs)")
    head, tail = windows
    return ("  simulate throughput scale-flat: "
            + ("yes" if scale_flat else "NO")
            + f" ({_window_label(head)}: {_median_rate(head)} blocks/s"
            f" → {_window_label(tail)}: {_median_rate(tail)} blocks/s,"
            f" rss {tail[-1]['rss_mb']} MB)")


def _window_label(rows: Sequence[Dict[str, Any]]) -> str:
    first, last = rows[0]["epoch"], rows[-1]["epoch"]
    return f"epoch {first}" if first == last \
        else f"epochs {first}–{last} median"
