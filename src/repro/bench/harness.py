"""Seeded wall-clock benchmarks for the measurement pipeline.

The harness builds one simulated study window, then times the layers
the paper's crawl spends its time in — the world simulation itself
(the ``simulate`` stage), detection as the fused single-pass scan vs.
the four standalone detectors over linear archive reads, and the
end-to-end pipeline — reporting each as blocks/second.  The end-to-end
stage runs at several worker counts and *verifies* (not just assumes)
that every parallel run is bit-identical to the serial one before
reporting a speedup; the fused scan is likewise verified row-for-row
against the linear reference on every run.  The simulation gets the
same treatment: the world is rebuilt on the naive reference paths
(``build_paper_scenario(..., fast_paths=False)`` — full mempool
re-sorts, no scan memoization) and the complete block-hash and
transaction-hash sequence must match the optimized run before the
``simulate`` number is trusted (``sim_identical``).  Every identity
gate is listed once, in :data:`GATES`.

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
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, \
    Tuple, Union

from repro.chain.events import FlashLoanEvent
from repro.chain.node import ArchiveNode
from repro.chain.transaction import reset_tx_counter
from repro.core.datasets import ChunkPayload
from repro.core.pipeline import plan_chunks
from repro.core.profit import PriceService
from repro.engine import RunConfig, effective_workers
from repro.faults.plan import FaultPlan
from repro.sim import ScenarioConfig, SimulationResult, \
    build_paper_scenario
from repro.sim.shard import block_sequence

#: Schema version of BENCH_pipeline.json.  Version 2 added the
#: ``detection_indexed`` / ``detection_linear`` stages, per-entry
#: ``workers_effective``, and the ``world_cache`` block.  Version 3
#: added the ``simulate`` stage, the ``sim_identical`` fast-vs-
#: reference world gate (with ``sim_reference_s``), and the optional
#: ``profile`` tables.  Version 4 added ``lint_s``, the wall time of
#: a syntactic ``repro.lint`` pass over the package's own source tree.
#: Version 5 added the ``stream`` stage and its convergence gate:
#: ``stream_identical`` (streaming over a faulted feed vs. the batch
#: pipeline over the canonical chain) plus the ``stream`` block with
#: reorg/duplicate counters and p50/p99 confirmation lag.  Version 6
#: added the ``serve`` block — a seeded HTTP load replay against the
#: query service (p50/p99 latency, qps, per-kind request counts) —
#: and its identity gate ``serve_identical`` (every endpoint response
#: byte-identical between a batch-built store and one fed live by the
#: streaming engine through the faulted feed); both are ``null``
#: unless the bench runs with ``--serve``.  Version 7 added
#: ``workers_requested``/``workers_effective`` to every stage (bench
#: honesty on 1-CPU boxes), the world-cache ``format`` marker
#: (version-less ≤1.5.0 monolithic snapshots are rejected with a clear
#: message), and the epoch-shard gate: ``shard_identical`` (serial
#: world vs epochs re-simulated from seals across workers and spliced
#: — full block-hash + tx-hash sequence, with a sampled-prefix variant
#: for very large scenarios) plus the ``shard`` info block; both are
#: ``null`` unless the bench runs with ``--shard``.  Version 8 added
#: ``platform``/``python_version`` to the ``machine`` block, per-epoch
#: seal-pass telemetry under ``shard.epoch_telemetry`` (blocks/s and
#: resident-set MB per epoch), and the ``shard.scale_flat`` gate —
#: last-epoch throughput must hold at least
#: ``SCALE_FLAT_THRESHOLD`` × the first *activity-saturated* epoch's
#: (earlier epochs still ride the traffic ramp, so they are not
#: comparable baselines); ``null`` when fewer than two saturated
#: epochs exist.  With ``--profile``, the shard seal pass now emits
#: one ``shard_epoch[N]`` top-25 table per epoch.  Version 9 only
#: removed keys: the ``detection`` and ``joins`` stage rows (the serial
#: ``run_inspector`` pass is timed directly as
#: ``end_to_end[workers=1]``), the world-snapshot cache with its
#: ``world_cache`` block, and the ``simulate`` stage's ``fresh`` flag.
BENCH_VERSION = 9

#: The identity gates, in report order: ``(report key, failure
#: message)``.  A gate that is ``False`` fails ``repro bench``; ``None``
#: means its stage did not run.  ``shard.scale_flat`` is advisory and
#: deliberately not listed.
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

#: ``scale_flat`` passes when the last epoch's seal-pass throughput is
#: at least this fraction of the first saturated epoch's — the
#: "throughput does not decay with total progress" claim, with room
#: for machine noise.
SCALE_FLAT_THRESHOLD = 0.8

#: How many rows of each per-stage cProfile table to keep.
PROFILE_TOP_N = 25

#: Worker counts the end-to-end stage sweeps.
DEFAULT_WORKERS: Tuple[int, ...] = (1, 2, 4)


def _clock() -> float:
    """Monotonic wall-clock seconds (machine time, not simulated)."""
    return time.perf_counter()  # repro-lint: disable=R002


class _StageProfiler:
    """Optionally wraps stage bodies in cProfile, collecting one
    top-``PROFILE_TOP_N`` cumulative-time table per stage label.

    Disabled (the default) it is a transparent pass-through, so the
    timed code paths are byte-for-byte the same with and without
    ``--profile`` — only the interpreter-level tracing differs.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.tables: Dict[str, str] = {}

    def run(self, label: str, body: Callable[[], Any]) -> Any:
        if not self.enabled:
            return body()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return body()
        finally:
            profiler.disable()
            stream = io.StringIO()
            stats = pstats.Stats(profiler, stream=stream)
            stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
            self.tables[label] = stream.getvalue()


def _timed(label: str, blocks: int, elapsed_s: float,
           workers_requested: int = 1) -> Dict[str, Any]:
    """One stage row.  Every stage reports both the worker count it
    *asked for* and the count the host actually granted, so a 1-CPU
    box's numbers are never mistaken for parallel ones."""
    return {
        "stage": label,
        "blocks": blocks,
        "elapsed_s": round(elapsed_s, 6),
        "blocks_per_s": round(blocks / elapsed_s, 3) if elapsed_s > 0
        else None,
        "workers_requested": workers_requested,
        "workers_effective": effective_workers(workers_requested),
    }


def _simulate(config: ScenarioConfig, profiler: _StageProfiler,
              ) -> Tuple[SimulationResult, float]:
    """The world to benchmark and its simulation wall time.

    Resets the process-wide transaction-uid counter first, so the timed
    run produces the same world whether or not other scenarios were
    built earlier in the process — and so the reference replay in
    :func:`run_bench` compares like with like.
    """
    reset_tx_counter()
    started = _clock()
    result = profiler.run(
        "simulate", lambda: build_paper_scenario(config).run())
    return result, _clock() - started


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


def _percentile(samples: Sequence[int], pct: float) -> Optional[int]:
    """Nearest-rank percentile of integer samples (None when empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * int(pct) // 100))  # ceil
    return ordered[min(rank, len(ordered)) - 1]


def _rss_mb() -> Optional[float]:
    """Current resident-set size in MB (Linux; None elsewhere)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return round(pages * os.sysconf("SC_PAGESIZE") / 1e6, 1)
    except (OSError, ValueError, IndexError):
        return None


def _seal_pass_telemetry(config: ScenarioConfig,
                         profiler: _StageProfiler,
                         ) -> Tuple[Dict[int, Any],
                                    List[Dict[str, Any]], float]:
    """The shard gate's serial seal pass, one epoch at a time.

    Equivalent draw for draw to one ``run(collect_seals=...)`` over the
    window (``run`` only advances the height; stopping at a boundary
    and resuming reseeds nothing extra), but surfacing what a single
    timed call hides: per-epoch wall time, throughput, and resident-set
    size — the curve the ``scale_flat`` gate judges.  Runs under the
    flat-GC long-run regime, like every production long run.  With
    profiling enabled, each epoch gets its own ``shard_epoch[N]``
    table, so late-epoch attribution is not averaged away.
    """
    reset_tx_counter()
    world = build_paper_scenario(config)
    flat_gc = world.install_flat_gc()
    seals: Dict[int, Any] = {}
    telemetry: List[Dict[str, Any]] = []
    epoch_blocks = config.epoch_blocks or config.blocks_per_month
    total = config.total_blocks
    pass_started = _clock()
    try:
        done = 0
        while done < total:
            span = min(epoch_blocks, total - done)
            epoch = done // epoch_blocks
            started = _clock()
            profiler.run(
                f"shard_epoch[{epoch}]",
                lambda span=span: world.run(blocks=span,
                                            collect_seals=seals))
            elapsed = _clock() - started
            telemetry.append({
                "epoch": epoch,
                "blocks": span,
                "elapsed_s": round(elapsed, 6),
                "blocks_per_s": round(span / elapsed, 3)
                if elapsed > 0 else None,
                "rss_mb": _rss_mb(),
            })
            done += span
    finally:
        flat_gc.uninstall()
    return seals, telemetry, _clock() - pass_started


def _steady_epochs(telemetry: Sequence[Dict[str, Any]],
                   epoch_blocks: int, blocks_per_month: int,
                   ) -> List[Dict[str, Any]]:
    """The telemetry rows the ``scale_flat`` gate judges: epochs whose
    *first* block is past the activity ramp's saturation month.
    Earlier epochs carry less traffic per block, so their higher
    blocks/s says nothing about scale."""
    from repro.sim.world import activity_saturation_month

    saturated_block = activity_saturation_month() * blocks_per_month
    return [row for row in telemetry
            if row["epoch"] * epoch_blocks >= saturated_block
            and row["blocks_per_s"]]


def _scale_flat_gate(steady: Sequence[Dict[str, Any]],
                     ) -> Optional[bool]:
    """Whether per-epoch throughput held flat over total progress: the
    last steady epoch against the first.  ``None`` (gate not judgeable,
    never faked) when fewer than two saturated epochs ran."""
    if len(steady) < 2:
        return None
    return (steady[-1]["blocks_per_s"]
            >= SCALE_FLAT_THRESHOLD * steady[0]["blocks_per_s"])


def run_bench(bpm: int = 60, seed: int = 7,
              workers: Sequence[int] = DEFAULT_WORKERS,
              chunk_size: Optional[int] = None,
              quick: bool = False,
              profile: bool = False,
              serve: bool = False,
              serve_requests: int = 300,
              shard: bool = False,
              shard_workers: int = 2,
              shard_prefix_epochs: Optional[int] = None,
              ) -> Dict[str, Any]:
    """Benchmark the pipeline; returns the BENCH_pipeline.json document.

    ``quick`` shrinks the scenario for CI smoke runs.  ``chunk_size``
    defaults to an eighth of the range so every worker count in the
    sweep has chunks to parallelize over.
    ``profile`` attaches per-stage cProfile tables (and inflates every
    wall time; never compare profiled numbers against plain ones).
    ``serve`` adds the query-service stage: a store fed live by the
    stream stage's engine is checked byte-for-byte against a
    batch-built one (``serve_identical``), then ``serve_requests``
    seeded requests replay over real sockets into the ``serve`` block.
    ``shard`` adds the epoch-shard gate: a serial pass collects epoch
    seals, every epoch (or the first ``shard_prefix_epochs``, which
    must be at least 1) is re-simulated from its seal across
    ``shard_workers`` worker processes, and the spliced chain must
    match the benchmarked world's full block-hash + tx-hash sequence
    (``shard_identical``).
    """
    # lazy: repro imports the engine
    from repro import follow_engine, follow_reference, run_inspector
    from repro.core.heuristics import (
        detect_arbitrages,
        detect_flash_loan_txs,
        detect_liquidations,
        detect_sandwiches,
    )
    from repro.core.scan import Detector

    if quick:
        bpm = min(bpm, 10)
    config = ScenarioConfig(blocks_per_month=bpm, seed=seed)
    total_blocks = config.total_blocks
    if chunk_size is None:
        chunk_size = max(1, total_blocks // 8)

    profiler = _StageProfiler(profile)
    result, simulate_s = _simulate(config, profiler)
    first = result.node.earliest_block_number()
    last = result.node.latest_block_number()
    blocks = last - first + 1
    chunks = plan_chunks(first, last, chunk_size)
    prices = PriceService(result.oracle)
    stages: List[Dict[str, Any]] = [_timed("simulate", blocks, simulate_s)]

    # Fast-vs-reference world gate: rebuild the same scenario on the
    # naive paths (full mempool re-sorts, no probe memoization) and
    # demand the identical block/tx hash sequence.  The optimized
    # simulator's speed is only a result once this passes.
    reset_tx_counter()
    started = _clock()
    reference = build_paper_scenario(config, fast_paths=False).run()
    sim_reference_s = round(_clock() - started, 6)
    sim_identical = (block_sequence(reference.blockchain.blocks)
                     == block_sequence(result.blockchain.blocks))

    # The chunks through the bare read path, no shield: the
    # single-pass scan vs. the four standalone detectors, each
    # re-reading every range.  The gap between these two stages is what
    # the fused scan buys.
    node = ArchiveNode(result.blockchain)
    detector = Detector(prices)
    indexed_payloads: List[ChunkPayload] = []

    def _indexed_pass() -> None:
        for lo, hi in chunks:
            indexed_payloads.append(
                detector.scan_range(node, lo, hi))

    started = _clock()
    profiler.run("detection_indexed", _indexed_pass)
    stages.append(_timed("detection_indexed", blocks,
                         _clock() - started))

    linear_payloads: List[ChunkPayload] = []

    def _linear_pass() -> None:
        for lo, hi in chunks:
            linear_payloads.append(ChunkPayload(
                (*detect_sandwiches(node, prices, lo, hi),
                 *detect_arbitrages(node, prices, lo, hi),
                 *detect_liquidations(node, prices, lo, hi)),
                frozenset(detect_flash_loan_txs(node, lo, hi))))

    started = _clock()
    profiler.run("detection_linear", _linear_pass)
    stages.append(_timed("detection_linear", blocks,
                         _clock() - started))
    indexed_matches_linear = indexed_payloads == linear_payloads

    # End to end: the full run_inspector pass (shielded detection,
    # merge, flash-loan / Flashbots / privacy labelling, quality
    # accounting) at every worker count, each verified bit-identical
    # to the serial pass.
    started = _clock()
    serial_dataset = run_inspector(
        result, config=RunConfig(chunk_size=chunk_size))
    serial_s = _clock() - started
    serial_print = serial_dataset.fingerprint()
    end_to_end: List[Dict[str, Any]] = []
    parallel_identical = True
    for count in workers:
        if count == 1:
            elapsed, identical = serial_s, True
        else:
            started = _clock()
            dataset = run_inspector(result, config=RunConfig(
                chunk_size=chunk_size, workers=count))
            elapsed = _clock() - started
            identical = dataset.fingerprint() == serial_print
            parallel_identical = parallel_identical and identical
        entry = _timed(f"end_to_end[workers={count}]", blocks, elapsed,
                       workers_requested=count)
        entry["workers"] = count
        entry["identical_to_serial"] = identical
        entry["speedup_vs_serial"] = round(serial_s / elapsed, 3) \
            if elapsed > 0 else None
        end_to_end.append(entry)

    # Streaming convergence gate: replay the finished canonical chain
    # through a deliberately hostile feed (seeded reorgs, delays,
    # duplicates, one outage window) and demand that the incremental
    # engine's dataset — rows and quality ledger — is bit-identical to
    # ``follow_reference``, the batch pipeline over per-block chunks.
    # The stream stage's blocks/s is only a result once this passes.
    plan = FaultPlan.from_profile("reorg", seed, first, last)
    engine, feed = follow_engine(
        result, fault_plan=plan,
        config=RunConfig(confirm_depth=plan.feed.max_reorg_depth))
    stream_query = None
    if serve:
        # The serving stage rides the same engine: its store is built
        # live, block by block, through every injected reorg.
        from repro.serve import live_service

        stream_query = live_service(engine)
    started = _clock()
    stream_dataset = profiler.run("stream", lambda: engine.run(feed))
    stream_s = _clock() - started
    stages.append(_timed("stream", blocks, stream_s))
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
        "lag_p50_blocks": _percentile(lags, 50),
        "lag_p99_blocks": _percentile(lags, 99),
    }

    # Serving stage: the identity gate first (batch-built store vs the
    # live-fed one above, byte-for-byte per endpoint), then a seeded
    # load replay over real sockets.  The latency numbers are only a
    # result once the identity gate passes — fast wrong answers are
    # not a serving layer.
    serve_identical: Optional[bool] = None
    serve_info: Optional[Dict[str, Any]] = None
    if serve:
        import asyncio

        from repro.serve import (build_mix, responses_identical,
                                 serve_and_replay, service_from_dataset)

        batch_query = service_from_dataset(batch_dataset)
        assert stream_query is not None
        serve_identical = responses_identical(batch_query, stream_query)
        mix = build_mix(first, last, requests=serve_requests, seed=seed)
        started = _clock()
        load = profiler.run(
            "serve", lambda: asyncio.run(
                serve_and_replay(batch_query, mix, seed=seed)))
        stages.append(_timed("serve", blocks, _clock() - started))
        serve_info = load.to_dict()

    # Epoch-shard gate: a serial pass over the same scenario collects
    # one seal per epoch boundary, every epoch is re-simulated from its
    # seal on worker processes, and the spliced chain must reproduce
    # the benchmarked world bit for bit — the splice-vs-reference
    # discipline, applied to world generation itself.  Runs last: it
    # resets the transaction-uid counter and re-simulates, which must
    # not perturb the stages above.
    shard_identical: Optional[bool] = None
    shard_info: Optional[Dict[str, Any]] = None
    if shard:
        from repro.sim.shard import resimulate_and_splice

        started = _clock()
        seals, epoch_telemetry, seal_pass_s = \
            _seal_pass_telemetry(config, profiler)
        spliced, shard_info = profiler.run(
            "shard", lambda: resimulate_and_splice(
                config, seals, workers=shard_workers,
                prefix_epochs=shard_prefix_epochs))
        shard_s = _clock() - started
        sharded_seq = block_sequence(spliced.blockchain.blocks)
        reference_seq = block_sequence(result.blockchain.blocks)
        if shard_info["scope"] != "full":
            reference_seq = reference_seq[:len(sharded_seq)]
        shard_identical = bool(sharded_seq) \
            and sharded_seq == reference_seq
        stages.append(_timed("shard", len(sharded_seq), shard_s,
                             workers_requested=shard_workers))
        shard_info["seal_pass_s"] = round(seal_pass_s, 6)
        shard_info["epoch_telemetry"] = epoch_telemetry
        shard_info["scale_flat"] = _scale_flat_gate(_steady_epochs(
            epoch_telemetry, shard_info["epoch_blocks"], bpm))

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
        "simulate_s": round(simulate_s, 6),
        "lint_s": round(_lint_self(), 6),
        "sim_reference_s": sim_reference_s,
        "sim_identical": sim_identical,
        "stages": stages,
        "end_to_end": end_to_end,
        "parallel_identical": parallel_identical,
        "indexed_matches_linear": indexed_matches_linear,
        "stream_identical": stream_identical,
        "stream": stream_info,
        "serve_identical": serve_identical,
        "serve": serve_info,
        "shard_identical": shard_identical,
        "shard": shard_info,
    }
    if profile:
        report["profile"] = dict(profiler.tables)
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
    reference_s = report.get("sim_reference_s")
    if reference_s and report["simulate_s"] > 0:
        lines.append(f"  reference sim: {reference_s:.3f}s vs "
                     f"{report['simulate_s']:.3f}s, "
                     f"{reference_s / report['simulate_s']:.2f}x")
    stream_info = report.get("stream")
    if stream_info:
        lines.append(
            f"  stream: {stream_info.get('reorgs', 0)} reorgs, "
            f"max depth {stream_info.get('max_reorg_depth', 0)}, "
            f"{stream_info.get('retracted_rows', 0)} rows retracted, "
            f"lag p50/p99 {stream_info.get('lag_p50_blocks')}/"
            f"{stream_info.get('lag_p99_blocks')} blocks")
    serve_info = report.get("serve")
    if serve_info:
        lines.append(
            f"  serve replay: {serve_info.get('requests', 0)} requests "
            f"over {serve_info.get('connections', 0)} conns, "
            f"{serve_info.get('qps', 0.0):.0f} qps, p50/p99 "
            f"{serve_info.get('p50_ms', 0.0):.3f}/"
            f"{serve_info.get('p99_ms', 0.0):.3f} ms, "
            f"{serve_info.get('not_modified', 0)} not-modified, "
            f"{serve_info.get('errors', 0)} errors")
    shard_info = report.get("shard")
    if shard_info:
        lines.append(
            f"  epoch shard: {shard_info.get('resimulated_epochs', 0)}"
            f"/{shard_info.get('epochs', 0)} epochs "
            f"({shard_info.get('scope', 'full')}, "
            f"epoch_blocks={shard_info.get('epoch_blocks')}, workers "
            f"{shard_info.get('workers_requested')}→"
            f"{shard_info.get('workers_effective')} effective)")
        lines.append(_scale_flat_line(shard_info,
                                      scenario["blocks_per_month"]))
    for key, message in GATES:
        verdict = report.get(key)
        if verdict is None:
            lines.append(f"  {key}: not run")
        else:
            lines.append(f"  {key}: " + ("yes" if verdict
                                         else f"NO — {message}"))
    lint_s = report.get("lint_s")
    if lint_s is not None:
        lines.append(f"  syntactic lint of own tree: {lint_s:.3f}s")
    return "\n".join(lines)


def _scale_flat_line(shard_info: Dict[str, Any],
                     blocks_per_month: int) -> str:
    """The advisory ``scale_flat`` verdict, quoting the baseline epoch
    the gate actually compared against."""
    scale_flat = shard_info.get("scale_flat")
    if scale_flat is None:
        return ("  seal-pass throughput scale-flat: skipped "
                "(fewer than two saturated epochs)")
    steady = _steady_epochs(shard_info.get("epoch_telemetry") or [],
                            shard_info["epoch_blocks"], blocks_per_month)
    base, last = steady[0], steady[-1]
    return ("  seal-pass throughput scale-flat: "
            + ("yes" if scale_flat else "NO")
            + f" (epoch {base['epoch']}: {base['blocks_per_s']} "
            f"blocks/s → epoch {last['epoch']}: "
            f"{last['blocks_per_s']} blocks/s, "
            f"rss {last.get('rss_mb')} MB)")
