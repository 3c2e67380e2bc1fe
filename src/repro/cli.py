"""Command-line interface: simulate, measure, report, export, lint.

Usage::

    python -m repro run [--bpm N] [--seed S]        # full report
    python -m repro run --checkpoint ck.log --resume    # resume a crash
    python -m repro run --fault-profile chaos --fault-seed 3  # chaos run
    python -m repro table1 [--bpm N] [--seed S]     # just Table 1
    python -m repro figures [--bpm N] [--seed S]    # figure series
    python -m repro run --workers 4                 # parallel chunks
    python -m repro run --follow                    # streaming (follow) mode
    python -m repro stream --fault-profile reorg    # hostile-feed follower
    python -m repro export PATH [--bpm N] [--seed S]  # JSONL dataset
    python -m repro serve [--port P]                # HTTP query service
    python -m repro serve --follow --fault-profile reorg  # live follow
    python -m repro serve --follow --smoke          # identity smoke gate
    python -m repro bench [--quick]                 # wall-clock benchmark
    python -m repro bench --serve                   # + HTTP load replay
    python -m repro bench --shard                   # + epoch-shard gate
    python -m repro run --bpm 5000 --blocks 100000 --epoch-blocks 5000 \\
        --segment-dir segments/                     # O(epoch) memory
    python -m repro lint [PATHS ...] [OPTIONS]      # invariant linter
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro import RunConfig, Study, quick_study
from repro.analysis import (
    bundle_stats,
    democratization,
    fig3_flashbots_block_ratio,
    fig4_hashrate_share,
    fig9_private_distribution,
    negative_profits,
    percent,
    profit_distribution,
    render_kv,
    render_quality,
    render_series,
    render_table,
)
from repro.core.pool_attribution import attribute_private_pools
from repro.faults import FAULT_PROFILES
from repro.stream import StreamDivergenceError


def _at_least_one(text: str) -> int:
    """An integer option that must be >= 1 (a usage error otherwise)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative(text: str) -> int:
    """An integer option that must be >= 0 (a usage error otherwise)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bpm", type=_at_least_one, default=60,
                        help="simulated blocks per month (default 60)")
    parser.add_argument("--seed", type=int, default=7,
                        help="scenario seed (default 7)")


def _add_reliability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chunk-size", type=_non_negative,
                        default=None, metavar="N",
                        help="measure N blocks per checkpointable chunk "
                             "(default: the whole range in one chunk)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="append each completed chunk to this "
                             "checkpoint log")
    parser.add_argument("--resume", action="store_true",
                        help="continue from an existing checkpoint file "
                             "instead of starting over")
    parser.add_argument("--fault-profile", choices=FAULT_PROFILES,
                        default="none",
                        help="inject seeded data-source faults "
                             "(default: none)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the injected fault plan "
                             "(default 0)")
    parser.add_argument("--workers", type=_at_least_one, default=1,
                        metavar="N",
                        help="run chunks across N worker processes "
                             "(default 1; output is bit-identical at "
                             "any worker count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Flash(bot) in the Pan' "
                    "(IMC 2022): simulate the study window and run the "
                    "measurement pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "simulate, measure, and print the full report"),
            ("table1", "print Table 1 only"),
            ("figures", "print the figure series"),
            ("ablations", "run the design-choice sensitivity sweeps")):
        command = sub.add_parser(name, help=help_text)
        _add_common(command)
        if name != "ablations":
            _add_reliability(command)
        if name == "run":
            command.add_argument(
                "--follow", action="store_true",
                help="streaming (follow) mode: replay the chain "
                     "through the incremental engine instead of one "
                     "batch pass; bit-identical output")
            command.add_argument(
                "--confirm-depth", type=_non_negative, default=3,
                metavar="K",
                help="blocks behind the head before a streamed block "
                     "is confirmed (default 3)")
            command.add_argument(
                "--blocks", type=_at_least_one, default=None,
                metavar="N",
                help="simulate only the first N blocks of the study "
                     "window (default: the whole window)")
            command.add_argument(
                "--epoch-blocks", type=_at_least_one, default=None,
                metavar="N",
                help="epoch width in blocks for sealing and segment "
                     "spilling (default: one month)")
            command.add_argument(
                "--max-resident-epochs", type=_at_least_one, default=2,
                metavar="K",
                help="with --segment-dir: newest epochs kept in "
                     "memory; older ones are served from segment "
                     "files (default 2)")
            command.add_argument(
                "--segment-dir", default=None, metavar="DIR",
                help="spill completed epochs to fingerprinted "
                     "segment files in DIR so peak memory is "
                     "O(epoch), not O(world); required for "
                     "million-block scenarios")
            command.add_argument(
                "--overlap-io", action=argparse.BooleanOptionalAction,
                default=True,
                help="with --segment-dir: write segment files on a "
                     "background thread so the simulation never "
                     "blocks on disk (default on; --no-overlap-io "
                     "spills synchronously — byte-identical files "
                     "either way)")
    stream = sub.add_parser(
        "stream",
        help="follow the chain through a (possibly hostile) block "
             "feed and verify convergence with the batch pipeline")
    _add_common(stream)
    stream.add_argument("--fault-profile", choices=("none", "reorg"),
                        default="reorg",
                        help="fault scenario: 'reorg' injects "
                             "seeded head reorgs, delayed/duplicate "
                             "announcements, and an outage window into "
                             "the feed, and degrades the Flashbots and "
                             "mempool label sources under the same plan "
                             "(default: reorg)")
    stream.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the injected fault plan "
                             "(default 0)")
    stream.add_argument("--confirm-depth", type=_non_negative, default=3,
                        metavar="K",
                        help="blocks behind the head before a streamed "
                             "block is confirmed (default 3)")
    stream.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="append each followed block's payload to "
                             "this checkpoint log")
    stream.add_argument("--resume", action="store_true",
                        help="reuse payloads from an existing stream "
                             "checkpoint instead of recomputing")
    serve = sub.add_parser(
        "serve",
        help="serve the measured MEV dataset over HTTP (per-block and "
             "per-range rows, Table-1 aggregates, leaderboards, "
             "coverage)")
    _add_common(serve)
    serve.add_argument("--follow", action="store_true",
                       help="feed the served store live from the "
                            "streaming engine instead of snapshotting "
                            "a completed batch run")
    serve.add_argument("--fault-profile", choices=("none", "reorg"),
                       default="none",
                       help="with --follow: inject seeded faults "
                            "while serving: reorgs, delays and "
                            "duplicates into the feed, and the same "
                            "plan's faults into the Flashbots and "
                            "mempool label sources (default: none)")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the injected fault plan "
                            "(default 0)")
    serve.add_argument("--confirm-depth", type=_non_negative, default=3,
                       metavar="K",
                       help="with --follow: blocks behind the head "
                            "before a streamed block is confirmed "
                            "(default 3)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default 0: pick a free port "
                            "and print it)")
    serve.add_argument("--smoke", action="store_true",
                       help="with --follow: ingest the whole feed with "
                            "HTTP probes after every reorg "
                            "retraction, then exit 0 only if the "
                            "stream-built store serves byte-identical "
                            "responses to a batch-built one")
    export = sub.add_parser("export",
                            help="write the detected MEV dataset as "
                                 "JSONL")
    export.add_argument("path", help="output file path")
    _add_common(export)
    _add_reliability(export)
    bench = sub.add_parser("bench",
                           help="benchmark the pipeline (simulation, "
                                "detection reads, end-to-end at "
                                "several worker counts) under its "
                                "identity gates and write "
                                "BENCH_pipeline.json")
    _add_common(bench)
    bench.add_argument("--quick", action="store_true",
                       help="small scenario for CI smoke runs")
    bench.add_argument("--workers", type=_at_least_one, nargs="+",
                       default=None, metavar="N",
                       help="worker counts to sweep (default: 1 2 4)")
    bench.add_argument("--chunk-size", type=_non_negative, default=None,
                       metavar="N",
                       help="blocks per chunk (default: range/8)")
    bench.add_argument("--output", default="BENCH_pipeline.json",
                       metavar="PATH",
                       help="where to write the JSON report "
                            "(default: BENCH_pipeline.json)")
    bench.add_argument("--profile", action="store_true",
                       help="wrap each stage in cProfile and write "
                            "top-25 cumulative tables to "
                            "<output>.profile.txt (inflates wall "
                            "times; for attribution, not comparison)")
    bench.add_argument("--serve", action="store_true",
                       help="add the query-service stage: feed a "
                            "store live from the stream engine, gate "
                            "on byte-identical responses vs the "
                            "batch-built store, then replay a seeded "
                            "HTTP load mix (p50/p99/qps)")
    bench.add_argument("--serve-requests", type=int, default=300,
                       metavar="N",
                       help="requests in the serve replay mix "
                            "(default 300)")
    bench.add_argument("--shard", action="store_true",
                       help="add the epoch-shard stage: seal the "
                            "serial world at epoch boundaries, "
                            "re-simulate every epoch independently "
                            "from its seal across workers, splice, "
                            "and gate on a bit-identical block/tx "
                            "hash sequence (shard_identical)")
    bench.add_argument("--shard-workers", type=_at_least_one, default=2,
                       metavar="N",
                       help="worker count for the epoch "
                            "re-simulation fan-out (default 2)")
    bench.add_argument("--shard-prefix", type=_at_least_one,
                       default=None,
                       metavar="K",
                       help="re-simulate only the first K epochs "
                            "(sampled-prefix gate for scenarios too "
                            "large to reference in full)")
    # Listed for --help only: main() forwards everything after
    # ``lint`` verbatim to repro.lint.cli, the one lint option table.
    sub.add_parser("lint", add_help=False,
                   help="run the domain-invariant linter (R001–R007; "
                        "--deep adds R101–R103) over source paths; "
                        "takes every option of python -m repro.lint")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The one :class:`RunConfig` a CLI invocation describes.

    ``--resume`` without ``--checkpoint`` has nothing to resume from,
    so it is a usage error rather than a silently fresh run.
    """
    if getattr(args, "resume", False) and \
            getattr(args, "checkpoint", None) is None:
        print("ERROR: --resume requires --checkpoint PATH",
              file=sys.stderr)
        raise SystemExit(2)
    return RunConfig(
        chunk_size=getattr(args, "chunk_size", None),
        checkpoint=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", False),
        fault_profile=getattr(args, "fault_profile", "none"),
        fault_seed=getattr(args, "fault_seed", 0),
        workers=getattr(args, "workers", 1),
        confirm_depth=getattr(args, "confirm_depth", 3))


def _announce(args: argparse.Namespace, config: RunConfig) -> None:
    """Say on stderr what the run is about to simulate and inject."""
    print(f"Simulating 23 months at {args.bpm} blocks/month "
          f"(seed {args.seed}) …", file=sys.stderr)
    if config.fault_profile != "none":
        print(f"Injecting '{config.fault_profile}' faults "
              f"(fault seed {config.fault_seed}) …", file=sys.stderr)
    if config.checkpoint and config.resume:
        print(f"Resuming from checkpoint {config.checkpoint} …",
              file=sys.stderr)


def _study(args: argparse.Namespace) -> Study:
    config = _run_config(args)
    _announce(args, config)
    if getattr(args, "follow", False):
        from repro import follow_study
        if getattr(args, "blocks", None) is not None \
                or getattr(args, "segment_dir", None) is not None:
            print("ERROR: --blocks/--segment-dir apply to batch runs, "
                  "not --follow", file=sys.stderr)
            raise SystemExit(2)
        print(f"Following the chain head (streaming mode, "
              f"confirm depth {config.confirm_depth}) …", file=sys.stderr)
        return follow_study(blocks_per_month=args.bpm, seed=args.seed,
                            run_config=config)
    if config.workers > 1:
        print(f"Running chunks across {config.workers} workers …",
              file=sys.stderr)
    scenario_overrides = {}
    if getattr(args, "epoch_blocks", None) is not None:
        scenario_overrides["epoch_blocks"] = args.epoch_blocks
    segment_dir = getattr(args, "segment_dir", None)
    if segment_dir is not None:
        print(f"Spilling completed epochs to {segment_dir} "
              f"(max resident epochs "
              f"{getattr(args, 'max_resident_epochs', 2)}) …",
              file=sys.stderr)
    return quick_study(blocks_per_month=args.bpm, seed=args.seed,
                       run_config=config,
                       blocks=getattr(args, "blocks", None),
                       max_resident_epochs=getattr(
                           args, "max_resident_epochs", None),
                       segment_dir=segment_dir,
                       overlap_io=getattr(args, "overlap_io", True),
                       **scenario_overrides)


def print_table1(study: Study) -> None:
    print(render_table(
        ["MEV Strategy", "Extractions", "Via Flashbots",
         "Via Flash Loans", "Via Both"],
        [(r.strategy, r.extractions,
          f"{r.via_flashbots} ({percent(r.share_flashbots())})",
          f"{r.via_flash_loans} ({percent(r.share_flash_loans())})",
          f"{r.via_both} ({percent(r.share_both())})")
         for r in study.table1]))


def print_figures(study: Study) -> None:
    result = study.result
    print(render_series(
        "Figure 3 — Flashbots block ratio",
        fig3_flashbots_block_ratio(result.node, result.flashbots_api,
                                   result.calendar)))
    print()
    print(render_series(
        "Figure 4 — estimated Flashbots hashrate share",
        fig4_hashrate_share(result.node, result.flashbots_api,
                            result.calendar)))
    dist = fig9_private_distribution(study.dataset)
    print("\n" + render_kv(
        "Figure 9 — sandwich privacy in the observation window",
        [("flashbots", f"{dist.flashbots} "
                       f"({percent(dist.share('flashbots'))})"),
         ("other private", f"{dist.private} "
                           f"({percent(dist.share('private'))})"),
         ("public", f"{dist.public} "
                    f"({percent(dist.share('public'))})")]))


def print_full_report(study: Study) -> None:
    result, dataset = study.result, study.dataset
    print_table1(study)
    print()
    print_figures(study)

    stats = bundle_stats(result.flashbots_api)
    print("\n" + render_kv("Section 4.1 — bundle statistics", [
        ("flashbots blocks", stats.total_blocks),
        ("bundles", stats.total_bundles),
        ("bundles/block mean", f"{stats.bundles_per_block_mean:.2f}"),
        ("txs/bundle mean", f"{stats.txs_per_bundle_mean:.2f}"),
        ("largest bundle", stats.largest_bundle_txs)]))

    report = profit_distribution(dataset)
    print("\n" + render_kv("Figure 8 — the profit inversion", [
        ("miner take via FB (ETH/sandwich)",
         f"{report.stats.miners_flashbots.mean:.4f}"),
        ("miner take without FB",
         f"{report.stats.miners_non_flashbots.mean:.4f}"),
        ("miner uplift (paper ~2.6x)",
         f"{report.miner_uplift:.2f}x"),
        ("searcher profit via FB",
         f"{report.stats.searchers_flashbots.mean:.4f}"),
        ("searcher profit without FB",
         f"{report.stats.searchers_non_flashbots.mean:.4f}"),
        ("searcher drop (paper ~84.4%)",
         percent(report.searcher_drop))]))

    losses = negative_profits(dataset)
    print("\n" + render_kv("Section 5.2 — negative profits", [
        ("unprofitable FB sandwiches", losses.unprofitable),
        ("share (paper 1.58%)", percent(losses.unprofitable_share)),
        ("losses (ETH)", f"{losses.loss_total_eth:.3f}")]))

    attribution = attribute_private_pools(dataset)
    print("\n" + render_kv("Section 6.3 — pool attribution", [
        ("miners with private sandwiches", attribution.n_miners),
        ("extractor accounts", attribution.n_accounts),
        ("single-miner extractors",
         len(attribution.single_miner_extractors))]))

    concentration = democratization(result.flashbots_api,
                                    result.calendar)
    print("\n" + render_kv("Goal 2 — (de)centralization", [
        ("max FB miners in a month",
         concentration.max_miners_in_a_month),
        ("top-2 miner share of FB blocks",
         percent(concentration.top2_block_share))]))

    print("\n" + render_quality(dataset.quality))


def print_ablations(bpm: int, seed: int,
                    rng: Optional[random.Random] = None) -> None:
    """Run the sensitivity sweeps; ``rng`` defaults to a fresh seeded
    ``random.Random(seed)`` so repeated invocations replay exactly."""
    from repro.agents.pga import compare_mechanisms
    from repro.analysis.sensitivity import (
        observation_rate_sweep,
        tip_fraction_sweep,
    )
    sweep_bpm = max(10, bpm // 3)
    print(render_table(
        ["Sealed-bid tip mean", "Miner uplift", "Searcher FB mean"],
        [(f"{p.tip_mean:.2f}", f"{p.miner_uplift:.2f}x",
          f"{p.searcher_fb_mean_eth:.4f} ETH")
         for p in tip_fraction_sweep([0.4, 0.8],
                                     blocks_per_month=sweep_bpm,
                                     seed=seed)]))
    print()
    print(render_table(
        ["Observation rate", "Private precision", "Private recall"],
        [(f"{p.observation_rate:.3f}", f"{p.private_precision:.2f}",
          f"{p.private_recall:.2f}")
         for p in observation_rate_sweep([0.995, 0.5],
                                         blocks_per_month=sweep_bpm,
                                         seed=seed)]))
    result = compare_mechanisms(rng or random.Random(seed),
                                opportunities=300)
    print("\n" + render_kv("Auction mechanisms (§8.2)", [
        ("miner share, open PGA", percent(result.pga_miner_share)),
        ("miner share, sealed bid",
         percent(result.sealed_miner_share))]))


def _simulate(args: argparse.Namespace, config: RunConfig):
    """The study window a follow command measures."""
    from repro import ScenarioConfig, build_paper_scenario

    _announce(args, config)
    return build_paper_scenario(
        ScenarioConfig(blocks_per_month=args.bpm, seed=args.seed)).run()


def run_stream_command(args: argparse.Namespace) -> int:
    """Follow the chain through a hostile feed; verify convergence.

    The streamed dataset — rows and quality ledger — must be
    bit-identical to :func:`repro.follow_reference`, the batch pipeline
    over the final canonical chain (modulo checkpoint-resume markers).
    Divergence exits nonzero.
    """
    from dataclasses import replace

    from repro import follow_engine, follow_reference

    config = _run_config(args)
    result = _simulate(args, config)
    engine, feed = follow_engine(result, config=config)
    dataset = engine.run(feed)
    report = engine.report
    print(render_kv("Stream report", [
        ("blocks", len(result.blockchain.blocks)),
        ("feed events", report.events),
        ("reorgs", f"{report.reorgs} (max depth "
                   f"{report.max_reorg_depth})"),
        ("duplicates", report.duplicates),
        ("out of order", report.out_of_order),
        ("rows retracted", f"{report.retracted_rows} across "
                           f"{report.retracted_blocks} blocks"),
        ("payloads reused", report.payloads_reused),
        ("rescans skipped", report.rescans_skipped)]))
    settled = replace(dataset, quality=replace(
        dataset.quality, resumed=False, chunks_resumed=0))
    identical = (settled.fingerprint()
                 == follow_reference(result, config=config).fingerprint())
    print("\n" + render_quality(dataset.quality))
    print("\nstreamed identical to batch: "
          + ("yes" if identical else "NO"))
    if not identical:
        print("ERROR: streamed dataset diverged from the batch "
              "pipeline over the canonical chain", file=sys.stderr)
        return 1
    return 0


def run_serve_command(args: argparse.Namespace) -> int:
    """Serve the measured MEV dataset over HTTP.

    Batch mode snapshots :func:`repro.follow_reference` into the store
    and serves it.  ``--follow`` instead feeds the store live from the
    :func:`repro.follow_engine` follower — every indexed block, every
    reorg retraction, and the final label reconcile land in the served
    rows as they happen.  ``--smoke`` drives a follow run to
    completion, probing over HTTP after every retraction, and exits 0
    only if the stream-built store serves byte-identical responses to
    one built from the reference (the identity rule, end to end over a
    socket).
    """
    import asyncio

    from repro import follow_engine, follow_reference
    from repro.serve import (MevHttpServer, live_service, probe_once,
                             responses_identical, service_from_dataset)
    from repro.stream import StreamSubscriber

    if (args.smoke or args.fault_profile != "none") and not args.follow:
        print("ERROR: --smoke and --fault-profile require --follow",
              file=sys.stderr)
        return 2

    config = _run_config(args)
    result = _simulate(args, config)
    if not args.follow:
        service = service_from_dataset(follow_reference(result))
        try:
            return asyncio.run(_serve_until_interrupted(
                MevHttpServer(service, host=args.host,
                              port=args.port)))
        except KeyboardInterrupt:
            return 0

    class RetractionLog(StreamSubscriber):
        """Heights whose served rows a reorg just superseded."""

        def __init__(self) -> None:
            self.heights: List[int] = []

        def block_retracted(self, height, block_hash,
                            rows_retracted) -> None:
            self.heights.append(height)

    engine, feed = follow_engine(result, config=config)
    service = live_service(engine)
    retractions = RetractionLog()
    engine.subscribe(retractions)

    async def follow() -> int:
        server = MevHttpServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving on {server.base_url}", file=sys.stderr)
        probed = 0
        probe_errors = 0
        try:
            for event in feed:
                engine.ingest(event)
                # Yield so in-flight connections are handled between
                # announcements — the store is shared, not snapshotted.
                await asyncio.sleep(0)
                while probed < len(retractions.heights):
                    height = retractions.heights[probed]
                    probed += 1
                    status, _, _ = await probe_once(
                        args.host, server.port or 0,
                        f"/v1/blocks/{height}/mev")
                    if status != 200:
                        probe_errors += 1
            engine.finalize()
            report = engine.report
            print(f"followed {report.events} feed events: "
                  f"{report.reorgs} reorgs, {report.retracted_rows} "
                  f"rows retracted across {report.retracted_blocks} "
                  f"blocks; {probed} mid-stream retraction probes "
                  f"({probe_errors} errors)", file=sys.stderr)
            if not args.smoke:
                print("finalized; serving (Ctrl-C to stop)",
                      file=sys.stderr)
                await server.serve_forever()
                return 0
            identical = responses_identical(
                service_from_dataset(follow_reference(result,
                                                      config=config)),
                service)
            print("serve responses identical batch vs stream: "
                  + ("yes" if identical else "NO"))
            if probe_errors or not identical:
                print("ERROR: stream-built store diverged from the "
                      "batch-built store", file=sys.stderr)
                return 1
            return 0
        except KeyboardInterrupt:
            return 0
        finally:
            await server.stop()

    try:
        return asyncio.run(follow())
    except KeyboardInterrupt:
        return 0


async def _serve_until_interrupted(server) -> int:
    """Start ``server`` and block until Ctrl-C."""
    await server.start()
    print(f"serving on {server.base_url}", file=sys.stderr)
    print("try: curl " + server.base_url + "/v1/aggregates/table1",
          file=sys.stderr)
    try:
        await server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        await server.stop()
    return 0


def run_bench_command(args: argparse.Namespace) -> int:
    """Run the wall-clock benchmark; nonzero exit on divergence.

    Every identity gate in :data:`repro.bench.GATES` that reads
    ``False`` — a parallel run not bit-identical to the serial one, an
    optimized simulation off the naive reference paths, and so on — is
    a correctness failure, not a performance number.  Each failed gate
    is named on stderr; CI gates on the exit code.
    """
    from repro.bench import DEFAULT_WORKERS, GATES, render_report, \
        run_bench, write_report
    workers = tuple(args.workers) if args.workers else DEFAULT_WORKERS
    print(f"Benchmarking (bpm={args.bpm}, seed={args.seed}, "
          f"workers={list(workers)}"
          + (", quick" if args.quick else "") + ") …", file=sys.stderr)
    report = run_bench(bpm=args.bpm, seed=args.seed, workers=workers,
                       chunk_size=args.chunk_size, quick=args.quick,
                       profile=args.profile, serve=args.serve,
                       serve_requests=args.serve_requests,
                       shard=args.shard,
                       shard_workers=args.shard_workers,
                       shard_prefix_epochs=args.shard_prefix)
    write_report(report, args.output)
    print(render_report(report))
    print(f"wrote {args.output}")
    if args.profile:
        profile_path = args.output + ".profile.txt"
        with open(profile_path, "w", encoding="utf-8") as stream:
            for stage, table in report.get("profile", {}).items():
                stream.write(f"===== {stage} =====\n{table}\n")
        print(f"wrote {profile_path}")
    failed = [(key, message) for key, message in GATES
              if report.get(key) is False]
    for key, message in failed:
        print(f"ERROR: {key}: {message}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except StreamDivergenceError as error:
        # A reorg deeper than --confirm-depth: report, no traceback.
        print(f"ERROR: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "ablations":
        print_ablations(args.bpm, args.seed)
        return 0
    if args.command == "bench":
        return run_bench_command(args)
    if args.command == "stream":
        return run_stream_command(args)
    if args.command == "serve":
        return run_serve_command(args)
    study = _study(args)
    if args.command == "table1":
        print_table1(study)
    elif args.command == "figures":
        print_figures(study)
    elif args.command == "export":
        with open(args.path, "w", encoding="utf-8") as stream:
            study.dataset.dump_jsonl(stream)
        totals = study.dataset.totals()
        print(f"wrote {totals['total']} records "
              f"({totals['sandwich']} sandwiches, "
              f"{totals['arbitrage']} arbitrages, "
              f"{totals['liquidation']} liquidations) to {args.path}")
    else:
        print_full_report(study)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
