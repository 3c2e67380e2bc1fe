"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.bench import GATES
from repro.cli import build_parser, main
from tests.bench import complete_report


BPM = ["--bpm", "8", "--seed", "3"]

#: the follow-mode world: its 'reorg' plan at fault seed 0 reorgs
#: deeper than one block
FOLLOW = ["--bpm", "8", "--seed", "5"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.bpm == 60
        assert args.seed == 7

    def test_export_needs_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export"])

    def test_spilling_flags(self):
        args = build_parser().parse_args(
            ["run", "--blocks", "100000", "--epoch-blocks", "5000",
             "--max-resident-epochs", "3", "--segment-dir", "segs"])
        assert args.blocks == 100000
        assert args.epoch_blocks == 5000
        assert args.max_resident_epochs == 3
        assert args.segment_dir == "segs"

    @pytest.mark.parametrize("argv", [
        ["bench", "--serve"], ["bench", "--shard"],
        ["bench", "--serve-requests", "80"],
        ["bench", "--shard-workers", "2"],
        ["bench", "--shard-prefix", "1"],
        ["run", "--no-overlap-io"], ["run", "--overlap-io"],
    ], ids=lambda argv: " ".join(argv))
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_world_cache_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--world-cache", "w"])

    def test_chunk_cache_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--cache-dir", "x"])

    @pytest.mark.parametrize("argv,flag", [
        (["run", "--workers", "0"], "--workers"),
        (["run", "--chunk-size", "-5"], "--chunk-size"),
        (["run", "--follow", "--confirm-depth", "-1"], "--confirm-depth"),
        (["stream", "--confirm-depth", "-1"], "--confirm-depth"),
        (["serve", "--follow", "--confirm-depth", "-1"],
         "--confirm-depth"),
        (["bench", "--workers", "1", "0"], "--workers"),
        (["bench", "--chunk-size", "-1"], "--chunk-size"),
        (["run", "--bpm", "0"], "--bpm"),
        (["run", "--epoch-blocks", "0"], "--epoch-blocks"),
        (["run", "--segment-dir", "segs", "--max-resident-epochs", "0"],
         "--max-resident-epochs"),
        (["run", "--bpm", "5", "--blocks", "0"], "--blocks"),
        (["run", "--bpm", "5", "--blocks", "-3"], "--blocks"),
    ], ids=["run-workers", "run-chunk-size", "run-follow-confirm-depth",
            "stream-confirm-depth", "serve-follow-confirm-depth",
            "bench-workers", "bench-chunk-size", "run-bpm",
            "run-epoch-blocks", "run-max-resident-epochs", "run-blocks-0",
            "run-blocks-negative"])
    def test_out_of_range_number_is_a_usage_error(self, argv, flag,
                                                  capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + FOLLOW)
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "stream"])
    def test_resume_without_checkpoint_is_a_usage_error(self, command,
                                                        capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--resume"] + FOLLOW)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--resume" in err and "--checkpoint" in err


class TestBenchGates:
    """``repro bench`` exits 1 naming every gate that is not true, and
    0 when every gate is."""

    @staticmethod
    def run(monkeypatch, tmp_path, report):
        import repro.bench
        monkeypatch.setattr(repro.bench, "run_bench",
                            lambda **kwargs: report)
        return main(["bench", "--quick",
                     "--output", str(tmp_path / "bench.json")])

    @pytest.mark.parametrize("gate", [key for key, _ in GATES])
    def test_one_false_gate_fails_and_is_named(self, gate, monkeypatch,
                                               tmp_path, capsys):
        report = complete_report(**{gate: False})
        assert self.run(monkeypatch, tmp_path, report) == 1
        err = capsys.readouterr().err
        assert f"ERROR: {gate}: {dict(GATES)[gate]}" in err
        assert err.count("ERROR:") == 1

    @pytest.mark.parametrize("gate", [key for key, _ in GATES])
    def test_one_unrun_gate_fails_and_is_named(self, gate, monkeypatch,
                                               tmp_path, capsys):
        report = complete_report(**{gate: None})
        assert self.run(monkeypatch, tmp_path, report) == 1
        captured = capsys.readouterr()
        assert f"ERROR: {gate}: {dict(GATES)[gate]}" in captured.err
        assert captured.err.count("ERROR:") == 1
        assert f"  {gate}: NO" in captured.out

    def test_every_failed_gate_is_named(self, monkeypatch, tmp_path,
                                        capsys):
        report = complete_report(sim_identical=False,
                                 shard_identical=False)
        assert self.run(monkeypatch, tmp_path, report) == 1
        err = capsys.readouterr().err
        assert "ERROR: sim_identical:" in err
        assert "ERROR: shard_identical:" in err

    @pytest.mark.parametrize("optional", [True])
    def test_true_or_unrun_gates_pass(self, optional, monkeypatch,
                                      tmp_path, capsys):
        report = complete_report(serve_identical=optional,
                                 shard_identical=optional)
        assert self.run(monkeypatch, tmp_path, report) == 0
        captured = capsys.readouterr()
        assert "ERROR" not in captured.err
        for key, _ in GATES:
            assert f"  {key}: yes" in captured.out


class TestLintCommand:
    """``repro lint`` forwards every option to ``python -m repro.lint``."""

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "R101" in capsys.readouterr().out

    def test_select_one_rule(self, capsys):
        src = Path(__file__).resolve().parents[1] / "src"
        assert main(["lint", str(src), "--select", "R002"]) == 0


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"] + BPM) == 0
        out = capsys.readouterr().out
        assert "MEV Strategy" in out
        assert "Sandwiching" in out
        assert "Total" in out

    def test_figures(self, capsys):
        assert main(["figures"] + BPM) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 4" in out
        assert "Figure 9" in out

    def test_run_full_report(self, capsys):
        assert main(["run"] + BPM) == 0
        out = capsys.readouterr().out
        for marker in ("MEV Strategy", "Figure 8", "Section 5.2",
                       "Section 6.3", "Goal 2"):
            assert marker in out

    @pytest.mark.parametrize("detection", [
        [], ["--workers", "2", "--chunk-size", "7"],
    ], ids=["serial", "workers-2-chunk-7"])
    def test_run_spilled_report_matches_in_memory(self, tmp_path, capsys,
                                                  detection):
        """`repro run --segment-dir` must print byte-identical output
        to the all-in-memory run of the same scenario, also when forked
        chunk workers read the spilled segments through the readers
        (and open descriptors) they inherit."""
        from repro.chain.transaction import reset_tx_counter
        args = BPM + ["--epoch-blocks", "5"] + detection
        reset_tx_counter()
        assert main(["run"] + args) == 0
        in_memory = capsys.readouterr().out
        reset_tx_counter()
        assert main(["run"] + args +
                    ["--segment-dir", str(tmp_path / "segs"),
                     "--max-resident-epochs", "1"]) == 0
        assert capsys.readouterr().out == in_memory

    def test_follow_rejects_spilling_flags(self):
        with pytest.raises(SystemExit):
            main(["run", "--follow", "--blocks", "10"] + BPM)

    def test_follow_with_confirm_depth(self, capsys):
        from repro.chain.transaction import reset_tx_counter
        reset_tx_counter()
        assert main(["run", "--follow"] + BPM) == 0
        default_depth = capsys.readouterr().out
        reset_tx_counter()
        assert main(["run", "--follow", "--confirm-depth", "5"]
                    + BPM) == 0
        assert capsys.readouterr().out == default_depth

    def test_follow_with_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "ck.json"
        assert main(["run", "--follow", "--checkpoint", str(checkpoint)]
                    + BPM) == 0

    def test_export_round_trips(self, tmp_path, capsys):
        target = tmp_path / "mev.jsonl"
        assert main(["export", str(target)] + BPM) == 0
        assert "wrote" in capsys.readouterr().out
        from repro.core.datasets import MevDataset
        with open(target, encoding="utf-8") as stream:
            loaded = MevDataset.load_jsonl(stream)
        assert loaded.totals()["total"] >= 0
        assert target.read_text().count("\n") == \
            loaded.totals()["total"]


def _quality_ledger(out):
    """The rendered quality ledger: from its header to the next blank
    line."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("Data quality"))
    end = next((i for i in range(start, len(lines)) if not lines[i]),
               len(lines))
    return lines[start:end]


class TestStreamCommand:
    def test_clean_feed_converges(self, capsys):
        assert main(["stream", "--fault-profile", "none"] + FOLLOW) == 0
        assert ("streamed identical to batch: yes"
                in capsys.readouterr().out)

    def test_reorg_ledger_matches_run_follow(self, capsys):
        """`repro stream` and `repro run --follow` are one follow path:
        under the same plan they label through the same shielded
        sources and print the same quality ledger."""
        from repro.chain.transaction import reset_tx_counter
        reset_tx_counter()
        assert main(["stream", "--fault-profile", "reorg"] + FOLLOW) == 0
        streamed = _quality_ledger(capsys.readouterr().out)
        reset_tx_counter()
        assert main(["run", "--follow", "--fault-profile", "reorg"]
                    + FOLLOW) == 0
        assert streamed == _quality_ledger(capsys.readouterr().out)
        flashbots = next(line for line in streamed
                         if "flashbots:" in line)
        assert " 0 requests" not in flashbots

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        from repro.chain.transaction import reset_tx_counter
        checkpoint = str(tmp_path / "head.ckpt.json")
        reset_tx_counter()
        assert main(["stream", "--checkpoint", checkpoint] + FOLLOW) == 0
        capsys.readouterr()
        reset_tx_counter()
        assert main(["stream", "--checkpoint", checkpoint, "--resume"]
                    + FOLLOW) == 0
        captured = capsys.readouterr()
        assert "streamed identical to batch: yes" in captured.out
        assert "payloads reused : 0" not in captured.out
        assert "Resuming from checkpoint" in captured.err


class TestStreamDivergence:
    @pytest.mark.parametrize("argv", [
        ["stream"],
        ["run", "--follow", "--fault-profile", "reorg"],
        ["serve", "--follow", "--fault-profile", "reorg", "--smoke"],
    ], ids=["stream", "run-follow", "serve-follow"])
    def test_reorg_below_watermark_is_an_error_line(self, argv, capsys):
        """A reorg deeper than --confirm-depth exits 1 with one
        ``ERROR:`` line, not a traceback."""
        assert main(argv + ["--confirm-depth", "1"] + FOLLOW) == 1
        err = capsys.readouterr().err
        assert "ERROR: reorg to height" in err
        assert "confirmation watermark" in err
