"""End-to-end CLI: ``repro stream --serve --fault-profile reorg``.

The serve path is the whole serving story in one process: simulate
the window, feed the served store live through seeded reorgs while
probing retracted heights over real HTTP, finalize, and gate on the
stream-built store serving byte-identical responses to a batch-built
one.  Exit code 0 *is* the acceptance criterion.
"""

from repro.cli import main

from tests.serve.conftest import CHAOS_SEED

SMALL = ["--bpm", "4", "--seed", "5"]


class TestServeCli:
    def test_follow_smoke_gate_passes(self, capsys):
        code = main(["stream", "--serve", "--fault-profile", "reorg",
                     "--fault-seed", str(CHAOS_SEED)] + SMALL)
        captured = capsys.readouterr()
        assert code == 0
        assert "streamed identical to batch: yes" in captured.out
        assert ("serve responses identical batch vs stream: yes"
                in captured.out)
        assert "retraction probes (0 errors)" in captured.err
