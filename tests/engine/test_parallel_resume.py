"""Crash-resume across executors: a parallel run killed mid-flight
resumes — at any worker count — into the exact dataset an uninterrupted
serial run produces.
"""

import shutil

import pytest

from repro.core.pipeline import MevInspector
from repro.core.profit import PriceService
from repro.engine import RunConfig
from repro.reliability import shield


class SimulatedCrash(RuntimeError):
    """Not a data-source fault: must abort the run, not mark a chunk."""


class BlockCutoffNode:
    """Archive node that dies on any ranged query at/past a cutoff.

    Module-level and built from plain data, so worker processes can
    carry it; the explicit delegation (rather than ``__getattr__``)
    keeps the surface identical to the real node's.
    """

    def __init__(self, inner, cutoff):
        self.inner = inner
        self.cutoff = cutoff

    def _guard(self, *blocks):
        if any(b is not None and b >= self.cutoff for b in blocks):
            raise SimulatedCrash(f"killed at block {self.cutoff}")

    def latest_block_number(self):
        return self.inner.latest_block_number()

    def earliest_block_number(self):
        return self.inner.earliest_block_number()

    def get_block(self, number):
        self._guard(number)
        return self.inner.get_block(number)

    def iter_blocks(self, from_block=None, to_block=None):
        self._guard(from_block, to_block)
        return self.inner.iter_blocks(from_block, to_block)

    def get_transaction(self, tx_hash):
        return self.inner.get_transaction(tx_hash)

    def get_receipt(self, tx_hash):
        return self.inner.get_receipt(tx_hash)

    def get_logs(self, event_type, from_block=None, to_block=None):
        self._guard(from_block, to_block)
        return self.inner.get_logs(event_type, from_block, to_block)

    def iter_receipts(self, from_block=None, to_block=None):
        self._guard(from_block, to_block)
        return self.inner.iter_receipts(from_block, to_block)


def make_inspector(sim_result, node=None):
    shielded, observer, api = shield(
        node if node is not None else sim_result.node,
        sim_result.observer, sim_result.flashbots_api)
    return MevInspector(shielded, PriceService(sim_result.oracle),
                        api, observer)


class TestParallelCrashResume:
    @pytest.mark.parametrize("resume_workers", [1, 4])
    def test_killed_parallel_run_resumes_identically(
            self, sim_result, span, tmp_path, serial_baseline,
            resume_workers):
        first, last = span
        cutoff = first + (last - first) // 2
        crashed_ck = tmp_path / "crashed.log"

        crashing = make_inspector(
            sim_result, node=BlockCutoffNode(sim_result.node, cutoff))
        with pytest.raises(SimulatedCrash):
            crashing.run(config=RunConfig(chunk_size=25,
                                          checkpoint=crashed_ck,
                                          workers=4))
        assert crashed_ck.exists(), \
            "the crashed run must have checkpointed completed chunks"

        # Resume the same checkpoint at different worker counts; each
        # resume gets its own copy so the runs cannot interfere.
        ck = tmp_path / f"resume-{resume_workers}.log"
        shutil.copy(crashed_ck, ck)
        resumed = make_inspector(sim_result).run(
            config=RunConfig(chunk_size=25, checkpoint=ck, resume=True,
                             workers=resume_workers))
        assert resumed.quality.resumed
        assert resumed.quality.chunks_resumed > 0
        assert resumed.quality.failed_ranges == ()
        # Rows are bit-identical to the never-crashed serial run …
        assert resumed.to_rows() == serial_baseline.to_rows()

    def test_resumed_runs_agree_on_quality(self, sim_result, span,
                                           tmp_path):
        """Workers 1 and 4 resuming the same checkpoint agree on the
        full quality ledger, not just the rows."""
        first, last = span
        cutoff = first + (last - first) // 2
        crashed_ck = tmp_path / "crashed.log"
        crashing = make_inspector(
            sim_result, node=BlockCutoffNode(sim_result.node, cutoff))
        with pytest.raises(SimulatedCrash):
            crashing.run(config=RunConfig(chunk_size=25,
                                          checkpoint=crashed_ck,
                                          workers=4))

        prints = []
        for workers in (1, 4):
            ck = tmp_path / f"q-{workers}.log"
            shutil.copy(crashed_ck, ck)
            resumed = make_inspector(sim_result).run(
                config=RunConfig(chunk_size=25, checkpoint=ck,
                                 resume=True, workers=workers))
            prints.append(resumed.fingerprint())
        assert prints[0] == prints[1]
