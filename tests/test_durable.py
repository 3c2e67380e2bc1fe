"""RecordLog: one append-only log for run state.

A torn last line is a crash artefact (dropped, then truncated away by
the next append), anything else malformed fails closed, and a run that
does not resume never sees the records already on disk.  Round trips,
last-record-wins and header checks are pinned through its users in
``tests/reliability/test_checkpoint.py`` and
``tests/chain/test_segments.py``.
"""

import json

import pytest

from repro.durable import RecordLog

HEADER = {"format": 1, "run": "a"}


@pytest.fixture
def log(tmp_path):
    return RecordLog(tmp_path / "state.log")


class TestReplay:
    def test_record_bytes_are_deterministic(self, log):
        log.open({"z": 1, "a": 2}, "k", resume=False)
        log.append({"v": [1, 2], "k": "x"})
        assert log.path.read_bytes() == \
            b'{"a": 2, "z": 1}\n{"k": "x", "v": [1, 2]}\n'

    def test_torn_last_line_is_dropped_then_truncated(self, log):
        log.open(HEADER, "k", resume=False)
        log.append({"k": 1})
        log.append({"k": 2})
        intact = log.path.read_bytes()
        with open(log.path, "ab") as handle:
            handle.write(b'{"k": 3, "v": "a crash mid-app')
        resumed = RecordLog(log.path)
        assert set(resumed.open(HEADER, "k", resume=True)) == {1, 2}
        resumed.append({"k": 4})
        assert log.path.read_bytes() == intact + b'{"k": 4}\n'
        assert set(RecordLog(log.path).load("k")[1]) == {1, 2, 4}

    def test_complete_but_unterminated_last_line_is_torn(self, log):
        """The newline is the commit mark: a line without one never
        finished its append, however parseable it looks."""
        log.open(HEADER, "k", resume=False)
        log.append({"k": 1})
        with open(log.path, "ab") as handle:
            handle.write(b'{"k": 2}')
        assert set(RecordLog(log.path).load("k")[1]) == {1}

    @pytest.mark.parametrize("garbage", [b"{not json", b"[1, 2]", b"",
                                         b'{"other": 1}'])
    def test_malformed_middle_line_fails_closed(self, log, garbage):
        log.open(HEADER, "k", resume=False)
        log.append({"k": 1})
        with open(log.path, "ab") as handle:
            handle.write(garbage + b"\n" + b'{"k": 2}\n')
        with pytest.raises(ValueError, match="line 3"):
            RecordLog(log.path).open(HEADER, "k", resume=True)


class TestFreshRuns:
    def test_non_resume_run_discards_prior_records(self, log):
        log.open(HEADER, "k", resume=False)
        log.append({"k": 1})
        fresh = RecordLog(log.path)
        assert fresh.open(HEADER, "k", resume=False) == {}
        assert set(log.load("k")[1]) == {1}  # untouched until an append
        fresh.append({"k": 2})
        assert log.load("k")[1] == {2: {"k": 2}}

    def test_fresh_run_replaces_a_foreign_file(self, log):
        log.path.write_text("not a log at all")
        log.open(HEADER, "k", resume=False)
        log.append({"k": 1})
        assert log.path.read_bytes().splitlines() == \
            [json.dumps(HEADER).encode(), b'{"k": 1}']
