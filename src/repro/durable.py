"""Durable run state: one atomic file writer and one append-only log.

Everything a run persists goes through this module.  Whole files —
segment files and seal sidecars — are written by :func:`write_atomic`
(temp file, fsync, rename, directory fsync), so a reader sees the old
bytes or the new bytes, never a torn file.  State that grows with the
run — the segment manifest and the batch and stream checkpoints — is a
:class:`RecordLog`: a header line naming what the log was written for,
then one JSON line per record, where the last record for a key wins.
Each append is one flushed and fsync'd line, so a save costs O(1) in
the length of the run.

This module sits at the bottom of the layer diagram (it imports
nothing from ``repro``), like :mod:`repro.markers`, so every layer may
persist through it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Type, Union

__all__ = ["RecordLog", "write_atomic"]

Records = Dict[Any, Dict[str, Any]]


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Crash-safe whole-file write: readers see the old bytes or the new
    bytes, never a partial file, even across power loss.

    Durability needs two fsyncs: the temp file's (its bytes are on disk
    before the rename makes them visible) and the parent directory's
    (the rename itself is a directory entry update).  Platforms that
    cannot open a directory skip the second: the rename stays atomic,
    just not crash-durable.
    """
    path = str(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        fd = os.open(os.path.dirname(path) or ".",
                     os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _line(document: Dict[str, Any]) -> bytes:
    """One log line: deterministic bytes (sorted keys, no whitespace
    choices left to the caller)."""
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


class RecordLog:
    """An append-only JSON-lines file: a header, then one record a line.

    :meth:`open` starts a log for a header.  With ``resume`` it replays
    the file on disk, and a file written for any other header fails
    closed; without it the file is left alone until the first
    :meth:`append` replaces it with a new log, so stale records never
    reach a fresh run and a run that completes nothing keeps the old
    file.  Replay keeps the last record per key.  A torn last line (a
    crash mid-append) is dropped, and the next append truncates it
    away; any other malformed line raises :attr:`error`.
    """

    #: what every unreadable, malformed or foreign log raises
    error: Type[Exception] = ValueError
    #: appended to the message for a log written for another header:
    #: what the caller should do about it
    remedy = ""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._header = b""
        #: bytes of the log on disk that replay kept; ``None`` until the
        #: file holds this log (the next append then writes it whole)
        self._end: Optional[int] = None

    def exists(self) -> bool:
        return self.path.exists()

    def load(self, key: str,
             ) -> Optional[Tuple[Dict[str, Any], Records]]:
        """The header and the last record per ``key`` of the log on
        disk, or ``None`` when there is no file."""
        loaded = self._replay(key, None)
        return None if loaded is None else loaded[:2]

    def open(self, header: Dict[str, Any], key: str,
             resume: bool) -> Records:
        """Start writing the log ``header`` names; with ``resume``,
        return the last record per ``key`` already on disk."""
        self._header = _line(header)
        self._end = None
        loaded = self._replay(key, header) if resume else None
        if loaded is None:
            return {}
        _, records, self._end = loaded
        return records

    def start(self) -> None:
        """Replace the file with a header-only log now."""
        write_atomic(self.path, self._header)
        self._end = len(self._header)

    def append(self, record: Dict[str, Any]) -> None:
        """Durably add one record: one flushed, fsync'd line."""
        line = _line(record)
        if self._end is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(self.path, self._header + line)
            self._end = len(self._header) + len(line)
            return
        with open(self.path, "r+b") as handle:
            handle.seek(self._end)
            handle.write(line)
            handle.truncate()  # whatever a torn last line left behind
            handle.flush()
            os.fsync(handle.fileno())
        self._end += len(line)

    def _replay(self, key: str, header: Optional[Dict[str, Any]],
                ) -> Optional[Tuple[Dict[str, Any], Records, int]]:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise self.error(f"{self.path} is unreadable ({exc})")
        first, newline, rest = data.partition(b"\n")
        found = self._decode(first, 1)
        if header is not None and found != header:
            raise self.error(
                f"{self.path} was written for {_describe(found, header)}; "
                f"this run needs {_describe(header, header)}{self.remedy}")
        if not newline:
            raise self.error(f"{self.path} has no complete header line")
        records: Records = {}
        end = len(first) + 1
        lines = rest.split(b"\n")
        # The last element is empty after a clean append, or the torn
        # tail of a crash mid-append, which replay drops.
        for number, raw in enumerate(lines[:-1], start=2):
            record = self._decode(raw, number)
            if key not in record:
                raise self.error(
                    f"{self.path} line {number} has no {key!r}")
            records[record[key]] = record
            end += len(raw) + 1
        return found, records, end

    def _decode(self, raw: bytes, number: int) -> Dict[str, Any]:
        try:
            document = json.loads(raw)
        except ValueError as exc:
            raise self.error(
                f"{self.path} line {number} is malformed ({exc})")
        if not isinstance(document, dict):
            raise self.error(
                f"{self.path} line {number} is not a JSON object")
        return document


def _describe(document: Dict[str, Any], header: Dict[str, Any]) -> str:
    """``document``'s values for ``header``'s keys, as ``k=v`` pairs."""
    return ", ".join(f"{name}={document.get(name)!r}" for name in header)
