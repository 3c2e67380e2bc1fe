"""Atomic JSON checkpoints for resumable pipeline runs.

The store is deliberately dumb: it persists one JSON document and
replaces it atomically (write to a sibling temp file, ``os.replace``),
so a crash mid-save leaves the previous checkpoint intact rather than a
torn file.  What goes *into* the document is the pipeline's business;
the store only enforces a version header so stale formats fail loudly
instead of resuming garbage.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Bumped whenever the checkpoint document layout changes.
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """The checkpoint file is unreadable, stale, or inconsistent."""


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entry table to disk (rename durability).

    Platforms without ``O_DIRECTORY`` (or filesystems that refuse to
    open directories) skip silently — the rename is still atomic, just
    not crash-durable, which matches the store's pre-hardening
    behaviour there.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointStore:
    """One checkpoint document at a fixed path, written atomically."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    @classmethod
    def coerce(cls, checkpoint: Union["CheckpointStore", str, Path, None],
               ) -> Optional["CheckpointStore"]:
        """The store a ``RunConfig.checkpoint`` value names: a store is
        used as is, a path opens one, ``None`` means no checkpoint."""
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            return checkpoint
        return cls(checkpoint)

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, payload: Dict[str, Any]) -> None:
        """Atomically replace the checkpoint with ``payload``.

        Durability needs *two* fsyncs: one on the temp file (so the
        bytes are on disk before the rename makes them visible) and one
        on the parent directory (so the rename itself — a directory
        entry update — survives a crash; without it ``os.replace`` can
        be lost and the path still name the old document, or nothing).
        """
        document = dict(payload)
        document["version"] = CHECKPOINT_VERSION
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp_path, "w", encoding="utf-8") as stream:
            # One encode and one write: json.dump would stream the
            # document in many small chunks, the same bytes far slower.
            stream.write(json.dumps(document, sort_keys=True))
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_path, self.path)
        _fsync_dir(self.path.parent)

    def load(self) -> Optional[Dict[str, Any]]:
        """The stored document, or ``None`` when no checkpoint exists."""
        if not self.path.exists():
            return None
        try:
            with open(self.path, "r", encoding="utf-8") as stream:
                document = json.load(stream)
        except (OSError, ValueError) as error:
            raise CheckpointError(
                f"unreadable checkpoint {self.path}: {error}") from error
        if not isinstance(document, dict):
            raise CheckpointError(
                f"checkpoint {self.path} is not a JSON object")
        version = document.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has version {version!r}; "
                f"this build writes version {CHECKPOINT_VERSION}")
        return document
