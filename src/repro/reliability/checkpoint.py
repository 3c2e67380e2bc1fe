"""Checkpoints for resumable runs: a :class:`~repro.durable.RecordLog`.

A checkpoint's header names the run it was written for (the batch
range and chunk size, or the stream's first block and confirmation
depth) plus :data:`CHECKPOINT_VERSION`, and resuming any other run —
or a checkpoint of another version — fails with
:class:`CheckpointError` instead of resuming garbage.  Each completed
chunk (batch) or appended block (stream) is one appended record, so a
save costs one line however long the run.  What goes *into* a record
is the pipeline's business.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.durable import RecordLog

#: Bumped whenever the checkpoint layout changes.  Version 2 is the
#: append-only log; version-1 whole-document checkpoints are refused.
CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """The checkpoint file is unreadable, stale, or inconsistent."""


class CheckpointStore(RecordLog):
    """One checkpoint log at a fixed path."""

    error = CheckpointError

    @classmethod
    def coerce(cls, checkpoint: Union["CheckpointStore", str, Path, None],
               ) -> Optional["CheckpointStore"]:
        """The store a ``RunConfig.checkpoint`` value names: a store is
        used as is, a path opens one, ``None`` means no checkpoint."""
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            return checkpoint
        return cls(checkpoint)

    def open(self, header: Dict[str, Any], key: str,
             resume: bool) -> Dict[Any, Dict[str, Any]]:
        return super().open({"version": CHECKPOINT_VERSION, **header},
                            key, resume)
