"""Run configuration: one frozen object instead of a kwarg pile.

:class:`RunConfig` freezes the whole execution contract — range,
chunking, checkpointing, fault profile, parallelism, confirmation
depth — into a single value the CLI builds once and every layer passes
through unchanged.  Checkpoint/resume is the one way a run persists
its completed chunks.

**Canonical construction.**  This is the one documented way to
configure an execution surface — ``MevInspector.run``,
``repro.run_inspector``, ``repro.follow_inspector``,
``repro.follow_study``, ``repro.quick_study``, and the
``repro.serve`` builders all take the same object::

    config = RunConfig(from_block=0, to_block=299, chunk_size=50,
                       workers=4, fault_profile="reorg", fault_seed=1)
    dataset = MevInspector(node, prices, api, observer).run(
        config=config)

``config=None`` means ``RunConfig()``.  There is no second spelling:
the loose keyword arguments these entry points also used to accept
(deprecated since 1.5.0) are gone, and the names of the helpers that
resolved them are banned by lint rule R007.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.reliability.checkpoint import CheckpointStore


@dataclass(frozen=True)
class RunConfig:
    """Everything that shapes one pipeline run."""

    from_block: Optional[int] = None
    to_block: Optional[int] = None
    chunk_size: Optional[int] = None
    checkpoint: Union[CheckpointStore, str, Path, None] = None
    resume: bool = False
    fault_profile: str = "none"
    fault_seed: int = 0
    workers: int = 1
    #: follow-mode confirmation watermark depth (batch runs ignore it)
    confirm_depth: int = 3

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers}")
        if self.confirm_depth < 0:
            raise ValueError(
                f"confirm_depth must be >= 0, got {self.confirm_depth}")
        if self.chunk_size is not None and self.chunk_size < 0:
            raise ValueError(
                f"chunk_size must be >= 0 or None, got "
                f"{self.chunk_size}")
