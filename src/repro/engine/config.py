"""Run configuration: one frozen object instead of a kwarg pile.

``MevInspector.run`` grew a parameter per feature (chunking in PR 2,
workers and caching in PR 3, follow-mode confirmation depth in PR 7);
:class:`RunConfig` freezes the whole execution contract — range,
chunking, checkpointing, fault profile, parallelism, caching,
confirmation depth — into a single value the CLI builds once and every
layer passes through unchanged.

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

The cache digest lives here too: a :class:`CachedExecutor` artifact is
only valid for the exact source configuration that produced it, so the
digest folds in the caller-declared ``cache_key`` (world identity) and
the fault plan, retry policy and breaker parameters the archive source
actually runs under.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.reliability.checkpoint import CheckpointStore

#: Bumped whenever the cached chunk-artifact layout or content changes
#: (2: a chunk's stats count its one ranged read, not a replayed
#: four-scan op sequence).
CACHE_VERSION = 2


@dataclass(frozen=True)
class RunConfig:
    """Everything that shapes one pipeline run.

    ``cache_key`` names the *world* the cache artifacts were computed
    from (e.g. ``"bpm=60:seed=7"``); it is required whenever
    ``cache_dir`` is set, because a chunk artifact reused across
    different worlds would be silent data corruption.
    """

    from_block: Optional[int] = None
    to_block: Optional[int] = None
    chunk_size: Optional[int] = None
    checkpoint: Union[CheckpointStore, str, Path, None] = None
    resume: bool = False
    fault_profile: str = "none"
    fault_seed: int = 0
    workers: int = 1
    cache_dir: Union[str, Path, None] = None
    cache_key: Optional[str] = field(default=None)
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
        if self.cache_dir is not None and not self.cache_key:
            raise ValueError(
                "cache_dir requires an explicit cache_key naming the "
                "world the artifacts belong to (e.g. 'bpm=60:seed=7'); "
                "reusing chunk artifacts across worlds would corrupt "
                "the dataset silently")

    def artifact_digest(self,
                        extra: Optional[Dict[str, Any]] = None) -> str:
        """Digest keying cached chunk artifacts to this configuration.

        ``extra`` carries run-time fingerprints the config cannot know
        statically (the fault plan, retry policy and breaker parameters
        actually armed on the archive source).
        """
        material: Dict[str, Any] = {
            "cache_version": CACHE_VERSION,
            "cache_key": self.cache_key,
        }
        if extra:
            material.update(extra)
        canonical = json.dumps(material, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
