"""``repro.serve`` — the async MEV query service over the pipeline.

The original study's deliverable was not a batch script but a query
surface: a MongoDB-backed analysis layer over the public Flashbots
blocks API that let the authors slice privacy and extraction
measurements per block, per searcher, and per miner.  This package is
that surface for the reproduction, engineered as a serving system:

* :class:`~repro.serve.store.ColumnStore` — a read-optimized columnar
  snapshot of detection rows with stable cursor pagination, a content
  digest per generation, and atomic supersede semantics across
  streaming reorg retractions;
* :class:`~repro.serve.service.MevQueryService` — the endpoint layer
  (per-block and per-range MEV rows, Table-1-style aggregates,
  searcher/miner leaderboards, coverage/quality) with ETag
  conditional-request caching and per-endpoint counters;
* :class:`~repro.serve.http.MevHttpServer` — an asyncio HTTP/1.1
  front end over stdlib streams (no third-party dependencies);
* :mod:`repro.serve.loadgen` — a seeded heavy-traffic replay harness
  feeding the ``serve`` stage of ``repro bench``;
* :mod:`repro.serve.builders` — the two ingest paths sharing one
  store: cold-start from a completed run, and live follow through
  :func:`~repro.serve.builders.live_service`, whose store is subscribed
  to the engine :func:`repro.follow_engine` wires.

The package's standing contract is the **identity rule**: every
endpoint's response over the final canonical chain is byte-identical
whether the store was built from a batch dataset or fed live by the
streaming engine through reorgs — enforced by
:func:`~repro.serve.service.responses_identical`, the serve test
suite, and the ``serve_identical`` gate of ``repro bench``.
"""

from repro.serve.builders import (
    StoreFeeder,
    live_service,
    service_from_dataset,
    store_from_dataset,
)
from repro.serve.http import MevHttpServer
from repro.serve.loadgen import (
    LoadReport,
    build_mix,
    probe_once,
    serve_and_replay,
)
from repro.serve.service import (
    MevQueryService,
    ServeResponse,
    probe_targets,
    responses_identical,
)
from repro.serve.store import ColumnStore, StoreReconcileError

__all__ = [
    "ColumnStore",
    "LoadReport",
    "MevHttpServer",
    "MevQueryService",
    "ServeResponse",
    "StoreFeeder",
    "StoreReconcileError",
    "build_mix",
    "live_service",
    "probe_once",
    "probe_targets",
    "responses_identical",
    "serve_and_replay",
    "service_from_dataset",
    "store_from_dataset",
]
