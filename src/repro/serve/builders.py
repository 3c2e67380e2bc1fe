"""The two ingest paths that share one :class:`ColumnStore`.

Cold start snapshots a completed run (:func:`store_from_dataset`,
:func:`service_from_dataset`); live follow (:func:`live_service`)
subscribes a :class:`StoreFeeder` to a
:class:`~repro.stream.StreamEngine`, so every indexed block, reorg
retraction and the final label reconcile land in the store as they
happen.  Serve imports stream, never the reverse
(R003), and takes datasets, never a ``SimulationResult``.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.chain.types import Hash32
from repro.core.datasets import MevDataset, record_row
from repro.serve.service import MevQueryService
from repro.serve.store import ColumnStore
from repro.stream.engine import StreamEngine, StreamSubscriber

__all__ = ["StoreFeeder", "live_service", "service_from_dataset",
           "store_from_dataset"]


class StoreFeeder(StreamSubscriber):
    """Mirror a :class:`StreamEngine`'s block events into a store.

    Indexed records are rendered to rows by the one renderer,
    :func:`~repro.core.datasets.record_row`.  Blocks with no detection
    rows are not ingested — a batch dataset only materializes heights
    that hold rows, and the identity rule needs both build paths to
    hold the same heights.  Retractions are forwarded unconditionally
    (retracting an empty height is a no-op with a generation bump,
    which correctly invalidates caches that may have served the
    emptiness).
    """

    def __init__(self, store: ColumnStore) -> None:
        self.store = store

    def block_indexed(self, height: int, block_hash: Hash32,
                      records: Tuple[Any, ...]) -> None:
        if records:
            self.store.ingest_block(
                height, [record_row(record) for record in records])
        self.store.meta["head"] = height

    def block_retracted(self, height: int, block_hash: Hash32,
                        rows_retracted: int) -> None:
        self.store.retract_block(height)

    def watermark_advanced(self, height: int) -> None:
        self.store.meta["watermark"] = height

    def stream_finalized(self, dataset: MevDataset) -> None:
        self.store.reconcile(dataset)
        self.store.meta["finalized"] = True


def store_from_dataset(dataset: MevDataset) -> ColumnStore:
    """Cold-start store over a completed run's dataset."""
    store = ColumnStore()
    store.load_dataset(dataset)
    return store


def service_from_dataset(dataset: MevDataset) -> MevQueryService:
    """Cold-start service over a completed run's dataset."""
    return MevQueryService(store_from_dataset(dataset))


def live_service(engine: StreamEngine) -> MevQueryService:
    """Service over an empty store subscribed to ``engine``: subscribe
    before driving the engine, and the store follows it live."""
    service = MevQueryService(ColumnStore())
    engine.subscribe(StoreFeeder(service.store))
    return service
