"""The two ingest paths that share one :class:`ColumnStore`.

* **Cold start** — :func:`store_from_dataset` /
  :func:`service_from_dataset` snapshot a completed batch run, and
  :func:`batch_service` runs the batch pipeline itself (under one
  :class:`~repro.engine.RunConfig`, like every other execution
  surface) and serves the result.
* **Live follow** — :func:`stream_service` builds a store that is
  *subscribed* to a :class:`~repro.stream.StreamEngine` through
  :class:`StoreFeeder`: every indexed block lands in the store the
  moment detection finishes, every reorg retraction atomically
  supersedes the served rows, and finalize reconciles the
  post-join labels in.

The dependency points one way — serve imports stream, never the
reverse (R003) — so the engine stays ignorant of who consumes its
hooks.  And the serving layer is measurement-side code: it accepts
nodes, prices and datasets, never a ``SimulationResult``, so it can
no more peek at simulator ground truth than the detectors can.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chain.node import ArchiveNode
from repro.chain.p2p import MempoolObserver
from repro.chain.types import Hash32
from repro.core.datasets import MevDataset
from repro.core.pipeline import MevInspector
from repro.core.profit import PriceService
from repro.engine.config import RunConfig
from repro.flashbots.api import FlashbotsBlocksApi
from repro.serve.service import MevQueryService
from repro.serve.store import ColumnStore
from repro.stream.engine import StreamEngine, StreamSubscriber

__all__ = ["StoreFeeder", "batch_service", "service_from_dataset",
           "store_from_dataset", "stream_service"]


class StoreFeeder(StreamSubscriber):
    """Mirror a :class:`StreamEngine`'s block events into a store.

    Blocks with no detection rows are not ingested — a batch dataset
    only materializes heights that hold rows, and the identity rule
    needs both build paths to hold the same heights.  Retractions are
    forwarded unconditionally (retracting an empty height is a no-op
    with a generation bump, which correctly invalidates caches that
    may have served the emptiness).
    """

    def __init__(self, store: ColumnStore) -> None:
        self.store = store

    def block_indexed(self, height: int, block_hash: Hash32,
                      rows: List[Dict[str, Any]]) -> None:
        if rows:
            self.store.ingest_block(height, rows)
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


def batch_service(node: ArchiveNode, prices: PriceService,
                  flashbots_api: Optional[FlashbotsBlocksApi] = None,
                  observer: Optional[MempoolObserver] = None,
                  config: Optional[RunConfig] = None,
                  ) -> MevQueryService:
    """Run the batch pipeline over ``node`` and serve its dataset."""
    inspector = MevInspector(node, prices, flashbots_api, observer)
    dataset = inspector.run(config=config)
    return service_from_dataset(dataset)


def stream_service(prices: PriceService, first_block: int,
                   flashbots_api: Optional[FlashbotsBlocksApi] = None,
                   observer: Optional[MempoolObserver] = None,
                   config: Optional[RunConfig] = None,
                   ) -> Tuple[MevQueryService, StreamEngine]:
    """A service whose store follows a streaming engine live.

    Returns ``(service, engine)``; the caller drives
    ``engine.ingest`` / ``engine.finalize`` and the service's store
    tracks every append, retraction, and the final reconcile through
    the subscribed :class:`StoreFeeder`.  ``config`` supplies the
    confirmation depth and checkpoint/resume switches exactly as it
    does for ``repro.follow_inspector``.
    """
    if config is None:
        config = RunConfig()
    engine = StreamEngine(prices, first_block,
                          confirm_depth=config.confirm_depth,
                          flashbots_api=flashbots_api,
                          observer=observer,
                          checkpoint=config.checkpoint,
                          resume=config.resume)
    service = MevQueryService(ColumnStore())
    engine.subscribe(StoreFeeder(service.store))
    return (service, engine)
