"""The read-optimized columnar snapshot behind every serve endpoint.

:class:`ColumnStore` holds the served copy of the detection rows.  Its
write surface is tiny and block-granular — ``ingest_block`` /
``retract_block`` from the streaming feeder, ``load_dataset`` from a
completed batch run, ``reconcile`` when a stream finalizes — and every
write replaces a whole per-height bucket in one assignment and bumps
the store *generation*, so a reader never observes half a reorg: a
retraction and the canonical re-ingest that supersedes it are two
generation bumps, each atomic.

The read surface is a lazily materialized **columnar snapshot**: on the
first read after a write, the per-height buckets compact into parallel
column arrays (kind, actor, miner, profit, label columns) plus a sorted
``(height, kind_rank, seq)`` key index.  Range scans bisect the key
index; aggregates and leaderboards scan columns without touching row
dicts; row endpoints slice the canonical row list.  Many reads amortize
one compaction — the shape a query service wants.

**Canonical order.**  Rows sort by ``(height, kind_rank, seq)`` where
``seq`` numbers a block's rows of one kind in detection order.  Both
ingest paths produce the same order — a batch dataset's rows group into
the identical per-height buckets the per-block stream payloads arrive
in — which is what makes every endpoint byte-identical between a
batch-built and a stream-built store (the serve identity rule).

**Cursor stability.**  A pagination cursor is the key of the last row
returned, so it addresses a *position in the order*, not an offset.
Rows retracted or superseded underneath a walk cannot duplicate or
skip surviving rows: the walk resumes strictly after the cursor key.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.datasets import MevDataset

__all__ = ["ColumnStore", "CursorError", "StoreReconcileError",
           "decode_cursor", "encode_cursor"]

#: canonical kind order inside one block (matches ``MevDataset.to_rows``)
KIND_RANK: Dict[str, int] = {"sandwich": 0, "arbitrage": 1,
                             "liquidation": 2}

#: fields the post-detection joins may rewrite; everything else is
#: frozen at detection time and must survive a reconcile untouched
LABEL_FIELDS: Tuple[str, ...] = ("via_flashbots", "via_flashloan",
                                 "privacy")

RowKey = Tuple[int, int, int]


class StoreReconcileError(Exception):
    """A finalized dataset contradicted the live-ingested rows.

    Raised when :meth:`ColumnStore.reconcile` finds a height, row
    count, or non-label field that differs between what the stream fed
    block-by-block and what the finalized pipeline computed — the
    serving layer refuses to paper over a convergence failure.
    """


class CursorError(ValueError):
    """A pagination cursor that is not one this store issued."""


def encode_cursor(key: RowKey) -> str:
    """The opaque wire form of a row key."""
    return f"r{key[0]}.{key[1]}.{key[2]}"


def decode_cursor(cursor: str) -> RowKey:
    """Parse a wire cursor back into a row key (raises CursorError)."""
    if not cursor.startswith("r"):
        raise CursorError(f"malformed cursor {cursor!r}")
    parts = cursor[1:].split(".")
    if len(parts) != 3:
        raise CursorError(f"malformed cursor {cursor!r}")
    try:
        height, rank, seq = (int(part) for part in parts)
    except ValueError as exc:
        raise CursorError(f"malformed cursor {cursor!r}") from exc
    if rank < 0 or seq < 0:
        raise CursorError(f"malformed cursor {cursor!r}")
    return (height, rank, seq)


def _actor_of(row: Dict[str, Any]) -> str:
    """The extracting account a leaderboard charges the row to."""
    if row["kind"] == "liquidation":
        return str(row["liquidator"])
    return str(row["extractor"])


def _profit_of(row: Dict[str, Any]) -> int:
    return int(row["gain_wei"]) - int(row["cost_wei"])


@dataclass
class _Snapshot:
    """One generation's compacted, read-optimized view."""

    #: sorted ``(height, kind_rank, seq)`` — the pagination order
    keys: List[RowKey] = field(default_factory=list)
    #: canonical row dicts, parallel to ``keys``
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: column arrays, parallel to ``keys``
    kinds: List[str] = field(default_factory=list)
    actors: List[str] = field(default_factory=list)
    miners: List[str] = field(default_factory=list)
    profits: List[int] = field(default_factory=list)
    via_flashbots: List[Optional[bool]] = field(default_factory=list)
    via_flashloan: List[bool] = field(default_factory=list)
    privacy: List[Optional[str]] = field(default_factory=list)
    digest: str = ""


class ColumnStore:
    """Served detection rows: block-granular writes, columnar reads."""

    def __init__(self) -> None:
        #: height → that block's rows, in canonical per-block order
        self._blocks: Dict[int, List[Dict[str, Any]]] = {}
        #: the run's quality ledger, as served by ``/v1/coverage``
        self._quality: Optional[Dict[str, Any]] = None
        #: monotonically increasing write counter; every cached or
        #: conditional response is keyed to it
        self.generation: int = 0
        #: serving metadata the feeder maintains (e.g. the stream
        #: watermark); shown by ``/v1/status``, never cached
        self.meta: Dict[str, Any] = {}
        self._snapshot: Optional[_Snapshot] = None

    # Write surface -------------------------------------------------------

    def _bump(self) -> None:
        self.generation += 1
        self._snapshot = None

    def ingest_block(self, height: int,
                     rows: Iterable[Dict[str, Any]]) -> None:
        """Install (or supersede) one block's rows atomically.

        ``rows`` are canonical rows (as
        :func:`~repro.core.datasets.record_row` renders them, or as a
        store serves them); the store keeps them as given and never
        writes to them.  Re-ingesting a height replaces its bucket
        wholesale — the reorg path is *retract, then ingest the
        replacement*, and each step is one generation.
        """
        bucket = list(rows)
        for row in bucket:
            if int(row["block_number"]) != height:
                raise ValueError(
                    f"row for block {row['block_number']} "
                    f"ingested at height {height}")
        self._blocks[height] = bucket
        self._bump()

    def retract_block(self, height: int) -> int:
        """Drop one block's rows (reorg retraction); returns the count."""
        bucket = self._blocks.pop(height, None)
        self._bump()
        return 0 if bucket is None else len(bucket)

    def load_dataset(self, dataset: MevDataset) -> None:
        """Cold-start: snapshot a completed batch run's dataset."""
        blocks: Dict[int, List[Dict[str, Any]]] = {}
        for row in dataset.to_rows():
            blocks.setdefault(int(row["block_number"]), []).append(row)
        self._blocks = blocks
        if dataset.quality is not None:
            self._quality = dataset.quality.to_dict()
        self._bump()

    def set_quality(self, quality: Optional[Dict[str, Any]]) -> None:
        """Install the quality ledger served by ``/v1/coverage``."""
        self._quality = None if quality is None else \
            json.loads(json.dumps(quality))
        self._bump()

    def reconcile(self, dataset: MevDataset) -> None:
        """Fold a finalized dataset's labels into the live-built store.

        The stream feeds rows block-by-block *before* the joins run, so
        live rows carry detection-time labels; when the stream
        finalizes, this replays the joined dataset over the buckets —
        but only as a **label update**.  Every height, row count, and
        non-label field must already agree with what was served, or the
        store raises :class:`StoreReconcileError` instead of silently
        swapping in different data.  The whole reconcile lands as one
        generation: readers see either the pre-join store or the fully
        labelled one, never a half-labelled mix.
        """
        final: Dict[int, List[Dict[str, Any]]] = {}
        for row in dataset.to_rows():
            final.setdefault(int(row["block_number"]), []).append(row)
        live_heights = sorted(self._blocks)
        if live_heights != sorted(final):
            raise StoreReconcileError(
                f"finalized dataset covers blocks {sorted(final)[:3]}… "
                f"but the live store holds {live_heights[:3]}…")
        for height in live_heights:
            live, joined = self._blocks[height], final[height]
            if len(live) != len(joined):
                raise StoreReconcileError(
                    f"block {height}: {len(live)} rows served live, "
                    f"{len(joined)} in the finalized dataset")
            for served, labelled in zip(live, joined):
                for name, value in served.items():
                    if name in LABEL_FIELDS:
                        continue
                    if labelled.get(name) != value:
                        raise StoreReconcileError(
                            f"block {height}: finalized row differs "
                            f"from the served row in non-label field "
                            f"{name!r} ({labelled.get(name)!r} != "
                            f"{value!r})")
        self._blocks = final
        if dataset.quality is not None:
            self._quality = dataset.quality.to_dict()
        self._bump()

    # Snapshot ------------------------------------------------------------

    def _view(self) -> _Snapshot:
        """The current generation's columnar view, compacting if stale."""
        if self._snapshot is not None:
            return self._snapshot
        snapshot = _Snapshot()
        for height in sorted(self._blocks):
            seq: Dict[int, int] = {}
            bucket = sorted(self._blocks[height],
                            key=lambda row: KIND_RANK[row["kind"]])
            for row in bucket:
                rank = KIND_RANK[row["kind"]]
                index = seq.get(rank, 0)
                seq[rank] = index + 1
                snapshot.keys.append((height, rank, index))
                snapshot.rows.append(row)
                snapshot.kinds.append(row["kind"])
                snapshot.actors.append(_actor_of(row))
                snapshot.miners.append(str(row.get("miner", "")))
                snapshot.profits.append(_profit_of(row))
                snapshot.via_flashbots.append(row["via_flashbots"])
                snapshot.via_flashloan.append(
                    bool(row["via_flashloan"]))
                snapshot.privacy.append(row["privacy"])
        material = json.dumps(
            {"rows": snapshot.rows, "quality": self._quality},
            sort_keys=True)
        snapshot.digest = hashlib.sha256(
            material.encode("utf-8")).hexdigest()[:16]
        self._snapshot = snapshot
        return snapshot

    # Read surface --------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self._view().rows)

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def bounds(self) -> Tuple[Optional[int], Optional[int]]:
        """Lowest and highest held height (``(None, None)`` if empty)."""
        if not self._blocks:
            return (None, None)
        heights = sorted(self._blocks)
        return (heights[0], heights[-1])

    def digest(self) -> str:
        """Content digest of the current generation's rows + quality."""
        return self._view().digest

    def has_block(self, height: int) -> bool:
        return height in self._blocks

    def rows_at(self, height: int) -> List[Dict[str, Any]]:
        """One block's rows in canonical order (empty if not held)."""
        view = self._view()
        lo = bisect_left(view.keys, (height, 0, 0))
        hi = bisect_right(view.keys, (height + 1, 0, -1))
        return view.rows[lo:hi]

    def page(self, lo: Optional[int] = None, hi: Optional[int] = None,
             cursor: Optional[str] = None, limit: int = 100,
             ) -> Tuple[List[Dict[str, Any]], Optional[str]]:
        """One page of rows in ``[lo, hi]``, resuming after ``cursor``.

        Returns ``(rows, next_cursor)``; ``next_cursor`` is ``None``
        exactly when the walk is exhausted.  A full cursor walk visits
        the same rows as the one-shot range read, in the same order,
        with no duplicates and no gaps (the pagination identity the
        property tests pin).
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        view = self._view()
        start = 0 if lo is None else \
            bisect_left(view.keys, (lo, 0, 0))
        if cursor is not None:
            key = decode_cursor(cursor)
            start = max(start, bisect_right(view.keys, key))
        end = len(view.keys) if hi is None else \
            bisect_right(view.keys, (hi + 1, 0, -1))
        rows = view.rows[start:start + limit]
        if start + limit >= end:
            rows = view.rows[start:end]
            return (rows, None)
        return (rows, encode_cursor(view.keys[start + limit - 1]))

    # Analytics (column scans) --------------------------------------------

    def table1(self) -> List[Dict[str, Any]]:
        """Table-1-style aggregate rows (per strategy plus a total)."""
        view = self._view()
        counts: Dict[str, Dict[str, int]] = {
            kind: {"extractions": 0, "via_flashbots": 0,
                   "via_flash_loans": 0, "via_both": 0}
            for kind in KIND_RANK}
        for index, kind in enumerate(view.kinds):
            entry = counts[kind]
            entry["extractions"] += 1
            fb = bool(view.via_flashbots[index])
            fl = view.via_flashloan[index]
            entry["via_flashbots"] += 1 if fb else 0
            entry["via_flash_loans"] += 1 if fl else 0
            entry["via_both"] += 1 if (fb and fl) else 0
        rows = []
        total = {"extractions": 0, "via_flashbots": 0,
                 "via_flash_loans": 0, "via_both": 0}
        for kind in sorted(KIND_RANK, key=KIND_RANK.get):
            entry = counts[kind]
            for name in total:
                total[name] += entry[name]
            rows.append({"strategy": kind, **entry,
                         **_shares(entry)})
        rows.append({"strategy": "total", **total, **_shares(total)})
        return rows

    def leaderboard(self, by: str, limit: int = 20,
                    ) -> List[Dict[str, Any]]:
        """Top accounts by total profit: ``by`` is 'searchers'/'miners'.

        Searchers are the extracting accounts (the liquidator for
        liquidation rows); miners are the block producers who included
        them.  Ties break by extraction count, then address, so the
        ranking is total and deterministic.
        """
        view = self._view()
        if by == "searchers":
            accounts = view.actors
        elif by == "miners":
            accounts = view.miners
        else:
            raise ValueError(
                f"leaderboard must rank 'searchers' or 'miners', "
                f"got {by!r}")
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        totals: Dict[str, Dict[str, int]] = {}
        for index, account in enumerate(accounts):
            entry = totals.setdefault(
                account, {"extractions": 0, "profit_wei": 0,
                          "via_flashbots": 0})
            entry["extractions"] += 1
            entry["profit_wei"] += view.profits[index]
            entry["via_flashbots"] += \
                1 if view.via_flashbots[index] else 0
        ranked = sorted(
            totals.items(),
            key=lambda item: (-item[1]["profit_wei"],
                              -item[1]["extractions"], item[0]))
        return [{"rank": rank + 1, "account": account, **entry}
                for rank, (account, entry)
                in enumerate(ranked[:limit])]

    def coverage(self) -> Dict[str, Any]:
        """Quality/coverage document: the run's ledger plus the served
        rows' degraded-label counts (tri-state ``via_flashbots=None``
        gaps and ``privacy='unobserved'`` collector downtime)."""
        view = self._view()
        return {
            "quality": self._quality,
            "labels": {
                "rows": len(view.rows),
                "flashbots_unknown": sum(
                    1 for value in view.via_flashbots
                    if value is None),
                "privacy_unobserved": sum(
                    1 for value in view.privacy
                    if value == "unobserved"),
            },
        }


def _shares(entry: Dict[str, int]) -> Dict[str, Any]:
    total = entry["extractions"]
    if not total:
        return {"share_flashbots": 0.0, "share_flash_loans": 0.0,
                "share_both": 0.0}
    return {
        "share_flashbots": round(entry["via_flashbots"] / total, 6),
        "share_flash_loans": round(entry["via_flash_loans"] / total, 6),
        "share_both": round(entry["via_both"] / total, 6),
    }
