"""Order-independent merge of per-chunk artifacts.

Executors yield chunk results in whatever order they complete; these
helpers rebuild the run's dataset, flash-loan transaction set, and
resilience ledger by iterating the *planned* chunk list, so the merged
output is identical no matter which executor produced the results or in
which order they landed.  (Integer counters commute anyway; iterating
in chunk order additionally makes the float backoff totals bit-stable.)

The helpers take the target dataset as an argument rather than
importing ``MevDataset`` — ``repro.core`` imports the engine, and the
merge layer staying core-free keeps that edge one-directional.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

from repro.engine.executors import ChunkStats

BlockRange = Tuple[int, int]


def chunk_key(chunk: BlockRange) -> str:
    """The canonical checkpoint/state key for one chunk."""
    return f"{chunk[0]}-{chunk[1]}"


def chunk_payload(partial: Any, flash_txs: Iterable[str]) -> Dict[str, Any]:
    """One chunk's checkpointable detection artifact, the shape
    :func:`merge_rows` and :func:`merge_flash_txs` read back."""
    return {"rows": partial.to_rows(), "flash_txs": sorted(flash_txs)}


def merge_rows(dataset: Any, chunks: Iterable[BlockRange],
               state: Dict[str, Any]) -> Any:
    """Append every completed chunk's rows to ``dataset``, block order."""
    for chunk in chunks:
        payload = state.get(chunk_key(chunk))
        if payload is None:
            continue
        for row in payload["rows"]:
            dataset.add_row(row)
    return dataset


def merge_flash_txs(chunks: Iterable[BlockRange],
                    state: Dict[str, Any]) -> Set[str]:
    """Union of every completed chunk's flash-loan transactions."""
    flash_txs: Set[str] = set()
    for chunk in chunks:
        payload = state.get(chunk_key(chunk))
        if payload is not None:
            flash_txs.update(payload["flash_txs"])
    return flash_txs


def sum_chunk_stats(chunks: Iterable[BlockRange],
                    stats: Dict[str, ChunkStats]) -> ChunkStats:
    """Per-chunk resilience ledgers folded together in chunk order."""
    total = ChunkStats()
    for chunk in chunks:
        entry = stats.get(chunk_key(chunk))
        if entry is not None:
            total.add(entry)
    return total


def failed_ranges(results: Iterable[Any]) -> List[BlockRange]:
    """The chunks a batch of results reported as permanently failed."""
    return sorted(result.chunk for result in results if result.failed)
