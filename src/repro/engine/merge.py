"""Order-independent merge of per-chunk artifacts.

Worker processes yield chunk results in whatever order they complete;
these helpers rebuild the run's dataset and flash-loan transaction set
by iterating the *planned* chunk list, so the merged output is
identical no matter how many workers produced the results or in which
order they landed.

The helpers take the target dataset as an argument rather than
importing ``MevDataset`` — ``repro.core`` imports the engine, and the
merge layer staying core-free keeps that edge one-directional.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Set, Tuple

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
