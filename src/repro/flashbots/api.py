"""The public Flashbots blocks API (blocks.flashbots.net stand-in).

Flashbots' transparency initiative publishes every mined bundle: block
number, miner, miner reward, and per-transaction bundle labels.  The paper
downloaded this dataset in full (1,196,218 blocks) and joined it against
archive-node data to label MEV as Flashbots/non-Flashbots.  This module
keeps the same rows and offers the same join surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.chain.types import Address, Hash32
from repro.flashbots.mev_geth import IncludedBundle

#: An inclusive ``(first_block, last_block)`` span.
BlockRange = Tuple[int, int]


@dataclass(frozen=True)
class ApiTransaction:
    """One row of the per-transaction table served by the API."""

    tx_hash: Hash32
    bundle_id: Hash32
    bundle_type: str
    bundle_index: int
    tx_index_in_bundle: int


@dataclass(frozen=True)
class ApiBlock:
    """One row of the per-block table served by the API."""

    block_number: int
    miner: Address
    miner_reward: int  # wei earned from bundles (tips + coinbase)
    bundle_count: int
    transactions: Tuple[ApiTransaction, ...] = field(default_factory=tuple)


class FlashbotsBlocksApi:
    """Accumulates mined-bundle data and serves the public dataset."""

    def __init__(self) -> None:
        self._blocks: Dict[int, ApiBlock] = {}
        self._tx_index: Dict[Hash32, ApiTransaction] = {}
        self._gaps: Tuple[BlockRange, ...] = ()

    # Ingestion (called by the simulation when a Flashbots block lands) ---

    def record_block(self, block_number: int, miner: Address,
                     included: List[IncludedBundle]) -> None:
        """Ingest one mined block's bundle rows.

        Idempotent on byte-identical replays: re-recording a block with
        the same miner and bundles is a no-op (a resumed crawl replays
        its tail), while a *conflicting* re-record still raises.
        """
        if not included:
            return
        rows: List[ApiTransaction] = []
        reward = 0
        for bundle_index, item in enumerate(included):
            reward += item.miner_payment
            for tx_index, tx in enumerate(item.bundle.transactions):
                rows.append(ApiTransaction(
                    tx_hash=tx.hash,
                    bundle_id=item.bundle.bundle_id,
                    bundle_type=item.bundle.bundle_type,
                    bundle_index=bundle_index,
                    tx_index_in_bundle=tx_index))
        block = ApiBlock(
            block_number=block_number, miner=miner, miner_reward=reward,
            bundle_count=len(included), transactions=tuple(rows))
        existing = self._blocks.get(block_number)
        if existing is not None:
            if existing == block:
                return
            raise ValueError(
                f"block {block_number} already recorded with "
                "different contents")
        self._blocks[block_number] = block
        for row in rows:
            self._tx_index[row.tx_hash] = row

    # Incremental dataset snapshots ----------------------------------------
    #
    # ``record_block`` only appends rows (a conflicting re-record raises),
    # so the row count is a version counter and the dataset can be
    # snapshotted as per-epoch chunks of :class:`ApiBlock` rows — every
    # row is a frozen graph of hashes and strings, fully self-contained.

    def record_count(self) -> int:
        """Version counter for the per-block table (append-only)."""
        return len(self._blocks)

    def records_slice(self, start: int) -> List[ApiBlock]:
        """Rows from position ``start`` onward, in record order."""
        return list(islice(self._blocks.values(), start, None))

    @classmethod
    def from_records(cls, records: Iterable[ApiBlock],
                     gaps: Iterable[BlockRange] = (),
                     ) -> "FlashbotsBlocksApi":
        """Rebuild a dataset from snapshotted rows (seal restoration)."""
        api = cls()
        for block in records:
            api._blocks[block.block_number] = block
            for row in block.transactions:
                api._tx_index[row.tx_hash] = row
        api._gaps = tuple(gaps)
        return api

    # Coverage ------------------------------------------------------------

    def has_block_data(self, block_number: int) -> bool:
        """Whether the dataset's coverage includes this block.

        ``True`` means absence of a row is conclusive (the block was not
        a Flashbots block); ``False`` means the block falls in a known
        gap and nothing can be said either way.
        """
        return not any(lo <= block_number <= hi for lo, hi in self._gaps)

    def coverage_gaps(self) -> List[BlockRange]:
        return list(self._gaps)

    # Public dataset queries ---------------------------------------------------

    def all_blocks(self) -> List[ApiBlock]:
        return [self._blocks[n] for n in sorted(self._blocks)]

    def blocks_until(self, block_number: int) -> List[ApiBlock]:
        """The paper's "entire list of Flashbots blocks until block N"."""
        return [self._blocks[n] for n in sorted(self._blocks)
                if n <= block_number]

    def get_block(self, block_number: int) -> Optional[ApiBlock]:
        return self._blocks.get(block_number)

    def is_flashbots_block(self, block_number: int) -> bool:
        return block_number in self._blocks

    def is_flashbots_tx(self, tx_hash: Hash32) -> bool:
        return tx_hash in self._tx_index

    def tx_label(self, tx_hash: Hash32) -> Optional[ApiTransaction]:
        return self._tx_index.get(tx_hash)

    def flashbots_tx_hashes(self) -> Set[Hash32]:
        return set(self._tx_index)

    def block_count(self) -> int:
        return len(self._blocks)

    def bundle_count(self) -> int:
        return sum(b.bundle_count for b in self._blocks.values())
