"""The blockchain store and the archive-node query API.

:class:`Blockchain` is canonical block storage; :class:`ArchiveNode` is the
query surface the measurement pipeline uses — the stand-in for the paper's
go-ethereum archive node.  Everything ``repro.core`` learns about the chain
goes through this API (blocks, transactions, receipts, event logs); nothing
reaches into simulator internals.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Type, TypeVar

from repro.chain.block import Block
from repro.chain.events import EventLog
from repro.chain.index import ChainIndex
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.chain.types import Hash32
from repro.markers import fast_path

E = TypeVar("E", bound=EventLog)


class Blockchain:
    """Append-only canonical chain with hash indexes."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []
        self._tx_index: Dict[Hash32, Tuple[int, int]] = {}
        self._index: Optional[ChainIndex] = None

    @property
    def index(self) -> ChainIndex:
        """The chain's read index (see :mod:`repro.chain.index`).

        Built lazily and shared by every reader; appends are folded in
        incrementally on the next query, so the index is never stale.
        Only a :meth:`rollback` drops it, and the next query rebuilds.
        """
        if self._index is None:
            self._index = ChainIndex(self)
        return self._index

    def append(self, block: Block) -> None:
        """Append ``block``, validating parent linkage at the seam.

        Number must be contiguous with the tip, and — when the block
        carries a ``parent_hash`` — it must equal the tip's hash.  A
        block with ``parent_hash=None`` is stamped with the tip's hash
        here, so every stored block is fully linked and a later
        re-delivery of the same object revalidates cleanly.
        """
        if self.blocks:
            tip = self.blocks[-1]
            if block.number != tip.number + 1:
                raise ValueError(
                    f"non-contiguous block: got {block.number}, "
                    f"expected {tip.number + 1}")
            if block.parent_hash is None:
                block.parent_hash = tip.hash
            elif block.parent_hash != tip.hash:
                raise ValueError(
                    f"parent hash mismatch at block {block.number}: "
                    f"block links to {block.parent_hash!r}, tip is "
                    f"{tip.hash!r}")
        self.blocks.append(block)
        # Keyed by *block number*, not list position: a spillable chain
        # (repro.chain.segments) evicts its resident prefix, so list
        # positions are not stable identifiers — block numbers are.
        for tx_index, tx in enumerate(block.transactions):
            self._tx_index[tx.hash] = (block.number, tx_index)

    def rollback(self, to_height: int) -> List[Block]:
        """Truncate the chain back to ``to_height`` (the new tip).

        Returns the removed blocks, oldest first, and keeps every
        derived structure consistent: transaction locations for removed
        blocks are dropped and the read index is discarded, to be
        rebuilt by the next query.  Rolling back to at-or-above the tip
        is a no-op; rolling back past the first stored block raises,
        because this store cannot represent an empty-but-started chain
        (for a spilling chain, the first *resident* block).
        """
        if not self.blocks or to_height >= self.blocks[-1].number:
            return []
        if to_height < self.blocks[0].number:
            raise ValueError(
                f"cannot roll back to {to_height}: chain starts at "
                f"{self.blocks[0].number}")
        keep = to_height - self.blocks[0].number + 1
        removed = self.blocks[keep:]
        del self.blocks[keep:]
        for block in removed:
            for tx in block.transactions:
                self._tx_index.pop(tx.hash, None)
        self._index = None
        return removed

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def height(self) -> Optional[int]:
        return self.blocks[-1].number if self.blocks else None

    def block_by_number(self, number: int) -> Optional[Block]:
        if not self.blocks:
            return None
        offset = number - self.blocks[0].number
        if 0 <= offset < len(self.blocks):
            return self.blocks[offset]
        return None

    def locate_transaction(self, tx_hash: Hash32,
                           ) -> Optional[Tuple[Block, int]]:
        entry = self._tx_index.get(tx_hash)
        if entry is None:
            return None
        number, tx_index = entry
        block = self.block_by_number(number)
        if block is None:
            return None
        return block, tx_index


class ArchiveNode:
    """Query API over a :class:`Blockchain` (the paper's data source).

    Ranged queries (``iter_blocks``, ``get_logs``) resolve through the
    chain's :class:`~repro.chain.index.ChainIndex` by default — O(range)
    bisected slices instead of O(chain) scans from genesis.
    ``indexed=False`` keeps the historical linear-scan implementation,
    preserved as a reference (benchmark baselines and equivalence tests
    compare the two paths element for element).
    """

    def __init__(self, chain: Blockchain, indexed: bool = True) -> None:
        self.chain = chain
        self.indexed = indexed
        #: a segment-backed (spillable) chain keeps only a bounded tail
        #: of blocks resident; ranged reads must route through its
        #: segment reader instead of the in-memory index tiers.
        self.segmented = bool(getattr(chain, "spilled", False))

    # Block-level queries -----------------------------------------------------

    def latest_block_number(self) -> Optional[int]:
        return self.chain.height

    def earliest_block_number(self) -> Optional[int]:
        if self.segmented:
            return self.chain.earliest_number
        return self.chain.blocks[0].number if self.chain.blocks else None

    def get_block(self, number: int) -> Optional[Block]:
        return self.chain.block_by_number(number)

    @fast_path(reference="_linear_iter_blocks", toggle="indexed")
    def iter_blocks(self, from_block: Optional[int] = None,
                    to_block: Optional[int] = None) -> Iterator[Block]:
        """Yield blocks in ``[from_block, to_block]`` (inclusive bounds).

        Empty ranges — ``from_block`` past the tip, or
        ``from_block > to_block`` — yield nothing *without scanning*.
        """
        height = self.chain.height
        if height is None:
            return
        if from_block is not None:
            if from_block > height:
                return
            if to_block is not None and from_block > to_block:
                return
        if self.segmented:
            # Spillable store: the chain's own segment reader resolves
            # the range (manifest bisect + resident tail), since only a
            # bounded window of blocks is in memory at any time.
            yield from self.chain.iter_range(from_block, to_block)
            return
        if not self.indexed:
            yield from self._linear_iter_blocks(from_block, to_block)
            return
        start, stop = self.chain.index.block_positions(from_block,
                                                       to_block)
        yield from self.chain.blocks[start:stop]

    def _linear_iter_blocks(self, from_block: Optional[int],
                            to_block: Optional[int]) -> Iterator[Block]:
        """The historical O(chain) scan, kept as the reference path."""
        for block in self.chain.blocks:
            if from_block is not None and block.number < from_block:
                continue
            if to_block is not None and block.number > to_block:
                break
            yield block

    # Transaction-level queries -----------------------------------------------

    def get_transaction(self, tx_hash: Hash32) -> Optional[Transaction]:
        located = self.chain.locate_transaction(tx_hash)
        if located is None:
            return None
        block, tx_index = located
        return block.transactions[tx_index]

    def get_receipt(self, tx_hash: Hash32) -> Optional[Receipt]:
        located = self.chain.locate_transaction(tx_hash)
        if located is None:
            return None
        block, tx_index = located
        return block.receipts[tx_index]

    # Log queries ---------------------------------------------------------

    @fast_path(reference="_linear_get_logs", toggle="indexed")
    def get_logs(self, event_type: Type[E],
                 from_block: Optional[int] = None,
                 to_block: Optional[int] = None) -> List[E]:
        """All logs of ``event_type`` in the block range, chain order."""
        if self.segmented:
            # O(range) receipt scan through the segment reader: postings
            # tiers assume the full block list is resident, which a
            # spillable chain deliberately is not.
            found: List[E] = []
            for block in self.chain.iter_range(from_block, to_block):
                for receipt in block.receipts:
                    for log in receipt.logs:
                        if isinstance(log, event_type):
                            found.append(log)
            return found
        if not self.indexed:
            return self._linear_get_logs(event_type, from_block,
                                         to_block)
        logs = self.chain.index.logs_in_range(event_type, from_block,
                                              to_block)
        return logs  # type: ignore[return-value]

    def _linear_get_logs(self, event_type: Type[E],
                         from_block: Optional[int],
                         to_block: Optional[int]) -> List[E]:
        """The historical ``isinstance``-filtering scan (reference)."""
        found: List[E] = []
        for block in self._linear_iter_blocks(from_block, to_block):
            for receipt in block.receipts:
                for log in receipt.logs:
                    if isinstance(log, event_type):
                        found.append(log)
        return found

    def iter_receipts(self, from_block: Optional[int] = None,
                      to_block: Optional[int] = None) -> Iterator[Receipt]:
        for block in self.iter_blocks(from_block, to_block):
            yield from block.receipts
