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
        blocks are dropped.  Rolling back to at-or-above the tip
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
        return removed

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def height(self) -> Optional[int]:
        return self.blocks[-1].number if self.blocks else None

    @property
    def earliest_number(self) -> Optional[int]:
        """First block the chain stores."""
        return self.blocks[0].number if self.blocks else None

    def iter_range(self, from_block: Optional[int] = None,
                   to_block: Optional[int] = None) -> Iterator[Block]:
        """The blocks in ``[from_block, to_block]``, ascending: one
        offset slice, since :meth:`append` keeps numbers contiguous.
        Both bounds are clamped to the stored blocks first, so a bound
        outside them never wraps the slice."""
        if not self.blocks:
            return iter(())
        start = self.blocks[0].number
        low = start if from_block is None else max(from_block, start)
        high = self.blocks[-1].number if to_block is None \
            else min(to_block, self.blocks[-1].number)
        if low > high:
            return iter(())
        return iter(self.blocks[low - start:high - start + 1])

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

    Ranged queries read the chain's own :meth:`~Blockchain.iter_range`:
    an offset slice of an in-memory chain, or the segment reader plus
    the resident tail of a spillable one.  ``indexed=False`` keeps the
    historical linear scan of ``iter_blocks``, preserved as a reference
    (benchmark baselines and equivalence tests compare the two paths
    element for element).
    """

    def __init__(self, chain: Blockchain, indexed: bool = True) -> None:
        self.chain = chain
        self.indexed = indexed

    # Block-level queries -----------------------------------------------------

    def latest_block_number(self) -> Optional[int]:
        return self.chain.height

    def earliest_block_number(self) -> Optional[int]:
        return self.chain.earliest_number

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
        if not self.indexed:
            yield from self._linear_iter_blocks(from_block, to_block)
            return
        yield from self.chain.iter_range(from_block, to_block)

    def _linear_iter_blocks(self, from_block: Optional[int],
                            to_block: Optional[int]) -> Iterator[Block]:
        """The historical O(chain) scan from the first stored block,
        kept as the reference path."""
        for block in self.chain.iter_range():
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

    def get_logs(self, event_type: Type[E],
                 from_block: Optional[int] = None,
                 to_block: Optional[int] = None) -> List[E]:
        """All logs of ``event_type`` in the block range, chain order."""
        return [log for block in self.iter_blocks(from_block, to_block)
                for receipt in block.receipts
                for log in receipt.logs
                if isinstance(log, event_type)]

    def iter_receipts(self, from_block: Optional[int] = None,
                      to_block: Optional[int] = None) -> Iterator[Receipt]:
        for block in self.iter_blocks(from_block, to_block):
            yield from block.receipts
