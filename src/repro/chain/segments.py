"""Spillable block storage: fingerprinted, block-addressable segment files.

A :class:`SegmentStore` persists completed epochs of a chain as segment
files under one directory, indexed by a manifest that records each
segment's block range and index fingerprint.  The manifest is a
:class:`~repro.durable.RecordLog`: a format header, then one line per
spill, so a spill costs one appended line however many segments the
store holds, and a re-spilled epoch's last line wins.  A segment file is
a header, a per-block index of ``(number, hash, tx_count, offset,
length)`` entries, and then one frame per block, so a read decodes only
the blocks it asks for.  A frame is a pickle that writes every chain
record positionally, as a call of its record's generated constructor on
its field values (:mod:`repro.chain.frames`); the manifest header names
the schema by its digest next to the format.  :class:`SpillingBlockchain`
is a drop-in :class:`~repro.chain.node.Blockchain` that spills every
completed epoch to the store and evicts old epochs from memory, so a
simulation's peak block residency is O(epoch) rather than O(world).
:class:`SegmentReader` serves ranged reads over the spilled portion
through a bounded LRU of opened segments, found by bisecting the
manifest (never a directory scan).  An opened segment
(:class:`SegmentFile`) holds a file descriptor and its verified index,
and reads and decodes each frame on first touch: opening reads only the
header and the index, and a spot lookup then reads and decodes one frame
rather than an epoch, while a sequential walk reads each run of frames
in one ``os.pread`` and parses each index once.  Reads go by offset
(``pread``), never through a shared file position, so readers inherited
by forked workers stay independent; a segment's descriptor closes when
the reader evicts it, or when the segment is collected.

Integrity follows the fail-closed rule, checked per block.  Before any
frame is used, the sha256 of the index must equal the manifest
fingerprint (which so binds every entry's number, hash, transaction
count, offset and length) and its frames must tile the rest of the file
exactly; every frame read must be as long as its entry says, and every
decoded frame must then match its entry on number, hash and transaction
count.  *Any* anomaly (missing or truncated file, an index that overruns
the file, fingerprint mismatch, a corrupt frame or one that names a
global outside the codec, a malformed manifest line, unknown manifest
format or record schema) raises :class:`SegmentIntegrityError` with a
clear message, and callers respond by re-simulating from scratch
(`SegmentStore.create` wipes the directory first), never by trusting a
partially readable store.  The one exception is a torn last manifest
line, the trace of a crash mid-append: its segment was never
acknowledged, so the line is dropped and the next spill truncates it
away.
"""

from __future__ import annotations

import bisect
import hashlib
import operator
import os
import pickle
import struct
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.chain.frames import SCHEMA_DIGEST, decode_frame, encode_frames
from repro.chain.node import Blockchain
from repro.chain.types import Hash32
from repro.durable import RecordLog, write_atomic

#: On-disk layout version.  Bumped whenever the manifest schema or the
#: segment file layout changes; stores written by other versions are
#: rejected with a clear message, not a pickle error.  Format 3 is the
#: append-only manifest log; format 4 frames pickled the slotted chain
#: records by default; format 5 frames write them positionally
#: (:mod:`repro.chain.frames`), under the record schema the manifest
#: header names by its digest; format 6 frames name each record's own
#: constructor, and the manifest fingerprint is the sha256 of the
#: packed index, so opening a segment reads its header and index only.
SEGMENT_FORMAT = 6

#: The manifest's header line: the layout version and the digest of the
#: record schema the frames were written under.  A store with any other
#: header is refused.
MANIFEST_HEADER = {"format": SEGMENT_FORMAT, "schema": SCHEMA_DIGEST}

MANIFEST_NAME = "manifest.log"
#: The whole-document manifest of formats 1 and 2.
_OLD_MANIFEST_NAME = "manifest.json"

#: Segment file header: magic, format, number of index entries.
_HEADER = struct.Struct(">4sHI")
_MAGIC = b"RSEG"
#: One index entry per block: number, hash (``hash_of``'s 0x-prefixed
#: hex, stored as its 32 raw bytes), transaction count, and the
#: absolute offset and length of the block's frame.
_ENTRY = struct.Struct(">Q32sIQQ")

#: What unpickling a damaged frame can raise.
_DECODE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                  ImportError, IndexError, KeyError, TypeError,
                  ValueError)

#: One unpacked index entry: (number, raw 32-byte hash, tx_count,
#: offset, length).
IndexEntry = Tuple[int, bytes, int, int, int]

_epoch_of = operator.attrgetter("epoch")


class SegmentIntegrityError(RuntimeError):
    """A segment store is unreadable, inconsistent, or wrong-format.

    Callers must treat this as "the cache does not exist": wipe and
    re-simulate, never trust partial contents.
    """


class _Manifest(RecordLog):
    """The store's manifest log: one :class:`SegmentInfo` per line."""

    error = SegmentIntegrityError
    remedy = " — delete the store and re-simulate"


def _materialize_hashes(blocks: Sequence[Block]) -> None:
    """Force every lazily cached hash before a block run is pickled.

    Block and transaction hashes are computed on first access and
    cached on the instance, so pickle bytes depend on *when* a run is
    serialized.  Forcing them first makes the segment file a pure
    function of content — the overlap-on and overlap-off write paths
    (and any two runs of either) produce byte-identical files.
    """
    for block in blocks:
        block.hash
        for tx in block.transactions:
            tx.hash


def _encode_segment(blocks: Sequence[Block]) -> Tuple[bytes, str]:
    """Segment file bytes (header, index, one frame per block) and the
    segment's manifest fingerprint, the sha256 of its index."""
    frames = encode_frames(blocks)
    index = bytearray()
    offset = _HEADER.size + _ENTRY.size * len(blocks)
    for block, frame in zip(blocks, frames):
        index += _ENTRY.pack(block.number, bytes.fromhex(block.hash[2:]),
                             len(block.transactions), offset, len(frame))
        offset += len(frame)
    header = _HEADER.pack(_MAGIC, SEGMENT_FORMAT, len(blocks))
    return (b"".join([header, index, *frames]),
            hashlib.sha256(index).hexdigest())


@dataclass(frozen=True)
class SegmentInfo:
    """Manifest entry: one spilled epoch's location and identity."""

    epoch: int
    first_block: int
    last_block: int
    filename: str
    fingerprint: str
    tx_count: int


def _verified_index(info: SegmentInfo, fd: int) -> List[IndexEntry]:
    """Read a segment file's header and index and check them before any
    frame is used: the index must list exactly the manifest's blocks,
    its sha256 must be the manifest fingerprint, and its frames must
    tile the rest of the file (as long as ``fstat`` says) with nothing
    missing or left over."""
    name = info.filename
    size = os.fstat(fd).st_size
    expected = info.last_block - info.first_block + 1
    # One read covers the header and the index the manifest expects.
    head = os.pread(fd, _HEADER.size + _ENTRY.size * expected, 0)
    if len(head) < _HEADER.size:
        raise SegmentIntegrityError(
            f"segment {name} is truncated (no header); re-simulate "
            f"from scratch")
    magic, version, count = _HEADER.unpack_from(head)
    if magic != _MAGIC or version != SEGMENT_FORMAT:
        raise SegmentIntegrityError(
            f"segment {name} is not a format-{SEGMENT_FORMAT} segment "
            f"file; re-simulate from scratch")
    end = _HEADER.size + _ENTRY.size * count
    if end > size:
        raise SegmentIntegrityError(
            f"segment {name} index of {count} entries overruns the "
            f"file ({size} bytes); re-simulate from scratch")
    if count != expected:
        raise SegmentIntegrityError(
            f"segment {name} is truncated or malformed: expected "
            f"{expected} blocks, its index lists {count}")
    index = memoryview(head)[_HEADER.size:end]
    if hashlib.sha256(index).hexdigest() != info.fingerprint:
        raise SegmentIntegrityError(
            f"segment {name} fingerprint mismatch; re-simulate from "
            f"scratch")
    entries = list(_ENTRY.iter_unpack(index))
    for number, _, _, offset, length in entries:
        if offset != end:
            raise SegmentIntegrityError(
                f"segment {name} frame of block {number} is misplaced "
                f"(offset {offset}, expected {end}); re-simulate from "
                f"scratch")
        end = offset + length
    if end != size:
        raise SegmentIntegrityError(
            f"segment {name} is truncated or malformed: its frames end "
            f"at byte {end} of {size}; re-simulate from scratch")
    return entries


class SegmentFile:
    """One opened segment: a descriptor and its verified index, frames
    read and decoded on first touch.

    :meth:`SegmentStore.open_segment` builds it only after the index
    passed :func:`_verified_index`.  :meth:`read` is the one read
    primitive over a block range: it reads each run of frames the range
    needs but does not hold yet in one ``pread``, decodes them, checks
    each against its index entry, and keeps them, so re-reading a block
    reads and decodes nothing.  :meth:`close` releases the descriptor;
    a segment that is collected first closes it then.
    """

    def __init__(self, info: SegmentInfo, entries: List[IndexEntry],
                 fd: Optional[int]) -> None:
        self.info = info
        self._entries = entries
        self._fd = fd
        self._blocks: List[Optional[Block]] = [None] * len(entries)
        #: closes the descriptor once, on :meth:`close` or collection
        self._closer = None if fd is None \
            else weakref.finalize(self, os.close, fd)

    @classmethod
    def decoded(cls, info: SegmentInfo,
                blocks: List[Block]) -> "SegmentFile":
        """A segment whose blocks are already in memory (an epoch still
        queued behind the background writer)."""
        segment = cls(info, [], None)
        segment._blocks = list(blocks)
        return segment

    def close(self) -> None:
        """Release the descriptor (a no-op after the first call)."""
        if self._closer is not None:
            self._closer()

    def read(self, low: Optional[int] = None,
             high: Optional[int] = None) -> List[Block]:
        """Blocks ``[low, high]`` of this segment (default: all)."""
        first = self.info.first_block
        start = 0 if low is None else low - first
        stop = len(self._blocks) if high is None else high - first + 1
        blocks = self._blocks
        index = start
        while index < stop:
            if blocks[index] is None:
                run_end = index + 1
                while run_end < stop and blocks[run_end] is None:
                    run_end += 1
                self._load(index, run_end)
                index = run_end
            index += 1
        return blocks[start:stop]

    def _load(self, start: int, stop: int) -> None:
        """Read frames ``[start, stop)`` in one ``pread`` and decode
        them."""
        entries = self._entries
        name = self.info.filename
        if not self._closer.alive:
            raise ValueError(f"segment {name} is closed")
        base = entries[start][3]
        _, _, _, last_offset, last_length = entries[stop - 1]
        size = last_offset + last_length - base
        try:
            data = memoryview(os.pread(self._fd, size, base))
        except OSError as exc:
            raise SegmentIntegrityError(
                f"segment {name} is unreadable ({exc}); re-simulate "
                f"from scratch")
        if len(data) != size:
            raise SegmentIntegrityError(
                f"segment {name} is truncated: the frames of blocks "
                f"{entries[start][0]}..{entries[stop - 1][0]} end past "
                f"byte {base + len(data)}; re-simulate from scratch")
        blocks = self._blocks
        for index in range(start, stop):
            number, raw_hash, tx_count, offset, length = entries[index]
            offset -= base
            try:
                block = decode_frame(data[offset:offset + length])
            except _DECODE_ERRORS as exc:
                raise SegmentIntegrityError(
                    f"segment {name} frame of block {number} is "
                    f"unreadable ({exc}); re-simulate from scratch")
            if not isinstance(block, Block) or block.number != number \
                    or block.hash != "0x" + raw_hash.hex() \
                    or len(block.transactions) != tx_count:
                raise SegmentIntegrityError(
                    f"segment {name} frame of block {number} does not "
                    f"match its index entry; re-simulate from scratch")
            blocks[index] = block


class SegmentStore:
    """Directory of fingerprinted per-epoch segment files + manifest.

    Opening an existing directory replays the manifest log and raises
    :class:`SegmentIntegrityError` on any anomaly — including a
    whole-document ``manifest.json`` written by an older repro.  Use
    :meth:`create` to start fresh, wiping whatever store was there.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        #: background writer for overlapped spill I/O (None = synchronous)
        self._writer = None
        #: epochs whose segment file is still being written in the
        #: background; reads of these epochs are served from memory.
        self._in_flight: Dict[int, List[Block]] = {}
        if os.path.exists(os.path.join(root, _OLD_MANIFEST_NAME)):
            raise SegmentIntegrityError(
                f"segment store at {root} keeps a whole-document "
                f"{_OLD_MANIFEST_NAME}: it was written by an older repro "
                f"(format 2 or older); this repro reads format "
                f"{SEGMENT_FORMAT} — delete the store and re-simulate")
        self._manifest = _Manifest(os.path.join(root, MANIFEST_NAME))
        fresh = not self._manifest.exists()
        if fresh and os.path.isdir(root) and os.listdir(root):
            raise SegmentIntegrityError(
                f"{root} is not a segment store (no manifest); "
                f"refusing to adopt a non-empty directory — wipe it "
                f"or use SegmentStore.create()")
        os.makedirs(root, exist_ok=True)
        records = self._manifest.open(MANIFEST_HEADER, "epoch", resume=True)
        if fresh:
            self._manifest.start()
        try:
            infos = [SegmentInfo(**record) for record in records.values()]
        except TypeError as exc:
            raise SegmentIntegrityError(
                f"segment manifest in {root} is malformed ({exc})")
        infos.sort(key=_epoch_of)
        #: manifest entries ordered by epoch, and their first blocks —
        #: kept in step on open and write so lookups bisect them as is.
        self._segments: List[SegmentInfo] = infos
        self._starts: List[int] = [info.first_block for info in infos]
        self._by_epoch: Dict[int, SegmentInfo] = {
            info.epoch: info for info in infos}

    @classmethod
    def create(cls, root: str) -> "SegmentStore":
        """Initialize a fresh store at ``root``, wiping any prior one."""
        os.makedirs(root, exist_ok=True)
        for name in os.listdir(root):
            if name in (MANIFEST_NAME, _OLD_MANIFEST_NAME) \
                    or name.endswith(".pkl") or name.endswith(".tmp"):
                os.remove(os.path.join(root, name))
        return cls(root)

    # Manifest ------------------------------------------------------------

    @property
    def segments(self) -> List[SegmentInfo]:
        """Manifest entries, ordered by epoch (a copy)."""
        return list(self._segments)

    @property
    def first_block(self) -> Optional[int]:
        """First spilled block, or None while nothing is spilled."""
        return self._starts[0] if self._starts else None

    def segment_for_block(self, number: int) -> Optional[SegmentInfo]:
        """The segment containing ``number``, via manifest bisect."""
        index = bisect.bisect_right(self._starts, number) - 1
        if index < 0:
            return None
        info = self._segments[index]
        if number <= info.last_block:
            return info
        return None

    def overlapping(self, low: Optional[int],
                    high: Optional[int]) -> Iterator[SegmentInfo]:
        """Manifest entries overlapping ``[low, high]`` (None = open),
        in order: bisects to the first one, then walks only the
        overlap."""
        segments = self._segments
        index = 0 if low is None else \
            max(0, bisect.bisect_right(self._starts, low) - 1)
        while index < len(segments):
            info = segments[index]
            if high is not None and info.first_block > high:
                return
            if low is None or info.last_block >= low:
                yield info
            index += 1

    def _record(self, info: SegmentInfo) -> None:
        """Insert or replace ``info`` in the ordered manifest state by
        bisect (a spill past the last epoch is an append)."""
        segments = self._segments
        index = bisect.bisect_left(segments, info.epoch, key=_epoch_of)
        if index < len(segments) and segments[index].epoch == info.epoch:
            segments[index] = info
            self._starts[index] = info.first_block
        else:
            segments.insert(index, info)
            self._starts.insert(index, info.first_block)
        self._by_epoch[info.epoch] = info

    # Overlapped writes ----------------------------------------------------

    def attach_writer(self, writer) -> None:
        """Route subsequent segment writes through a
        :class:`~repro.sim.overlap.BackgroundWriter`.

        Each write then happens off the simulation thread: the worker
        writes the segment file durably and only then appends its
        manifest line, in submission order — so the manifest only ever
        names fully durable segment files, and a crash loses at most
        the still-queued tail.  Detach by passing
        ``None`` (pending writes must be flushed first by the caller).
        """
        self._writer = writer

    def flush(self) -> None:
        """Block until every queued segment write is durable on disk."""
        if self._writer is not None:
            self._writer.flush()

    @property
    def in_flight_epochs(self) -> List[int]:
        """Epochs queued but not yet durable (test/assertion hook)."""
        return sorted(self._in_flight)

    # Segment I/O ---------------------------------------------------------

    def write_segment(self, epoch: int,
                      blocks: Sequence[Block]) -> SegmentInfo:
        """Spill one epoch's blocks: a durable file write, then one
        appended manifest line.

        With a writer attached (:meth:`attach_writer`) the file write,
        the append and their fsyncs happen on the background thread and
        this call returns as soon as the job is queued; jobs complete
        in order, so the log's lines land in the same order, and with
        the same bytes, as on the synchronous path.  The encoding
        itself stays on the calling thread: it holds the GIL either way
        (offloading it buys nothing), and serializing *now* snapshots
        the blocks before the simulation mutates anything they
        reference — which, with the hashes forced first, makes the file
        bytes a pure function of block content, identical to the
        synchronous path.  It is also where a block holding an object
        outside the frame schema fails (:class:`pickle.PicklingError`),
        before anything is recorded, written or queued.
        """
        blocks = list(blocks)
        if not blocks:
            raise ValueError("cannot write an empty segment")
        for prev, cur in zip(blocks, blocks[1:]):
            if cur.number != prev.number + 1:
                raise ValueError(
                    f"segment blocks must be contiguous: {prev.number} "
                    f"followed by {cur.number}")
        filename = f"seg-{epoch:06d}.pkl"
        path = os.path.join(self.root, filename)
        _materialize_hashes(blocks)
        payload, fingerprint = _encode_segment(blocks)
        info = SegmentInfo(
            epoch=epoch, first_block=blocks[0].number,
            last_block=blocks[-1].number, filename=filename,
            fingerprint=fingerprint,
            tx_count=sum(len(b.transactions) for b in blocks))
        self._record(info)
        record = asdict(info)
        if self._writer is None:
            write_atomic(path, payload)
            self._manifest.append(record)
            return info
        self._in_flight[epoch] = blocks

        def job() -> None:
            write_atomic(path, payload)
            self._manifest.append(record)
            self._in_flight.pop(epoch, None)

        # BackgroundWriter.submit hands the closure to a same-process
        # thread — it is never pickled into a worker.
        self._writer.submit(f"segment epoch {epoch}", job)  # repro-lint: disable=R103
        return info

    def open_segment(self, epoch: int) -> SegmentFile:
        """Open one spilled epoch for block-granular reads.

        Epochs still queued behind the background writer are served
        straight from memory (they have no durable file yet).  For
        on-disk epochs the file is opened and only its header and index
        are read and verified (:func:`_verified_index`); frames are
        read later, by :meth:`SegmentFile.read`.  The caller owns the
        returned segment's descriptor (:meth:`SegmentFile.close`).
        Raises :class:`SegmentIntegrityError` on any anomaly: unknown
        epoch, missing or unreadable file, or an index that does not
        match the manifest or the file.
        """
        info = self._by_epoch.get(epoch)
        if info is None:
            raise SegmentIntegrityError(
                f"no segment for epoch {epoch} in {self.root}")
        pending = self._in_flight.get(epoch)
        if pending is not None:
            return SegmentFile.decoded(info, pending)
        path = os.path.join(self.root, info.filename)
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                return SegmentFile(info, _verified_index(info, fd), fd)
            except BaseException:
                os.close(fd)
                raise
        except OSError as exc:
            raise SegmentIntegrityError(
                f"segment {info.filename} is unreadable ({exc}); "
                f"re-simulate from scratch")

    def load_segment(self, epoch: int) -> List[Block]:
        """Load and verify one whole spilled epoch: the whole-range
        :meth:`SegmentFile.read` of :meth:`open_segment` (one read of
        all its frames, each decoded and checked against the verified
        index), its descriptor closed before returning."""
        segment = self.open_segment(epoch)
        try:
            return segment.read()
        finally:
            segment.close()

    # Sidecar files --------------------------------------------------------
    #
    # Epoch seals ride alongside the segments as ``seal-NNNNNN.pkl``
    # sidecar files: durable (written by ``write_atomic``) but not
    # manifest-indexed — a seal is an optimization for resume, never a
    # source of truth, so a missing or stale sidecar only costs a
    # re-simulation.

    def write_sidecar(self, name: str, obj: object) -> str:
        """Durably write a pickled sidecar (seal spool); the write and
        fsyncs are overlapped when a writer is attached, the pickle is
        taken now (same snapshot discipline as :meth:`write_segment`)."""
        path = os.path.join(self.root, name)
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if self._writer is None:
            write_atomic(path, payload)
            return path
        # Same-process thread queue; the lambda is never pickled.
        self._writer.submit(f"sidecar {name}",  # repro-lint: disable=R103
                            lambda: write_atomic(path, payload))
        return path

    def load_sidecar(self, name: str) -> object:
        """Load a sidecar written by :meth:`write_sidecar`.

        Callers must :meth:`flush` first if a writer is attached.
        Raises :class:`SegmentIntegrityError` on any anomaly.
        """
        path = os.path.join(self.root, name)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError) as exc:
            raise SegmentIntegrityError(
                f"sidecar {name} is unreadable ({exc}); "
                f"re-simulate from scratch")


class SegmentReader:
    """Ranged reads over a store's spilled blocks.

    Keeps at most ``max_resident`` opened segments in memory (LRU),
    closing each one it evicts, resolves ranges by bisecting the
    manifest, and reads and decodes only the blocks a read covers
    (:meth:`SegmentFile.read`).  The in-memory
    chain the blocks were spilled from is the reference its reads must
    match element for element.
    """

    def __init__(self, store: SegmentStore,
                 max_resident: int = 2) -> None:
        if max_resident <= 0:
            raise ValueError("max_resident must be positive")
        self.store = store
        self.max_resident = max_resident
        self._resident: "OrderedDict[int, SegmentFile]" = OrderedDict()

    @property
    def resident_epochs(self) -> List[int]:
        """Epochs currently held in memory (test/assertion hook)."""
        return list(self._resident)

    def _open(self, epoch: int) -> SegmentFile:
        segment = self._resident.get(epoch)
        if segment is not None:
            self._resident.move_to_end(epoch)
            return segment
        segment = self.store.open_segment(epoch)
        self._resident[epoch] = segment
        while len(self._resident) > self.max_resident:
            self._resident.popitem(last=False)[1].close()
        return segment

    def block(self, number: int) -> Optional[Block]:
        info = self.store.segment_for_block(number)
        if info is None:
            return None
        return self._open(info.epoch).read(number, number)[0]

    def iter_range(self, from_block: Optional[int] = None,
                   to_block: Optional[int] = None) -> Iterator[Block]:
        """Yield spilled blocks in ``[from_block, to_block]`` in order.

        Bisects the manifest to the first overlapping segment, opens
        only overlapping segments (through the LRU) and decodes only
        the blocks in range, so a narrow range costs O(range) frames
        regardless of epoch or store size.
        """
        if from_block is not None and to_block is not None \
                and from_block > to_block:
            return
        for info in self.store.overlapping(from_block, to_block):
            low = info.first_block if from_block is None \
                else max(from_block, info.first_block)
            high = info.last_block if to_block is None \
                else min(to_block, info.last_block)
            yield from self._open(info.epoch).read(low, high)


class SpillingBlockchain(Blockchain):
    """A :class:`Blockchain` that spills completed epochs to disk.

    Appends behave exactly like the in-memory chain (same linkage
    validation, same ``height``), but whenever a block completes an
    epoch the epoch is written to the segment store and every resident
    epoch older than ``max_resident_epochs`` is evicted — peak block
    residency is bounded by ``(max_resident_epochs + 1) * epoch_blocks``
    (retained tail plus the in-progress epoch).  Reads below the
    resident window route through a :class:`SegmentReader`.
    """

    def __init__(self, store: SegmentStore, epoch_blocks: int,
                 first_block: int = 1,
                 max_resident_epochs: int = 2) -> None:
        if epoch_blocks <= 0:
            raise ValueError("epoch_blocks must be positive")
        if max_resident_epochs <= 0:
            raise ValueError("max_resident_epochs must be positive")
        super().__init__()
        self.store = store
        self.epoch_blocks = epoch_blocks
        self.first_block = first_block
        self.max_resident_epochs = max_resident_epochs
        self.reader = SegmentReader(store,
                                    max_resident=max_resident_epochs)

    def flush(self) -> None:
        """Drain any overlapped spill writes to durable storage."""
        self.store.flush()

    @property
    def earliest_number(self) -> Optional[int]:
        """First block the chain has ever stored (spilled or resident)."""
        first = self.store.first_block
        if first is not None:
            return first
        return super().earliest_number

    def append(self, block: Block) -> None:
        super().append(block)
        if block.number % self.epoch_blocks != 0:
            return
        epoch = (block.number - 1) // self.epoch_blocks
        first = block.number - self.epoch_blocks + 1
        start = self.blocks[0].number
        # A restored world may begin mid-epoch; spill whatever portion
        # of the completed epoch this chain actually holds.
        lo = max(first, start)
        self.store.write_segment(
            epoch, self.blocks[lo - start:block.number - start + 1])
        cut = (epoch - self.max_resident_epochs + 1) * self.epoch_blocks
        keep_from = cut + 1
        offset = keep_from - start
        if offset <= 0:
            return
        for evicted in self.blocks[:offset]:
            for tx in evicted.transactions:
                self._tx_index.pop(tx.hash, None)
        del self.blocks[:offset]

    def block_by_number(self, number: int) -> Optional[Block]:
        block = super().block_by_number(number)
        if block is not None:
            return block
        return self.reader.block(number)

    def locate_transaction(self, tx_hash: Hash32,
                           ) -> Optional[Tuple[Block, int]]:
        """Resident-first; falls back to scanning spilled segments
        (newest first, through the reader's LRU).  The fallback is
        O(world) worst case — acceptable for the ground-truth scoring
        paths that use it, never on the per-block hot path."""
        located = super().locate_transaction(tx_hash)
        if located is not None:
            return located
        for info in reversed(self.store.segments):
            if self.blocks and info.first_block >= self.blocks[0].number:
                continue
            for tx_index_block in self.reader.iter_range(
                    info.first_block, info.last_block):
                for position, tx in enumerate(
                        tx_index_block.transactions):
                    if tx.hash == tx_hash:
                        return tx_index_block, position
        return None

    def iter_range(self, from_block: Optional[int] = None,
                   to_block: Optional[int] = None) -> Iterator[Block]:
        """All blocks in ``[from_block, to_block]``: spilled portion via
        the segment reader, then the resident tail."""
        resident_start = self.blocks[0].number if self.blocks else None
        if resident_start is None or \
                (from_block is None or from_block < resident_start):
            spill_hi = resident_start - 1 \
                if resident_start is not None else to_block
            if to_block is not None and \
                    (spill_hi is None or to_block < spill_hi):
                spill_hi = to_block
            yield from self.reader.iter_range(from_block, spill_hi)
        yield from super().iter_range(from_block, to_block)
