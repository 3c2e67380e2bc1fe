"""The positional frame codec of segment files, and its contract.

Every chain record round-trips through a frame to an equal record; the
schema digest is the same in every process; a block holding anything
outside the schema is refused before a byte of its segment is written;
a frame naming any global but a record's generated constructor, and a
store written under another format or schema, are refused on read.
"""

import dataclasses
import importlib
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.chain.frames as frames_module
from repro.chain.block import Block
from repro.chain.events import (
    BorrowEvent,
    EventLog,
    FlashLoanEvent,
    LiquidationEvent,
    OracleUpdateEvent,
    SwapEvent,
    SyncEvent,
    TransferEvent,
)
from repro.chain.frames import (
    RECORDS,
    SCHEMA_DIGEST,
    _digest,
    decode_frame,
    encode_frames,
)
from repro.chain.intents import (
    CoinbaseTipIntent,
    FailingIntent,
    SequenceIntent,
    TokenTransferIntent,
)
from repro.chain.receipt import Receipt
from repro.chain.segments import (
    MANIFEST_NAME,
    SEGMENT_FORMAT,
    SegmentIntegrityError,
    SegmentReader,
    SegmentStore,
)
from repro.chain.transaction import EIP1559, Transaction, TxIntent
from repro.chain.types import address_from_label
from repro.dex.router import ArbitrageIntent, SwapAllIntent, SwapIntent
from repro.lending.flashloan import FlashLoanIntent
from repro.lending.oracle import OracleUpdateIntent
from repro.lending.pool import BorrowIntent, LiquidationIntent
from repro.sim.overlap import BackgroundWriter
from tests.chain.test_segments import (
    build_blocks,
    filled_store,
    replace_frame,
    write_manifest,
)

POOL = address_from_label("frames-pool")
TRADER = address_from_label("frames-trader")
SRC = Path(repro.__file__).resolve().parent.parent


def stamped(event):
    event.stamp(7, "0x0a", 1, 3)
    return event


def events():
    return [
        stamped(EventLog(address=POOL)),
        stamped(TransferEvent(address=POOL, token="DAI", sender=TRADER,
                              recipient=POOL, amount=5)),
        stamped(SwapEvent(address=POOL, venue="UniswapV2", taker=TRADER,
                          recipient=TRADER, token_in="WETH",
                          token_out="DAI", amount_in=10, amount_out=20)),
        SyncEvent(address=POOL, token0="DAI", token1="WETH", reserve0=1,
                  reserve1=2),
        stamped(LiquidationEvent(
            address=POOL, platform="Aave", liquidator=TRADER,
            borrower=POOL, debt_token="DAI", debt_repaid=3,
            collateral_token="WETH", collateral_seized=4)),
        stamped(FlashLoanEvent(address=POOL, platform="dYdX",
                               initiator=TRADER, token="WETH", amount=9,
                               fee=1)),
        stamped(BorrowEvent(address=POOL, platform="Compound",
                            borrower=TRADER, debt_token="DAI", amount=8,
                            collateral_token="WETH",
                            collateral_amount=12)),
        stamped(OracleUpdateEvent(address=POOL, token="WETH",
                                  price_wei=3 * 10**18)),
    ]


def intents():
    sequence = SequenceIntent([
        SwapAllIntent(POOL, "WETH", min_amount_out=2),
        CoinbaseTipIntent(tip=7),
    ])
    return [
        TokenTransferIntent("DAI", TRADER, 4),
        CoinbaseTipIntent(tip=1, base_gas=30_000),
        FailingIntent(reason="boom"),
        SwapIntent(POOL, "WETH", 10, min_amount_out=3, recipient=TRADER,
                   coinbase_tip=2),
        ArbitrageIntent([POOL, TRADER], "WETH", 10, min_profit=2),
        BorrowIntent(POOL, "WETH", 10, "DAI", 5),
        LiquidationIntent(POOL, loan_id=3, repay_amount=6, coinbase_tip=1),
        OracleUpdateIntent(POOL, "WETH", 2 * 10**18),
        sequence,
        FlashLoanIntent(POOL, "WETH", 100, inner=sequence),
        FlashLoanIntent(POOL, "DAI", 50),
    ]


def block_of_every_record():
    """One block holding at least one instance of every schema record."""
    txs = [Transaction(sender=TRADER, nonce=n, to=POOL, gas_price=n + 1,
                       intent=intent, meta={"role": "test", "n": n,
                                            "pair": ("WETH", "DAI")})
           for n, intent in enumerate(intents())]
    txs.append(Transaction(sender=POOL, nonce=0, tx_type=EIP1559,
                           max_fee_per_gas=9, max_priority_fee_per_gas=2,
                           first_seen_block=4))
    logs = events()
    receipts = [Receipt(tx_hash=tx.hash, block_number=7, tx_index=index,
                        sender=tx.sender, to=tx.to, status=index != 2,
                        gas_used=21_000, effective_gas_price=3,
                        miner_tip_per_gas=1, coinbase_transfer=index,
                        logs=logs if index == 0 else [],
                        error=None if index != 2 else "boom")
                for index, tx in enumerate(txs)]
    block = Block(number=7, timestamp=91, miner=TRADER, base_fee=1,
                  gas_limit=30_000_000, transactions=txs,
                  receipts=receipts, gas_used=21_000 * len(txs),
                  parent_hash="0x" + "ab" * 32)
    block.hash
    return block


def records_in(obj, seen=None):
    """Every schema record reachable from ``obj``, by identity."""
    seen = {} if seen is None else seen
    if isinstance(obj, (list, tuple)):
        for item in obj:
            records_in(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            records_in(item, seen)
    elif dataclasses.is_dataclass(obj) and id(obj) not in seen:
        seen[id(obj)] = obj
        for field in dataclasses.fields(obj):
            records_in(getattr(obj, field.name), seen)
    return list(seen.values())


def state(obj):
    """A record's type and every field value, nested records included
    (``Transaction.__eq__`` compares hashes only)."""
    if isinstance(obj, list):
        return [state(item) for item in obj]
    if dataclasses.is_dataclass(obj):
        return (type(obj), tuple(state(getattr(obj, field.name))
                                 for field in dataclasses.fields(obj)))
    return obj


class TestRoundTrip:
    def test_block_holds_every_record(self):
        kinds = {type(record)
                 for record in records_in(block_of_every_record())}
        assert kinds == set(RECORDS)

    def test_every_record_round_trips_equal(self):
        block = block_of_every_record()
        [frame] = encode_frames([block])
        decoded = decode_frame(frame)
        assert decoded == block
        assert state(decoded) == state(block)
        assert decoded.hash == block.hash
        assert decoded.tx_hashes == block.tx_hashes

    @pytest.mark.parametrize("record", intents() + events(),
                             ids=lambda record: type(record).__name__)
    def test_each_record_alone(self, record):
        [frame] = encode_frames([record])
        assert state(decode_frame(frame)) == state(record)

    def test_single_field_record_keeps_its_value(self):
        """``SequenceIntent`` has one field: its value is a list, not a
        list to spread over several fields."""
        inner = SequenceIntent([CoinbaseTipIntent(tip=1)])
        flash = FlashLoanIntent(POOL, "WETH", 5, inner=inner)
        decoded = decode_frame(encode_frames([flash])[0])
        assert type(decoded.inner) is SequenceIntent
        assert decoded.inner.intents == [CoinbaseTipIntent(tip=1)]

    def test_shared_objects_stay_shared_within_a_frame(self):
        block = block_of_every_record()
        decoded = decode_frame(encode_frames([block])[0])
        sequence = decoded.transactions[8].intent
        assert decoded.transactions[9].intent.inner is sequence

    def test_frames_decode_alone_and_reencode_identically(self):
        blocks = build_blocks(4)
        frames = encode_frames(blocks)
        assert encode_frames([decode_frame(frames[2])]) == [frames[2]]
        assert [decode_frame(frame).hash for frame in frames] == \
            [block.hash for block in blocks]


class TestSchema:
    def test_every_event_and_intent_class_is_a_record(self):
        """Every ``EventLog`` and ``TxIntent`` dataclass the package
        defines is in the schema (and nothing else is)."""
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)

        def family(base):
            found, stack = set(), [base]
            while stack:
                cls = stack.pop()
                if dataclasses.is_dataclass(cls) and \
                        cls.__module__.startswith("repro."):
                    found.add(cls)
                stack.extend(cls.__subclasses__())
            return found

        assert set(RECORDS) == family(EventLog) | family(TxIntent) | {
            Block, Transaction, Receipt}
        assert len(RECORDS) == len(set(RECORDS))

    def test_digest_is_the_same_in_every_process(self):
        """Same digest whatever the hash seed or what was imported
        first."""
        imports = ["import repro.lending",
                   "import repro.chain.segments",
                   "import repro.dex.router"]
        digests = set()
        for seed, first in zip(("0", "1", "12345"), imports):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(SRC))
            out = subprocess.run(
                [sys.executable, "-c",
                 f"{first}\nfrom repro.chain.frames import SCHEMA_DIGEST\n"
                 f"print(SCHEMA_DIGEST)"],
                env=env, capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert digests == {SCHEMA_DIGEST}

    def test_digest_covers_field_names(self):
        @dataclasses.dataclass(slots=True)
        class Record:
            amount: int

        @dataclasses.dataclass(slots=True)
        class Renamed:
            value: int

        Renamed.__qualname__ = Record.__qualname__
        assert _digest([Record]) != _digest([Renamed])
        assert _digest(RECORDS) == SCHEMA_DIGEST


class Unknown(TxIntent):
    """An intent outside the schema (a subclass of no record)."""

    __slots__ = ()


@pytest.fixture(params=["meta", "intent"])
def poisoned(request):
    """Three blocks, the middle one holding an object outside the
    schema: in a transaction's open meta dict, or as its intent."""
    blocks = build_blocks(3)
    tx = blocks[1].transactions[0]
    if request.param == "meta":
        tx.meta["handle"] = object()
    else:
        tx.intent = Unknown()
    return blocks


class TestWriteFailsClosed:
    def test_encoder_refuses_unknown_objects(self, poisoned):
        with pytest.raises(pickle.PicklingError,
                           match="is not a block-frame record"):
            encode_frames(poisoned)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_spill_writes_nothing(self, tmp_path, poisoned, overlap):
        root = tmp_path / "segs"
        store = SegmentStore.create(str(root))
        writer = BackgroundWriter() if overlap else None
        store.attach_writer(writer)
        try:
            with pytest.raises(pickle.PicklingError):
                store.write_segment(0, poisoned)
            assert store.in_flight_epochs == []
            store.flush()
        finally:
            if writer is not None:
                writer.close()
        assert store.segments == []
        assert sorted(os.listdir(root)) == [MANIFEST_NAME]
        assert len((root / MANIFEST_NAME).read_text().splitlines()) == 1
        assert SegmentStore(str(root)).segments == []


class TestReadFailsClosed:
    def test_decoder_refuses_default_pickles(self):
        frame = pickle.dumps(build_blocks(1)[0],
                             protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(pickle.UnpicklingError,
                           match="repro.chain.block.Block"):
            decode_frame(frame)

    def test_default_pickled_frame_in_a_segment_is_unreadable(self,
                                                              tmp_path):
        store, blocks = filled_store(tmp_path)
        store = replace_frame(store, 1, 1, pickle.dumps(
            blocks[4], protocol=pickle.HIGHEST_PROTOCOL))
        for read in (lambda: SegmentReader(store).block(5),
                     lambda: store.load_segment(1)):
            with pytest.raises(SegmentIntegrityError,
                               match="block 5 is unreadable"):
                read()
        assert SegmentReader(store).block(4) == blocks[3]

    def test_frame_naming_a_constructor_outside_the_schema_is_unreadable(
            self, tmp_path, monkeypatch):
        """A frame whose block is built by a global in the constructors'
        namespace that is not a record's constructor: only the names the
        codec generated are admitted, whatever the namespace holds."""
        store, blocks = filled_store(tmp_path)

        def forged(*values):
            return blocks[4]

        forged.__module__ = frames_module.__name__
        forged.__qualname__ = "_new.Forged"
        monkeypatch.setattr(frames_module._new, "Forged", forged,
                            raising=False)

        class Planted:
            def __reduce__(self):
                return forged, ()

        frame = pickle.dumps(Planted(), protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_new.Forged" in frame
        store = replace_frame(store, 1, 1, frame)
        with pytest.raises(SegmentIntegrityError,
                           match=r"block 5 is unreadable \(frame names "
                                 r"repro\.chain\.frames\._new\.Forged"):
            SegmentReader(store).block(5)

    def test_frames_name_each_record_constructor(self):
        """A frame names the constructor of every record it holds, and
        no other global."""
        [frame] = encode_frames([block_of_every_record()])
        names = {record.__qualname__ for record in RECORDS}
        named = set(re.findall(rb"_new\.(\w+)", frame))
        assert {name.decode() for name in named} == names
        assert b"_rebuild" not in frame


class TestOldStores:
    @pytest.mark.parametrize("header, found", [
        ({"format": 4}, "format=4, schema=None"),
        ({"format": 5, "schema": SCHEMA_DIGEST},
         f"format=5, schema='{SCHEMA_DIGEST}'"),
        ({"format": SEGMENT_FORMAT, "schema": "0" * 64},
         f"format={SEGMENT_FORMAT}, schema='{'0' * 64}'"),
    ], ids=["format-4", "format-5", "foreign-digest"])
    def test_refused_with_the_remedy(self, tmp_path, header, found):
        root = tmp_path / "old"
        root.mkdir()
        write_manifest(root, header)
        with pytest.raises(SegmentIntegrityError, match=re.escape(
                f"written for {found}; this run needs "
                f"format={SEGMENT_FORMAT}, schema='{SCHEMA_DIGEST}' — "
                f"delete the store and re-simulate")):
            SegmentStore(str(root))
        assert SegmentStore.create(str(root)).segments == []
        header_line = (root / MANIFEST_NAME).read_text().splitlines()[0]
        assert json.loads(header_line) == {"format": SEGMENT_FORMAT,
                                           "schema": SCHEMA_DIGEST}
