"""Positional block frames: the record codec of segment files.

A spilled block is stored as one pickle frame.  Default pickling writes
each slotted record as its class reference plus a dict of slot names
to values, and loads it back through a generic ``__setstate__`` loop.
This codec writes every chain record instead as a call of its own
constructor on its field values in ``dataclasses.fields()`` order.
The constructors are generated from the same fields, the way
``@dataclass`` generates ``__init__``: one attribute store per slot,
no ``__init__`` or ``__post_init__`` run, as with default pickling.
Each one is a global of this module, ``_new.<record name>``, so a frame
names the constructor of every record it holds (once per frame: the
pickle memo turns repeats into back-references).

The schema is :data:`RECORDS`, a fixed tuple, and :data:`SCHEMA_DIGEST`
covers every record's module, qualified name and field names in that
order, so it is the same in every process whatever the import order or
hash seed.  The segment manifest header carries it; a store written
under another schema is refused, never decoded.

Both directions fail closed.  :func:`encode_frames` raises
:class:`pickle.PicklingError` for any object that is neither a schema
record nor a builtin value (builtins such as the open
``Transaction.meta`` dict are pickled as values).  :func:`decode_frame`
admits exactly the generated constructors as globals: a frame that
names any other raises :class:`pickle.UnpicklingError`.

The records include the DEX and lending intents a transaction carries.
This module (and :mod:`repro.chain.segments`, its one user) sits above
those packages: ``repro.chain`` itself does not import it, so the
chain substrate stays importable on its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import pickle
import types
from typing import Callable, Dict, List, Sequence, Tuple

from repro.chain.block import Block
from repro.chain.events import (BorrowEvent, EventLog, FlashLoanEvent,
                                LiquidationEvent, OracleUpdateEvent,
                                SwapEvent, SyncEvent, TransferEvent)
from repro.chain.intents import (CoinbaseTipIntent, FailingIntent,
                                 SequenceIntent, TokenTransferIntent)
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.dex.router import ArbitrageIntent, SwapAllIntent, SwapIntent
from repro.lending.flashloan import FlashLoanIntent
from repro.lending.oracle import OracleUpdateIntent
from repro.lending.pool import BorrowIntent, LiquidationIntent

#: Every record a block frame may hold.  Any change here, or to a
#: record's fields, changes :data:`SCHEMA_DIGEST`, so stores written
#: before it are refused.
RECORDS: Tuple[type, ...] = (
    Block, Transaction, Receipt,
    EventLog, TransferEvent, SwapEvent, SyncEvent, LiquidationEvent,
    FlashLoanEvent, BorrowEvent, OracleUpdateEvent,
    TokenTransferIntent, CoinbaseTipIntent, SequenceIntent, FailingIntent,
    SwapIntent, ArbitrageIntent, SwapAllIntent,
    BorrowIntent, LiquidationIntent, FlashLoanIntent, OracleUpdateIntent,
)


def _field_names(cls: type) -> Tuple[str, ...]:
    """``cls``'s fields in declaration order, checked to be exactly its
    instance state: a slot outside the fields, or an instance dict,
    would be silently dropped by a positional frame."""
    names = tuple(field.name for field in dataclasses.fields(cls))
    slots = {slot for klass in cls.__mro__
             for slot in klass.__dict__.get("__slots__", ())}
    if set(names) != slots or cls.__dictoffset__:
        raise TypeError(f"{cls.__qualname__} state {sorted(slots)} is "
                        f"not its fields {list(names)}")
    return names


def _digest(records: Sequence[type]) -> str:
    """Fingerprint of the schema: module, qualname (which also names
    the record's constructor in frames) and field names of every
    record, in schema order."""
    return hashlib.sha256("".join(
        f"{cls.__module__}:{cls.__qualname__}:"
        f"{','.join(_field_names(cls))};"
        for cls in records).encode()).hexdigest()


#: The generated constructors as attributes named after their records:
#: pickle resolves a constructor's global name ``_new.<qualname>``
#: here when it writes a frame.
_new = types.SimpleNamespace()


def _generate(cls: type, names: Tuple[str, ...],
              ) -> Tuple[Callable, Callable]:
    """``cls``'s constructor (values → record), a global of this module
    named ``_new.<qualname>``, and its reducer (record →
    ``(constructor, values)``), compiled from its fields."""
    namespace = {"new": object.__new__, "cls": cls}
    if set(names) & {"obj", *namespace}:
        raise TypeError(f"{cls.__qualname__} has a field named like a "
                        f"name the generated code uses")
    params = ", ".join(names)
    reads = "".join(f"obj.{name}, " for name in names)
    stores = "".join(f"    obj.{name} = {name}\n" for name in names)
    source = (f"def build({params}):\n"
              f"    obj = new(cls)\n"
              f"{stores}"
              f"    return obj\n"
              f"def reduce(obj):\n"
              f"    return build, ({reads})\n")
    exec(compile(source, f"<frame codec {cls.__qualname__}>", "exec"),
         namespace)
    build = namespace["build"]
    build.__module__ = __name__
    build.__name__ = cls.__qualname__
    build.__qualname__ = f"_new.{cls.__qualname__}"
    return namespace["reduce"], build


def _codec(records: Sequence[type],
           ) -> Tuple[Dict[type, Callable], Dict[str, Callable]]:
    """Every record's reducer, by class, and constructor, by the name
    frames give it."""
    reducers: Dict[type, Callable] = {}
    constructors: Dict[str, Callable] = {}
    for cls in records:
        reduce, build = _generate(cls, _field_names(cls))
        if build.__qualname__ in constructors:
            raise TypeError(f"two records are named {cls.__qualname__}")
        reducers[cls] = reduce
        constructors[build.__qualname__] = build
        setattr(_new, build.__name__, build)
    return reducers, constructors


#: Schema fingerprint written to, and required of, every segment store.
SCHEMA_DIGEST = _digest(RECORDS)
_REDUCERS, _CONSTRUCTORS = _codec(RECORDS)


class _FramePickler(pickle.Pickler):
    """Pickles schema records positionally and refuses anything else
    that is not a builtin value."""

    def reducer_override(self, obj):
        # Builtin values (None, bools, ints, floats, str, bytes, dict,
        # list, tuple, set) never reach this hook.
        reduce = _REDUCERS.get(type(obj))
        if reduce is not None:
            return reduce(obj)
        if type(obj) is types.FunctionType \
                and _CONSTRUCTORS.get(obj.__qualname__) is obj:
            return NotImplemented
        raise pickle.PicklingError(
            f"{type(obj).__module__}.{type(obj).__qualname__} is not a "
            f"block-frame record; add it to repro.chain.frames.RECORDS")


class _FrameUnpickler(pickle.Unpickler):
    """Loads a frame that names no global but the generated
    constructors."""

    def find_class(self, module: str, name: str):
        if module == __name__:
            build = _CONSTRUCTORS.get(name)
            if build is not None:
                return build
        raise pickle.UnpicklingError(
            f"frame names {module}.{name}, which is not a block-frame "
            f"record's constructor")


def encode_frames(blocks: Sequence[Block]) -> List[bytes]:
    """One self-contained frame per block (memo cleared between
    blocks, so each decodes alone)."""
    buffer = io.BytesIO()
    pickler = _FramePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    frames = []
    for block in blocks:
        pickler.dump(block)
        frames.append(buffer.getvalue())
        buffer.seek(0)
        buffer.truncate()
        pickler.clear_memo()
    return frames


def decode_frame(frame) -> object:
    """The object one frame holds (checked by the caller)."""
    return _FrameUnpickler(io.BytesIO(frame)).load()


__all__ = ["RECORDS", "SCHEMA_DIGEST", "decode_frame", "encode_frames"]
