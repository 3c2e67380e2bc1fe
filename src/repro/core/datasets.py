"""Typed MEV records and the dataset container (the paper's MongoDB).

Each record mirrors what the paper's crawling scripts store: the
transactions involved, the extractor and miner, the gains/costs in ETH,
and the labels added by the joins (Flashbots, flash loans, privacy).

Labels are honest about missing data.  ``via_flashbots`` is tri-state:
``True``/``False`` when the public dataset covers the record's block,
``None`` (*unknown*) when the block falls in a known dataset gap — a gap
must never silently read as "non-Flashbots".  Likewise ``privacy`` adds
``'unobserved'`` for records whose classification would rest on the
pending-tx collector's downtime.  The :class:`MevDataset` carries the
run's :class:`~repro.reliability.quality.DataQualityReport` so degraded
coverage travels with the data it degraded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
)

from repro.chain.types import Address, Hash32

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids module cycle
    from repro.reliability.quality import DataQualityReport

PRIVACY_PUBLIC = "public"
PRIVACY_PRIVATE = "private"
PRIVACY_FLASHBOTS = "flashbots"
#: the pending-tx collector was down when the record's transactions
#: would have been pending: absence from the trace proves nothing
PRIVACY_UNOBSERVED = "unobserved"

#: ``via_flashbots`` value meaning "the dataset has a gap here"
FLASHBOTS_UNKNOWN = None


@dataclass
class SandwichRecord:
    """A detected insertion attack (Definition 1 / Torres heuristic)."""

    block_number: int
    pool_address: Address
    venue: str
    extractor: Address
    victim: Address
    front_tx: Hash32
    victim_tx: Hash32
    back_tx: Hash32
    token_in: str
    token_out: str
    frontrun_amount_in: int
    backrun_amount_out: int
    gain_wei: int
    cost_wei: int
    #: what the block's miner earned from the two attacker transactions
    #: (gas fees kept + coinbase tips) — the quantity behind Figure 8a
    miner_revenue_wei: int = 0
    miner: Address = ""
    via_flashbots: Optional[bool] = False
    via_flashloan: bool = False
    privacy: Optional[str] = None

    @property
    def profit_wei(self) -> int:
        return self.gain_wei - self.cost_wei

@dataclass
class ArbitrageRecord:
    """A detected closed-cycle arbitrage (Qin heuristic)."""

    block_number: int
    tx_hash: Hash32
    extractor: Address
    venues: Tuple[str, ...]
    token_cycle: Tuple[str, ...]
    amount_in: int
    amount_out: int
    gain_wei: int
    cost_wei: int
    miner: Address = ""
    via_flashbots: Optional[bool] = False
    via_flashloan: bool = False
    privacy: Optional[str] = None

    @property
    def profit_wei(self) -> int:
        return self.gain_wei - self.cost_wei


@dataclass
class LiquidationRecord:
    """A detected fixed-spread liquidation."""

    block_number: int
    tx_hash: Hash32
    platform: str
    liquidator: Address
    borrower: Address
    debt_token: str
    debt_repaid: int
    collateral_token: str
    collateral_seized: int
    gain_wei: int
    cost_wei: int
    miner: Address = ""
    via_flashbots: Optional[bool] = False
    via_flashloan: bool = False
    privacy: Optional[str] = None

    @property
    def profit_wei(self) -> int:
        return self.gain_wei - self.cost_wei


#: record constructors keyed by the serialized ``kind`` tag
RECORD_KINDS = {"sandwich": SandwichRecord,
                "arbitrage": ArbitrageRecord,
                "liquidation": LiquidationRecord}

#: the ``kind`` tag of each record class (inverse of ``RECORD_KINDS``)
_KIND_OF: Dict[Type[object], str] = {
    cls: kind for kind, cls in RECORD_KINDS.items()}

#: tuple-valued record fields, carried in rows as JSON lists
_LIST_FIELDS = ("venues", "token_cycle")


def record_row(record: object) -> Dict[str, object]:
    """The one record → row renderer: fields in declaration order (a
    record's instance dict is exactly its fields), tuples as lists (as
    JSON reads them back), then the ``kind`` tag."""
    row = dict(record.__dict__)
    for name in _LIST_FIELDS:
        if name in row:
            row[name] = list(row[name])
    row["kind"] = _KIND_OF[type(record)]
    return row


@dataclass
class MevDataset:
    """All detected MEV over a block range, with join labels applied."""

    sandwiches: List[SandwichRecord] = field(default_factory=list)
    arbitrages: List[ArbitrageRecord] = field(default_factory=list)
    liquidations: List[LiquidationRecord] = field(default_factory=list)
    #: coverage/resilience accounting for the run that built this dataset
    quality: Optional["DataQualityReport"] = None

    def all_records(self) -> List[object]:
        return [*self.sandwiches, *self.arbitrages, *self.liquidations]

    def totals(self) -> Dict[str, int]:
        return {"sandwich": len(self.sandwiches),
                "arbitrage": len(self.arbitrages),
                "liquidation": len(self.liquidations),
                "total": len(self.sandwiches) + len(self.arbitrages)
                + len(self.liquidations)}

    def count(self, strategy: str, via_flashbots: Optional[bool] = None,
              via_flashloan: Optional[bool] = None) -> int:
        """Count records of one strategy with optional label filters."""
        total = 0
        for record in self._records_of(strategy):
            if via_flashbots is not None and \
                    record.via_flashbots != via_flashbots:
                continue
            if via_flashloan is not None and \
                    record.via_flashloan != via_flashloan:
                continue
            total += 1
        return total

    def records_equal(self, other: "MevDataset") -> bool:
        """Record-level equality, ignoring the quality report."""
        return (self.sandwiches == other.sandwiches
                and self.arbitrages == other.arbitrages
                and self.liquidations == other.liquidations)

    def fingerprint(self) -> Tuple[str, str]:
        """The run's identity: canonical JSON of its rows and of its
        quality ledger.  Two runs agree bit for bit exactly when their
        fingerprints are equal."""
        quality = None if self.quality is None else self.quality.to_dict()
        return (json.dumps(self.to_rows(), sort_keys=True),
                json.dumps(quality, sort_keys=True))

    # Row serialization (shared by JSONL export and checkpoints) ----------

    def to_rows(self) -> List[Dict[str, object]]:
        """Every record as a JSON-ready dict tagged with its kind
        (:func:`record_row`)."""
        return [record_row(record) for record in self.all_records()]

    def add_row(self, row: Dict[str, object]) -> None:
        """Append one tagged row (inverse of :meth:`to_rows`): only for
        rows from outside the process, a checkpoint or a JSONL file."""
        data = dict(row)
        kind = data.pop("kind")
        for key in _LIST_FIELDS:
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        self._records_of(kind).append(RECORD_KINDS[kind](**data))

    def _records_of(self, kind: str) -> List:
        """The record list of one ``kind`` tag."""
        return {"sandwich": self.sandwiches,
                "arbitrage": self.arbitrages,
                "liquidation": self.liquidations}[kind]

    def extend(self, records: Iterable[object]) -> None:
        """Append a copy of each record to its kind's list: the joins
        relabel this dataset in place, and a payload keeps its
        detection-time labels (the stream reuses it after a reorg,
        checkpoints render it)."""
        for record in records:
            self._records_of(_KIND_OF[type(record)]).append(
                type(record)(**record.__dict__))

    # Persistence ---------------------------------------------------------

    def dump_jsonl(self, stream: IO[str]) -> None:
        """Write one JSON object per record, tagged with its kind."""
        for row in self.to_rows():
            stream.write(json.dumps(row) + "\n")

    @classmethod
    def load_jsonl(cls, stream: IO[str]) -> "MevDataset":
        dataset = cls()
        for line in stream:
            line = line.strip()
            if not line:
                continue
            dataset.add_row(json.loads(line))
        return dataset


@dataclass
class ChunkPayload:
    """One detection call's output: a chunk's (or one streamed block's)
    records before any join, in row order, plus its flash-loan
    transactions.

    Compares by value and is never relabelled: a merge takes copies
    (:meth:`MevDataset.extend`).  :meth:`document` renders its rows for
    the checkpoint.  Slotted, with an empty block's records the shared
    empty tuple: the stream keeps one per height.
    """

    __slots__ = ("records", "flash_txs")
    records: Tuple[object, ...]
    flash_txs: FrozenSet[Hash32]

    def document(self) -> Dict[str, object]:
        """The checkpoint form, ``{"rows": [...], "flash_txs": [...]}``."""
        return {"rows": [record_row(record) for record in self.records],
                "flash_txs": sorted(self.flash_txs)}

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "ChunkPayload":
        """Parse a checkpointed payload."""
        parsed = MevDataset()
        for row in document["rows"]:
            parsed.add_row(row)
        return cls(tuple(parsed.all_records()),
                   frozenset(document["flash_txs"]))
