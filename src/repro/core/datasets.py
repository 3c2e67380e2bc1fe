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
from dataclasses import dataclass, field, fields
from typing import (
    IO,
    TYPE_CHECKING,
    Dict,
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

#: per-record-class field names, resolved once — row serialization is
#: the dataset's hot path and ``dataclasses.fields`` is not cheap
_ROW_FIELDS: Dict[Type[object], Tuple[str, ...]] = {}


def _record_row(record: object) -> Dict[str, object]:
    """One record as a field-name → value dict.

    Equivalent to ``dataclasses.asdict`` for these records — every
    field value is an immutable scalar or a tuple of strings, so the
    deep copy ``asdict`` performs bought nothing but time (~40% of the
    detection stage, profiled).
    """
    cls = type(record)
    names = _ROW_FIELDS.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls))  # type: ignore[arg-type]
        _ROW_FIELDS[cls] = names
    return {name: getattr(record, name) for name in names}


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
        records: Iterable = {"sandwich": self.sandwiches,
                             "arbitrage": self.arbitrages,
                             "liquidation": self.liquidations}[strategy]
        total = 0
        for record in records:
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
        """Every record as a JSON-ready dict tagged with its kind."""
        rows: List[Dict[str, object]] = []
        for kind, records in (("sandwich", self.sandwiches),
                              ("arbitrage", self.arbitrages),
                              ("liquidation", self.liquidations)):
            for record in records:
                row = _record_row(record)
                row["kind"] = kind
                rows.append(row)
        return rows

    def add_row(self, row: Dict[str, object]) -> None:
        """Append one tagged row (inverse of :meth:`to_rows`)."""
        data = dict(row)
        kind = data.pop("kind")
        for key in ("venues", "token_cycle"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        buckets = {"sandwich": self.sandwiches,
                   "arbitrage": self.arbitrages,
                   "liquidation": self.liquidations}
        buckets[kind].append(RECORD_KINDS[kind](**data))

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
