"""The chain records check their own layout.

The event classes are the schema between emitters (DEX, lending) and
the heuristics, which read nothing else.  They are keyword-only and
slotted with no payload defaults, so Python rejects a missing, unknown
or positional field at construction and a write to an undeclared
attribute.  Blocks, transactions, receipts and intents are slotted
too: no instance carries a ``__dict__``.
"""

import pytest

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
from repro.chain.intents import (
    CoinbaseTipIntent,
    FailingIntent,
    SequenceIntent,
    TokenTransferIntent,
)
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.chain.types import address_from_label
from repro.dex.router import ArbitrageIntent, SwapAllIntent, SwapIntent
from repro.lending.flashloan import FlashLoanIntent
from repro.lending.oracle import OracleUpdateIntent
from repro.lending.pool import BorrowIntent, LiquidationIntent

POOL = address_from_label("records-pool")
TRADER = address_from_label("records-trader")

EVENT_CLASSES = (EventLog, TransferEvent, SwapEvent, SyncEvent,
                 LiquidationEvent, FlashLoanEvent, BorrowEvent,
                 OracleUpdateEvent)
INTENT_CLASSES = (TokenTransferIntent, CoinbaseTipIntent, SequenceIntent,
                  FailingIntent, SwapIntent, ArbitrageIntent,
                  SwapAllIntent, BorrowIntent, LiquidationIntent,
                  FlashLoanIntent, OracleUpdateIntent)

SWAP_FIELDS = dict(venue="UniswapV2", taker=TRADER, recipient=TRADER,
                   token_in="WETH", token_out="DAI", amount_in=10,
                   amount_out=20)


def swap():
    return SwapEvent(address=POOL, **SWAP_FIELDS)


def receipt(logs):
    return Receipt(tx_hash="0x01", block_number=1, tx_index=0,
                   sender=TRADER, to=POOL, status=True, gas_used=21_000,
                   effective_gas_price=1, miner_tip_per_gas=1,
                   coinbase_transfer=0, logs=logs)


class TestEventConstruction:
    def test_every_field_by_keyword_then_stamp(self):
        event = swap()
        event.stamp(7, "0xabc", 2, 5)
        assert (event.amount_in, event.block_number, event.log_index) \
            == (10, 7, 5)

    @pytest.mark.parametrize("omitted", ["address", "amount_in"])
    def test_missing_field_raises(self, omitted):
        fields = dict(SWAP_FIELDS, address=POOL)
        del fields[omitted]
        with pytest.raises(TypeError, match=omitted):
            SwapEvent(**fields)

    def test_unknown_keyword_raises(self):
        with pytest.raises(TypeError, match="amout"):
            SwapEvent(address=POOL, amout=1, **SWAP_FIELDS)

    def test_positional_address_raises(self):
        with pytest.raises(TypeError, match="positional"):
            SwapEvent(POOL, **SWAP_FIELDS)

    @pytest.mark.parametrize("coordinate", ["block_number", "tx_hash",
                                            "tx_index", "log_index"])
    def test_stamped_coordinates_are_not_constructor_fields(
            self, coordinate):
        with pytest.raises(TypeError, match=coordinate):
            SwapEvent(address=POOL, **{coordinate: 1}, **SWAP_FIELDS)


class TestUndeclaredAttributes:
    def test_write_raises(self):
        event = swap()
        with pytest.raises(AttributeError):
            event.amout = 1


class TestSlotted:
    @pytest.mark.parametrize("cls", EVENT_CLASSES + INTENT_CLASSES
                             + (Transaction, Block, Receipt),
                             ids=lambda cls: cls.__name__)
    def test_class_has_no_instance_dict(self, cls):
        assert "__dict__" not in dir(cls)

    def test_instances_have_no_dict(self):
        event = swap()
        intent = CoinbaseTipIntent(tip=1)
        tx = Transaction(sender=TRADER, nonce=0, intent=intent)
        block = Block(number=1, timestamp=13, miner=POOL, base_fee=0,
                      gas_limit=30_000_000, transactions=[tx],
                      receipts=[receipt([event])])
        for record in (event, intent, tx, block, block.receipts[0]):
            assert not hasattr(record, "__dict__"), type(record)
