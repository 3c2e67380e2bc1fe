"""Parent-linkage validation at ``Blockchain.append``.

Every chain validates each link as it grows: numbers must be
contiguous with the tip, and a block's ``parent_hash`` must equal the
tip's hash (``None`` is stamped with it).  The stream engine runs the
same two checks against its own height → hash map
(``tests/stream/test_engine.py``).
"""

import pytest

from tests.chain.test_node import chain_of, make_block


class TestAppendValidation:
    def test_append_stamps_parent_hash(self):
        chain = chain_of([], [])
        genesis, child = chain.blocks
        assert genesis.parent_hash is None
        assert child.parent_hash == genesis.hash

    def test_non_contiguous_append_rejected(self):
        chain = chain_of([])
        with pytest.raises(ValueError, match="non-contiguous"):
            chain.append(make_block(3))

    def test_parent_hash_mismatch_rejected(self):
        chain = chain_of([], [])
        wrong = make_block(3)
        wrong.parent_hash = "0x" + "ab" * 32
        with pytest.raises(ValueError, match="parent hash mismatch"):
            chain.append(wrong)
        assert chain.height == 2  # nothing was stored
