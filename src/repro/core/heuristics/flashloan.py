"""Flash-loan detection — Wang et al. technique.

Flash loans leave an unambiguous trace: lending platforms emit a
``FlashLoan`` event only when a loan was issued *and repaid* within the
transaction.  Detection is therefore a crawl of those events; the result
is the set of transaction hashes that used a flash loan, which the
pipeline joins against the MEV records (``via_flashloan``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Set

from repro.chain.events import FlashLoanEvent
from repro.chain.node import ArchiveNode
from repro.chain.types import Hash32

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids module cycle
    from repro.core.scan import BlockView

DEFAULT_PLATFORMS = ("Aave", "dYdX")


def flash_loan_hashes(events: Iterable[FlashLoanEvent],
                      platforms: Sequence[str] = DEFAULT_PLATFORMS,
                      ) -> Set[Hash32]:
    """The covered-platform transaction hashes among flash-loan events."""
    return {event.tx_hash for event in events
            if event.platform in platforms and event.tx_hash is not None}


class FlashLoanVisitor:
    """Per-block flash-loan detector for
    :class:`~repro.core.scan.Detector`.

    Consumes the view's status-blind flash-loan bucket (matching the
    ``get_logs`` crawl, which never filtered on receipt status); no
    archive traffic at any point.  ``reset`` starts a new set.
    """

    def __init__(self,
                 platforms: Sequence[str] = DEFAULT_PLATFORMS) -> None:
        self.platforms = platforms
        self.reset()

    def reset(self) -> None:
        self._hashes: Set[Hash32] = set()

    def visit(self, view: BlockView) -> None:
        if view.flash_loans:
            self._hashes |= flash_loan_hashes(view.flash_loans,
                                              self.platforms)

    def finalize(self) -> Set[Hash32]:
        return self._hashes


def detect_flash_loan_txs(node: ArchiveNode,
                          from_block: Optional[int] = None,
                          to_block: Optional[int] = None,
                          platforms: Sequence[str] = DEFAULT_PLATFORMS,
                          ) -> Set[Hash32]:
    """Hashes of all transactions that completed a flash loan.

    Stays ``get_logs``-based: one ranged log query is the whole read
    when flash loans are the only events wanted.
    """
    return flash_loan_hashes(node.get_logs(FlashLoanEvent, from_block,
                                           to_block), platforms)
