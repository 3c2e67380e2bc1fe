"""Maps simulated block heights onto the paper's calendar months.

The study window runs from May 2020 (block 10,000,000) to March 2022
(block 14,444,725).  The simulation compresses each calendar month into a
fixed number of blocks; all monthly aggregations (Figures 3–7) and the
timeline of real-world events (Flashbots launch, forks, observation
window) are expressed against this calendar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: The paper's study months, in order.
STUDY_MONTHS: Tuple[str, ...] = tuple(
    f"{year}-{month:02d}"
    for year, months in (
        (2020, range(5, 13)),
        (2021, range(1, 13)),
        (2022, range(1, 4)),
    )
    for month in months
)

# Real-world event months used by the calibrated scenario.
FLASHBOTS_LAUNCH_MONTH = "2021-02"   # first FB block: Feb 11 2021
BERLIN_FORK_MONTH = "2021-04"        # Apr 15 2021
LONDON_FORK_MONTH = "2021-08"        # Aug 5 2021
SEARCHER_EXODUS_MONTH = "2021-09"    # usage dip (paper Section 4.5)
TAICHI_SHUTDOWN_MONTH = "2021-10"    # Oct 15 2021
OBSERVATION_START_MONTH = "2021-11"  # pending-tx collection start (§3.2)
OBSERVATION_END_MONTH = "2022-03"    # study end


@dataclass(frozen=True)
class StudyCalendar:
    """Block ↔ month arithmetic for a compressed study window.

    Blocks are numbered 1..N; month ``i`` covers blocks
    ``[i*bpm + 1, (i+1)*bpm]``.
    """

    blocks_per_month: int
    months: Tuple[str, ...] = STUDY_MONTHS

    def __post_init__(self) -> None:
        if self.blocks_per_month <= 0:
            raise ValueError("blocks_per_month must be positive")
        if not self.months:
            raise ValueError("calendar needs at least one month")

    @property
    def total_blocks(self) -> int:
        return self.blocks_per_month * len(self.months)

    def month_index(self, block_number: int) -> int:
        """0-based month index of a block; raises outside the window."""
        if not 1 <= block_number <= self.total_blocks:
            raise ValueError(f"block {block_number} outside study window")
        return (block_number - 1) // self.blocks_per_month

    def month_of(self, block_number: int) -> str:
        return self.months[self.month_index(block_number)]

    def month_bounds(self, month: str) -> Tuple[int, int]:
        """(first_block, last_block) of a month, inclusive."""
        index = self.index_of(month)
        first = index * self.blocks_per_month + 1
        return first, first + self.blocks_per_month - 1

    def index_of(self, month: str) -> int:
        try:
            return self.months.index(month)
        except ValueError:
            raise ValueError(f"{month!r} is not in the study window")

    def first_block_of(self, month: str) -> int:
        return self.month_bounds(month)[0]

    def blocks_in(self, month: str) -> range:
        first, last = self.month_bounds(month)
        return range(first, last + 1)

    def day_of(self, block_number: int, days_per_month: int = 30) -> int:
        """Synthetic day index for daily series (Figure 6)."""
        month = self.month_index(block_number)
        offset = (block_number - 1) % self.blocks_per_month
        day_in_month = offset * days_per_month // self.blocks_per_month
        return month * days_per_month + day_in_month

    def months_up_to(self, block_number: int) -> List[str]:
        return list(self.months[:self.month_index(block_number) + 1])

    # Epoch arithmetic --------------------------------------------------------
    #
    # Epochs are fixed-width windows of ``epoch_blocks`` blocks, anchored
    # at block 1 like months are.  With ``epoch_blocks == blocks_per_month``
    # every epoch boundary is a month edge; smaller widths subdivide
    # months for finer-grained sharding.

    def epoch_count(self, epoch_blocks: int) -> int:
        """Number of epochs covering the window (last may be short)."""
        if epoch_blocks <= 0:
            raise ValueError("epoch_blocks must be positive")
        return -(-self.total_blocks // epoch_blocks)

    def epoch_bounds(self, epoch_index: int,
                     epoch_blocks: int) -> Tuple[int, int]:
        """(first_block, last_block) of an epoch, clipped to the window."""
        count = self.epoch_count(epoch_blocks)
        if not 0 <= epoch_index < count:
            raise ValueError(
                f"epoch {epoch_index} outside window (0..{count - 1})")
        first = epoch_index * epoch_blocks + 1
        last = min(first + epoch_blocks - 1, self.total_blocks)
        return first, last
