"""The two profiling tables that drive CAMPS prefetch decisions.

Row Utilization Table (RUT)
    One entry per bank (16 per vault).  Tracks the row currently open in that
    bank's row buffer and which distinct cache lines of it have been served.
    When the distinct-line count reaches the threshold (4 in the paper), the
    row is a high-utilization prefetch candidate.

Conflict Table (CT)
    32 fully-associative entries per vault, shared by all banks, LRU-managed.
    Holds (bank, row) identities of rows recently closed by a conflicting
    activation.  A newly activated row already present in the CT has been
    conflicted on twice in a short window - the paper's signal that it is a
    conflict-prone row worth prefetching.

Both tables cost 20 bits/entry in the paper (3.75 KB total over 32 vaults);
here they are small dicts with explicit capacity and LRU order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(slots=True)
class RUTEntry:
    """Utilization state of the row open in one bank."""

    row: int
    line_mask: int = 0  # bit per distinct cache line served
    accesses: int = 0  # raw request count (paper's counter wording)
    opened_at: int = 0


class RowUtilizationTable:
    """Per-bank utilization tracking for open rows.

    ``count_distinct`` selects the threshold metric: the paper defines
    utilization as *distinct* cache lines accessed but describes the counter
    as incrementing per served request; distinct counting is the default and
    the raw counter is kept for the ablation bench.
    """

    def __init__(self, banks: int, count_distinct: bool = True) -> None:
        if banks < 1:
            raise ValueError("banks must be >= 1")
        self.banks = banks
        self.count_distinct = count_distinct
        self._entries: list[Optional[RUTEntry]] = [None] * banks

    def get(self, bank: int) -> Optional[RUTEntry]:
        return self._entries[bank]

    def record_access(self, bank: int, row: int, column: int, now: int) -> int:
        """Record one served request to the open row; creates the entry on
        first touch.  Returns the current utilization metric for the row."""
        e = self._entries[bank]
        if e is None or e.row != row:
            e = RUTEntry(row=row, opened_at=now)
            self._entries[bank] = e
        e.line_mask |= 1 << column
        e.accesses += 1
        return e.line_mask.bit_count() if self.count_distinct else e.accesses

    def replace(self, bank: int, row: int, now: int) -> Optional[RUTEntry]:
        """A different row was activated in ``bank``: install a fresh entry
        and return the displaced one (which the caller moves to the CT)."""
        old = self._entries[bank]
        self._entries[bank] = RUTEntry(row=row, opened_at=now)
        if old is not None and old.row == row:
            # Same row re-activated (e.g. after an explicit precharge); the
            # old utilization is stale but there was no conflict to record.
            return None
        return old

    def clear(self, bank: int) -> None:
        """Drop the entry (the row was prefetched and the bank precharged)."""
        self._entries[bank] = None

    def occupied(self) -> int:
        return sum(1 for e in self._entries if e is not None)

    def stats(self) -> dict:
        """Gauges for the observability counter registry (name -> callable)."""
        return {
            "occupied": self.occupied,
            "banks": lambda: self.banks,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RUT {self.occupied()}/{self.banks} banks tracked>"


class ConflictTable:
    """Fully-associative LRU table of recently conflicted (bank, row) pairs."""

    def __init__(self, entries: int = 32) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.capacity = entries
        # key: (bank, row) -> cycle the conflict was recorded; OrderedDict
        # iteration order doubles as LRU order (oldest first).
        self._table: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.insertions = 0
        self.promotions = 0  # lookups that found an entry (conflict row hit)
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._table

    def insert(self, bank: int, row: int, now: int) -> Optional[Tuple[int, int]]:
        """Record that (bank, row) was conflicted out of its row buffer.
        Returns the LRU-evicted key if the table overflowed."""
        key = (bank, row)
        evicted = None
        if key in self._table:
            # refresh recency
            self._table.move_to_end(key)
            self._table[key] = now
            return None
        if len(self._table) >= self.capacity:
            evicted, _ = self._table.popitem(last=False)
            self.evictions += 1
        self._table[key] = now
        self.insertions += 1
        return evicted

    def check_and_remove(self, bank: int, row: int) -> bool:
        """On activation: if the row is present it is conflict-prone; remove
        it (the paper removes the entry once the row is prefetched) and
        return True."""
        key = (bank, row)
        if key in self._table:
            del self._table[key]
            self.promotions += 1
            return True
        return False

    def stats(self) -> dict:
        """Gauges for the observability counter registry (name -> callable).

        ``promotions`` is the paper's key CT health signal: how often a
        recently conflicted row was re-activated soon enough to still be
        resident - i.e. how many conflict-triggered prefetches the table
        enabled.  A high eviction count at low promotions means the table is
        too small for the conflict working set.
        """
        return {
            "occupancy": lambda: len(self._table),
            "insertions": lambda: self.insertions,
            "promotions": lambda: self.promotions,
            "evictions": lambda: self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CT {len(self._table)}/{self.capacity}>"
