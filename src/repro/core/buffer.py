"""The per-vault prefetch buffer and its replacement policies.

Table I: 16 KB per vault, fully associative, 1 KB (whole-row) lines, 22-cycle
hit latency.  Entries are row-granularity but carry per-line valid masks so
the MMD comparison scheme can stage partial rows in the same structure.

Recency is modeled exactly as the paper describes: the most recently used row
holds the value ``entries - 1`` (15), every row whose value exceeded the
accessed row's old value decrements, and the least recently used row sits at
0 - i.e. the values are always a permutation of LRU stack positions.  Both
replacement policies read this shared state:

* :class:`LRUPolicy` - evict the minimum-recency row (used by BASE,
  BASE-HIT, MMD and plain CAMPS).
* :class:`UtilizationRecencyPolicy` - the CAMPS-MOD policy: a fully-consumed
  row (every line referenced) leaves first; otherwise the row minimizing
  ``utilization + recency`` leaves, ties broken by lower utilization.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

RowKey = Tuple[int, int]  # (bank, row)


class BufferEntry:
    """One prefetched row resident in the buffer."""

    __slots__ = (
        "bank",
        "row",
        "valid_mask",
        "ref_mask",
        "served_mask",
        "dirty_mask",
        "accesses",
        "recency",
        "ready_time",
        "insert_time",
        "provenance",
    )

    def __init__(
        self,
        bank: int,
        row: int,
        valid_mask: int,
        ready_time: int,
        insert_time: int,
        provenance: str = "",
    ) -> None:
        self.bank = bank
        self.row = row
        self.valid_mask = valid_mask  # lines physically present
        self.ref_mask = 0  # distinct lines referenced in the row (util)
        self.served_mask = 0  # distinct lines served from this buffer
        self.dirty_mask = 0  # lines written while resident
        self.accesses = 0  # raw hit count
        self.recency = -1  # LRU stack position, managed by the buffer
        self.ready_time = ready_time  # cycle the row finishes arriving
        self.insert_time = insert_time
        self.provenance = provenance  # decision path that fetched the row

    @property
    def key(self) -> RowKey:
        return (self.bank, self.row)

    @property
    def utilization(self) -> int:
        """Distinct cache lines referenced (the paper's utilization counter)."""
        return self.ref_mask.bit_count()

    @property
    def valid_lines(self) -> int:
        return self.valid_mask.bit_count()

    @property
    def is_dirty(self) -> bool:
        return self.dirty_mask != 0

    @property
    def was_used(self) -> bool:
        """Did the entry serve at least one demand from the buffer?  (The
        ref_mask alone does not answer this: it may be seeded with lines that
        were served from the open row before the fetch.)"""
        return self.accesses > 0

    def seed_ref(self, mask: int) -> None:
        """Mark lines as already referenced (served from the row buffer
        before the row moved here).  Feeds the utilization counter but not
        the buffer-hit accuracy accounting."""
        self.ref_mask |= mask

    def fully_consumed(self, lines_per_row: int) -> bool:
        """True when every line of the whole row has been referenced."""
        full = (1 << lines_per_row) - 1
        return self.ref_mask == full

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufEntry b{self.bank}r{self.row} util={self.utilization} "
            f"rec={self.recency} valid={self.valid_lines}>"
        )


class ReplacementPolicy(abc.ABC):
    """Strategy object choosing which resident row leaves on overflow."""

    name = "abstract"

    @abc.abstractmethod
    def choose_victim(
        self, entries: List[BufferEntry], lines_per_row: int
    ) -> BufferEntry:
        """Pick the victim among ``entries`` (never empty)."""


class LRUPolicy(ReplacementPolicy):
    """Classic least-recently-used (the policy of BASE/BASE-HIT/MMD/CAMPS)."""

    name = "lru"

    def choose_victim(
        self, entries: List[BufferEntry], lines_per_row: int
    ) -> BufferEntry:
        return min(entries, key=lambda e: e.recency)


class UtilizationRecencyPolicy(ReplacementPolicy):
    """The CAMPS-MOD policy (paper Section 3.2 / Figure 4).

    1. If any row has had *all* of its distinct cache lines accessed, evict
       it - its data has already been fully transferred to the processor.
    2. Otherwise evict the row with minimum (utilization + w * recency).
    3. Ties break toward the lower utilization count.

    The paper's literal formula is the plain sum (``recency_weight = 1``).
    With our synthetic traffic the plain sum lets high-utilization rows that
    have gone cold outlive rows still awaiting their reuse, so the default
    scales the recency term by 2; the ablation bench
    (``benchmarks/bench_ablation_policy.py``) compares both.
    """

    name = "util-recency"

    def __init__(self, recency_weight: int = 2) -> None:
        if recency_weight < 1:
            raise ValueError("recency_weight must be >= 1")
        self.recency_weight = recency_weight

    def choose_victim(
        self, entries: List[BufferEntry], lines_per_row: int
    ) -> BufferEntry:
        for e in entries:
            if e.fully_consumed(lines_per_row):
                return e
        w = self.recency_weight
        return min(
            entries, key=lambda e: (e.utilization + w * e.recency, e.utilization)
        )


class PrefetchBuffer:
    """Fully-associative, row-granularity prefetch buffer for one vault.

    The buffer is also the accuracy bookkeeper (Figure 7): it knows, for
    every row it ever held, whether any of its prefetched lines were served
    to the host before eviction.
    """

    def __init__(
        self,
        entries: int,
        lines_per_row: int,
        policy: ReplacementPolicy,
    ) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        if lines_per_row < 1:
            raise ValueError("lines_per_row must be >= 1")
        self.capacity = entries
        self.lines_per_row = lines_per_row
        self.policy = policy
        self._entries: Dict[RowKey, BufferEntry] = {}
        # accuracy accounting (rows and lines)
        self.rows_inserted = 0
        self.rows_retired_used = 0
        self.rows_retired_unused = 0
        self.lines_inserted = 0
        self.lines_used = 0
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0

    # ------------------------------------------------------------------
    # Recency stack maintenance (paper Section 3.2 semantics)
    # ------------------------------------------------------------------
    def _make_mru(self, entry: BufferEntry, old_value: int) -> None:
        top = self.capacity - 1
        if old_value == top and entry.recency == top:
            # Re-touching the MRU entry: no other recency exceeds ``top``,
            # so the decrement sweep would scan and change nothing.  (The
            # recency check matters: a fresh insert may inherit old_value
            # == top from an evicted MRU victim and still needs stamping.)
            return
        for e in self._entries.values():
            if e is not entry and e.recency > old_value:
                e.recency -= 1
        entry.recency = top

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: RowKey) -> bool:
        return key in self._entries

    def get(self, bank: int, row: int) -> Optional[BufferEntry]:
        return self._entries.get((bank, row))

    def entries(self) -> List[BufferEntry]:
        return list(self._entries.values())

    # ------------------------------------------------------------------
    # Hot-path operations
    # ------------------------------------------------------------------
    def lookup(
        self, bank: int, row: int, column: int, is_write: bool
    ) -> Optional[BufferEntry]:
        """Probe for a demand access.  On a hit the entry's utilization,
        dirty state and recency are updated and the entry returned; the
        caller derives service time from ``entry.ready_time``."""
        e = self._entries.get((bank, row))
        bit = 1 << column
        if e is None or not (e.valid_mask & bit):
            self.misses += 1
            return None
        self.hits += 1
        if not (e.served_mask & bit):
            e.served_mask |= bit
            self.lines_used += 1
        e.ref_mask |= bit
        e.accesses += 1
        if is_write:
            e.dirty_mask |= bit
        self._make_mru(e, e.recency)
        return e

    def insert(
        self,
        bank: int,
        row: int,
        valid_mask: int,
        ready_time: int,
        now: int,
        provenance: str = "",
    ) -> Optional[BufferEntry]:
        """Stage a (whole or partial) row arriving at ``ready_time``.

        If the row is already resident the masks merge (MMD extends partial
        rows this way).  Returns the evicted entry when the insertion
        displaced one, so the vault controller can write back dirty lines and
        the caller can observe retirement.  ``provenance`` tags the entry
        with the decision path that fetched it (kept from the first insert
        when masks merge).
        """
        full_mask = (1 << self.lines_per_row) - 1
        if valid_mask == 0 or valid_mask & ~full_mask:
            raise ValueError(f"invalid line mask 0x{valid_mask:x}")
        key = (bank, row)
        existing = self._entries.get(key)
        new_lines = valid_mask
        if existing is not None:
            new_lines = valid_mask & ~existing.valid_mask
            existing.valid_mask |= valid_mask
            existing.ready_time = max(existing.ready_time, ready_time)
            self.lines_inserted += new_lines.bit_count()
            self._make_mru(existing, existing.recency)
            return None

        victim: Optional[BufferEntry] = None
        old_value = -1
        if len(self._entries) >= self.capacity:
            victim = self.policy.choose_victim(
                list(self._entries.values()), self.lines_per_row
            )
            old_value = victim.recency
            self._retire(victim)
            del self._entries[victim.key]

        entry = BufferEntry(bank, row, valid_mask, ready_time, now, provenance)
        self._entries[key] = entry
        self._make_mru(entry, old_value)
        self.rows_inserted += 1
        self.lines_inserted += valid_mask.bit_count()
        return victim

    def invalidate(self, bank: int, row: int) -> Optional[BufferEntry]:
        """Drop a row (e.g. external coherence in extended setups)."""
        e = self._entries.pop((bank, row), None)
        if e is not None:
            # Keep the remaining recency values a dense, top-anchored
            # permutation: everything below the removed slot shifts up.
            for other in self._entries.values():
                if other.recency < e.recency:
                    other.recency += 1
            self._retire(e)
        return e

    # ------------------------------------------------------------------
    # Accuracy accounting
    # ------------------------------------------------------------------
    def _retire(self, e: BufferEntry) -> None:
        if e.was_used:
            self.rows_retired_used += 1
        else:
            self.rows_retired_unused += 1
        if e.is_dirty:
            self.dirty_evictions += 1

    def reset_accounting(self) -> None:
        """Zero the accuracy/hit accounting without evicting resident rows
        (post-warmup measurement windows)."""
        self.rows_inserted = 0
        self.rows_retired_used = 0
        self.rows_retired_unused = 0
        self.lines_inserted = 0
        self.lines_used = 0
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0

    def finalize(self) -> None:
        """Count still-resident rows toward accuracy at end of simulation."""
        for e in self._entries.values():
            if e.was_used:
                self.rows_retired_used += 1
            else:
                self.rows_retired_unused += 1

    @property
    def row_accuracy(self) -> float:
        """Fraction of retired prefetched rows that served >= 1 demand."""
        n = self.rows_retired_used + self.rows_retired_unused
        return self.rows_retired_used / n if n else 0.0

    @property
    def line_accuracy(self) -> float:
        """Fraction of prefetched lines that were referenced."""
        return self.lines_used / self.lines_inserted if self.lines_inserted else 0.0

    def check_recency_invariant(self) -> bool:
        """Recency values must always form a dense top-anchored permutation:
        with k resident entries they are exactly {capacity-k .. capacity-1}.
        Exposed for tests and hypothesis properties."""
        values = sorted(e.recency for e in self._entries.values())
        k = len(values)
        expected = list(range(self.capacity - k, self.capacity))
        return values == expected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PrefetchBuffer {len(self._entries)}/{self.capacity} "
            f"policy={self.policy.name} hits={self.hits}>"
        )
