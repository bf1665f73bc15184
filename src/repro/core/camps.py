"""CAMPS and CAMPS-MOD: the paper's conflict-aware prefetching scheme.

Decision flow (paper Section 3.1 / Figure 3), implemented in
:meth:`CampsPrefetcher.on_demand_access`:

* **Row-buffer hit** - record the access in the RUT.  Once the open row has
  served ``utilization_threshold`` (4) distinct cache lines, fetch the whole
  row to the prefetch buffer, precharge the bank, and clear the RUT entry.

* **Row-buffer conflict** - the newly activated row displaced another.  The
  displaced row's RUT entry moves to the Conflict Table.  If the *newly
  opened* row already has a CT entry, it has been conflicted on recently:
  fetch it to the buffer immediately, drop its CT entry, and precharge.
  Otherwise keep it open and start tracking it in the RUT.

* **Row-buffer empty** - plain activation; start tracking in the RUT (no
  conflict happened, so nothing moves to the CT).

CAMPS-MOD is CAMPS plus the utilization+recency buffer replacement policy
(:class:`~repro.core.buffer.UtilizationRecencyPolicy`); the decision logic is
identical, so both are this one class parameterized by ``modified``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.buffer import (
    LRUPolicy,
    ReplacementPolicy,
    UtilizationRecencyPolicy,
)
from repro.core.prefetcher import PrefetchAction, Prefetcher
from repro.core.tables import ConflictTable, RowUtilizationTable
from repro.obs.hooks import noop
from repro.dram.bank import RowOutcome
from repro.hmc.config import HMCConfig


@dataclass(frozen=True)
class CampsParams:
    """Tunable knobs of the CAMPS decision mechanism.

    Defaults are the paper's: threshold 4 distinct lines, 32 CT entries per
    vault, distinct-line utilization counting.
    """

    utilization_threshold: int = 4
    conflict_table_entries: int = 32
    count_distinct: bool = True

    def __post_init__(self) -> None:
        if self.utilization_threshold < 1:
            raise ValueError("utilization_threshold must be >= 1")
        if self.conflict_table_entries < 1:
            raise ValueError("conflict_table_entries must be >= 1")


class CampsPrefetcher(Prefetcher):
    """Conflict-aware memory-side prefetcher (CAMPS / CAMPS-MOD)."""

    name = "camps"

    def __init__(
        self,
        vault_id: int,
        config: HMCConfig,
        params: CampsParams | None = None,
        modified: bool = False,
    ) -> None:
        super().__init__(vault_id, config)
        self.params = params or CampsParams()
        self.modified = modified
        if modified:
            self.name = "camps-mod"
        self.rut = RowUtilizationTable(
            banks=config.banks_per_vault,
            count_distinct=self.params.count_distinct,
        )
        self.ct = ConflictTable(entries=self.params.conflict_table_entries)
        # hot-path mirror: the frozen-dataclass attribute chain costs two
        # lookups per demand access
        self._threshold = self.params.utilization_threshold
        # decision statistics (reported by experiments)
        self.utilization_prefetches = 0
        self.conflict_prefetches = 0

    def _rebind_hooks(self) -> None:
        tracer = self._tracer
        if tracer is not None:
            self._emit_rut_threshold = tracer.rut_threshold
            self._emit_ct_insert = tracer.ct_insert
            self._emit_ct_evict = tracer.ct_evict
            self._emit_ct_hit = tracer.ct_hit
        else:
            self._emit_rut_threshold = noop
            self._emit_ct_insert = noop
            self._emit_ct_evict = noop
            self._emit_ct_hit = noop

    def make_policy(self) -> ReplacementPolicy:
        return UtilizationRecencyPolicy() if self.modified else LRUPolicy()

    # ------------------------------------------------------------------
    # Decision logic
    # ------------------------------------------------------------------
    def on_demand_access(
        self,
        bank: int,
        row: int,
        column: int,
        is_write: bool,
        outcome: RowOutcome,
        now: int,
    ) -> List[PrefetchAction]:
        rut = self.rut
        if outcome is RowOutcome.HIT:
            util = rut.record_access(bank, row, column, now)
            if util >= self._threshold:
                # High-utilization row: move it wholesale to the buffer and
                # free the bank (paper: "fetches the whole row ... and
                # precharges bank to make it ready for next request").  The
                # lines already served from the open row seed the buffer
                # entry's utilization counter.
                seed = rut.get(bank).line_mask
                rut.clear(bank)
                self.utilization_prefetches += 1
                emit = self._emit_rut_threshold
                if emit is not noop:
                    emit(self.vault_id, bank, row, util, now)
                return self._count_issue(
                    [
                        PrefetchAction(
                            bank,
                            row,
                            self.full_mask,
                            precharge_after=True,
                            seed_ref_mask=seed,
                            provenance="utilization",
                        )
                    ]
                )
            return []

        if outcome is RowOutcome.CONFLICT:
            # The row that was open lost its buffer: its utilization history
            # moves from the RUT to the CT.
            displaced = rut.replace(bank, row, now)
            if displaced is not None:
                evicted = self.ct.insert(bank, displaced.row, now)
                emit = self._emit_ct_insert
                if emit is not noop:  # the CT hooks are bound together
                    emit(self.vault_id, bank, displaced.row, now)
                    if evicted is not None:
                        self._emit_ct_evict(
                            self.vault_id, evicted[0], evicted[1], now
                        )
            if self.ct.check_and_remove(bank, row):
                # This row has itself been conflicted out recently: it is
                # conflict-prone, prefetch it now and close the bank.
                rut.clear(bank)
                self.conflict_prefetches += 1
                emit = self._emit_ct_hit
                if emit is not noop:
                    emit(self.vault_id, bank, row, now)
                return self._count_issue(
                    [
                        PrefetchAction(
                            bank,
                            row,
                            self.full_mask,
                            precharge_after=True,
                            seed_ref_mask=1 << column,
                            provenance="conflict",
                        )
                    ]
                )
            # Not (yet) conflict-prone: keep it open, track utilization.
            rut.record_access(bank, row, column, now)
            return []

        # EMPTY: fresh activation of a precharged bank.
        if self.ct.check_and_remove(bank, row):
            rut.clear(bank)
            self.conflict_prefetches += 1
            emit = self._emit_ct_hit
            if emit is not noop:
                emit(self.vault_id, bank, row, now)
            return self._count_issue(
                [
                    PrefetchAction(
                        bank,
                        row,
                        self.full_mask,
                        precharge_after=True,
                        seed_ref_mask=1 << column,
                        provenance="conflict",
                    )
                ]
            )
        rut.record_access(bank, row, column, now)
        return []

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def observed_stats(self) -> dict:
        """CT/RUT gauges for the observability counter registry."""
        stats = {
            "utilization_prefetches": lambda: self.utilization_prefetches,
            "conflict_prefetches": lambda: self.conflict_prefetches,
            "rut_occupied": lambda: self.rut.occupied(),
        }
        for name, fn in self.ct.stats().items():
            stats[f"ct_{name}"] = fn
        return stats

    def describe(self) -> str:
        kind = "util+recency buffer" if self.modified else "LRU buffer"
        return (
            f"{self.name} (threshold={self.params.utilization_threshold}, "
            f"CT={self.params.conflict_table_entries}, {kind})"
        )
