"""Unit tests for the per-bank row-buffer state machine."""

import pytest

from repro.dram.bank import AccessKind, Bank, RowOutcome
from repro.dram.bus import TsvBus
from repro.dram.commands import CommandKind
from repro.dram.timing import DRAMTimings


@pytest.fixture
def t():
    return DRAMTimings()


@pytest.fixture
def bank(t):
    return Bank(0, t, record_commands=True)


class TestClassification:
    def test_empty_initially(self, bank):
        assert bank.classify(5) is RowOutcome.EMPTY
        assert bank.open_row is None

    def test_hit_after_access(self, bank):
        bank.access(AccessKind.READ, 5, 0)
        assert bank.classify(5) is RowOutcome.HIT
        assert bank.open_row == 5

    def test_conflict_for_other_row(self, bank):
        bank.access(AccessKind.READ, 5, 0)
        assert bank.classify(6) is RowOutcome.CONFLICT


class TestAccessTiming:
    def test_empty_access_latency(self, bank, t):
        r = bank.access(AccessKind.READ, 1, 0)
        assert r.outcome is RowOutcome.EMPTY
        assert r.finish == t.trcd_cpu + t.tcl_cpu + t.tburst_cpu

    def test_hit_access_latency(self, bank, t):
        bank.access(AccessKind.READ, 1, 0)
        start = bank.busy_until
        r = bank.access(AccessKind.READ, 1, start)
        assert r.outcome is RowOutcome.HIT
        assert r.finish - r.start == t.tcl_cpu + t.tburst_cpu

    def test_conflict_pays_precharge_and_tras(self, bank, t):
        bank.access(AccessKind.READ, 1, 0)
        r = bank.access(AccessKind.READ, 2, bank.busy_until)
        assert r.outcome is RowOutcome.CONFLICT
        # PRE cannot issue before tRAS after the ACT of row 1 (at cycle 0)
        pre_at = max(r.start, 0 + t.tras_cpu)
        expected = pre_at + t.trp_cpu + t.trcd_cpu + t.tcl_cpu + t.tburst_cpu
        assert r.finish == expected

    def test_busy_bank_delays_start(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        horizon = bank.busy_until
        r = bank.access(AccessKind.READ, 1, 0)  # requested before idle
        assert r.start == horizon

    def test_back_to_back_hits_serialize(self, bank, t):
        bank.access(AccessKind.READ, 1, 0)
        r1 = bank.access(AccessKind.READ, 1, 0)
        r2 = bank.access(AccessKind.READ, 1, 0)
        assert r2.start >= r1.finish

    def test_write_same_timing_structure(self, bank, t):
        r = bank.access(AccessKind.WRITE, 3, 0)
        assert r.finish == t.trcd_cpu + t.tcl_cpu + t.tburst_cpu
        assert bank.writes == 1 and bank.reads == 0


class TestCounters:
    def test_outcome_counters(self, bank):
        bank.access(AccessKind.READ, 1, 0)  # empty
        bank.access(AccessKind.READ, 1, 0)  # hit
        bank.access(AccessKind.READ, 2, 0)  # conflict
        assert bank.empties == 1
        assert bank.hits == 1
        assert bank.conflicts == 1
        assert bank.demand_accesses == 3

    def test_conflict_rate(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        bank.access(AccessKind.READ, 2, 0)
        assert bank.conflict_rate() == pytest.approx(0.5)

    def test_conflict_rate_empty_bank(self, bank):
        assert bank.conflict_rate() == 0.0

    def test_act_pre_counts(self, bank):
        bank.access(AccessKind.READ, 1, 0)  # ACT
        bank.access(AccessKind.READ, 2, 0)  # PRE + ACT
        assert bank.acts == 2
        assert bank.pres == 1


class TestCommandLog:
    def test_empty_access_commands(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        kinds = [c.kind for c in bank.command_log]
        assert kinds == [CommandKind.ACTIVATE, CommandKind.READ]

    def test_conflict_access_commands(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        bank.access(AccessKind.WRITE, 2, 0)
        kinds = [c.kind for c in bank.command_log]
        assert kinds == [
            CommandKind.ACTIVATE,
            CommandKind.READ,
            CommandKind.PRECHARGE,
            CommandKind.ACTIVATE,
            CommandKind.WRITE,
        ]

    def test_log_disabled_by_default(self, t):
        b = Bank(0, t)
        b.access(AccessKind.READ, 1, 0)
        assert b.command_log == []

    def test_command_cycles_monotone(self, bank):
        for row in [1, 2, 1, 3, 3]:
            bank.access(AccessKind.READ, row, bank.busy_until)
        cycles = [c.cycle for c in bank.command_log]
        assert cycles == sorted(cycles)


class TestRowFetch:
    def test_fetch_precharges_bank(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        bank.fetch_row(1, bank.busy_until)
        assert bank.open_row is None
        assert bank.row_fetches == 1

    def test_fetch_open_row_no_extra_activate(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        acts = bank.acts
        bank.fetch_row(1, bank.busy_until)
        assert bank.acts == acts

    def test_fetch_closed_row_activates(self, bank):
        acts = bank.acts
        bank.fetch_row(7, 0)
        assert bank.acts == acts + 1

    def test_fetch_conflicting_row_not_counted_as_demand_conflict(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        conflicts = bank.conflicts
        bank.fetch_row(2, bank.busy_until)
        assert bank.conflicts == conflicts

    def test_fetch_occupies_bank(self, bank, t):
        r = bank.fetch_row(1, 0)
        assert bank.busy_until == r.finish
        assert r.finish >= t.trcd_cpu + t.tcl_cpu + t.trow_tsv_cpu + t.trp_cpu

    def test_next_access_after_fetch_is_empty(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        bank.fetch_row(1, bank.busy_until)
        r = bank.access(AccessKind.READ, 2, bank.busy_until)
        assert r.outcome is RowOutcome.EMPTY


class TestFetchLines:
    def test_partial_fetch_keeps_row_open(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        bank.fetch_lines(1, 4, bank.busy_until, precharge_after=False)
        assert bank.open_row == 1
        assert bank.prefetch_line_reads == 4

    def test_partial_fetch_with_precharge(self, bank):
        bank.fetch_lines(1, 2, 0, precharge_after=True)
        assert bank.open_row is None

    def test_duration_scales_with_lines(self, bank, t):
        bank.access(AccessKind.READ, 1, 0)
        s = bank.busy_until
        r1 = bank.fetch_lines(1, 1, s)
        b2 = Bank(1, t)
        b2.access(AccessKind.READ, 1, 0)
        r2 = b2.fetch_lines(1, 8, b2.busy_until)
        assert (r2.finish - r2.start) > (r1.finish - r1.start)

    def test_zero_lines_rejected(self, bank):
        with pytest.raises(ValueError):
            bank.fetch_lines(1, 0, 0)


class TestRestoreAndPrecharge:
    def test_restore_precharges(self, bank):
        bank.restore_row(9, 0)
        assert bank.open_row is None
        assert bank.row_restores == 1

    def test_restore_closes_other_open_row(self, bank):
        bank.access(AccessKind.READ, 1, 0)
        bank.restore_row(9, bank.busy_until)
        assert bank.open_row is None

    def test_explicit_precharge(self, bank, t):
        bank.access(AccessKind.READ, 1, 0)
        ready = bank.precharge(bank.busy_until)
        assert bank.open_row is None
        assert ready >= t.trp_cpu

    def test_precharge_idle_bank_is_noop(self, bank):
        pres = bank.pres
        ready = bank.precharge(100)
        assert ready == 100
        assert bank.pres == pres


class TestSharedBus:
    def test_two_banks_share_bus_serialize(self, t):
        bus = TsvBus()
        b0 = Bank(0, t, bus=bus)
        b1 = Bank(1, t, bus=bus)
        r0 = b0.access(AccessKind.READ, 1, 0)
        r1 = b1.access(AccessKind.READ, 1, 0)
        # Second bank's data transfer must wait for the shared bus.
        solo = Bank(2, t)  # private bus
        rs = solo.access(AccessKind.READ, 1, 0)
        assert r1.finish > rs.finish
        assert r0.finish == rs.finish

    def test_private_bus_no_interference(self, t):
        b0 = Bank(0, t)
        b1 = Bank(1, t)
        r0 = b0.access(AccessKind.READ, 1, 0)
        r1 = b1.access(AccessKind.READ, 1, 0)
        assert r0.finish == r1.finish

    def test_row_fetch_occupies_shared_bus(self, t):
        bus = TsvBus()
        b0 = Bank(0, t, bus=bus)
        b1 = Bank(1, t, bus=bus)
        b0.fetch_row(1, 0)
        r = b1.access(AccessKind.READ, 1, 0)
        solo = Bank(2, t).access(AccessKind.READ, 1, 0)
        assert r.finish > solo.finish
