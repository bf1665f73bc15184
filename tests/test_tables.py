"""Unit tests for the Row Utilization Table and Conflict Table."""

import pytest

from repro.core.tables import ConflictTable, RowUtilizationTable


class TestRUT:
    def test_empty_initially(self):
        rut = RowUtilizationTable(banks=4)
        assert rut.get(0) is None
        assert rut.occupied() == 0

    def test_record_creates_entry(self):
        rut = RowUtilizationTable(banks=4)
        util = rut.record_access(0, row=7, column=3, now=100)
        assert util == 1
        e = rut.get(0)
        assert e is not None and e.row == 7 and e.opened_at == 100

    def test_distinct_line_counting(self):
        rut = RowUtilizationTable(banks=4)
        rut.record_access(0, 7, 3, 0)
        rut.record_access(0, 7, 3, 1)  # same line again
        util = rut.record_access(0, 7, 5, 2)  # new line
        assert util == 2
        assert rut.get(0).accesses == 3

    def test_raw_access_counting_mode(self):
        rut = RowUtilizationTable(banks=4, count_distinct=False)
        rut.record_access(0, 7, 3, 0)
        util = rut.record_access(0, 7, 3, 1)
        assert util == 2

    def test_new_row_resets_entry(self):
        rut = RowUtilizationTable(banks=4)
        rut.record_access(0, 7, 3, 0)
        util = rut.record_access(0, 8, 1, 5)
        assert util == 1
        assert rut.get(0).row == 8

    def test_replace_returns_displaced(self):
        rut = RowUtilizationTable(banks=4)
        rut.record_access(0, 7, 3, 0)
        old = rut.replace(0, 8, 10)
        assert old is not None and old.row == 7
        assert rut.get(0).row == 8

    def test_replace_same_row_returns_none(self):
        rut = RowUtilizationTable(banks=4)
        rut.record_access(0, 7, 3, 0)
        assert rut.replace(0, 7, 10) is None

    def test_replace_empty_bank_returns_none(self):
        rut = RowUtilizationTable(banks=4)
        assert rut.replace(1, 8, 0) is None
        assert rut.get(1).row == 8

    def test_clear(self):
        rut = RowUtilizationTable(banks=4)
        rut.record_access(2, 7, 3, 0)
        rut.clear(2)
        assert rut.get(2) is None

    def test_banks_independent(self):
        rut = RowUtilizationTable(banks=4)
        rut.record_access(0, 7, 3, 0)
        rut.record_access(1, 9, 2, 0)
        assert rut.get(0).row == 7
        assert rut.get(1).row == 9
        assert rut.occupied() == 2

    def test_invalid_banks(self):
        with pytest.raises(ValueError):
            RowUtilizationTable(banks=0)

    def test_line_mask_distinct_property(self):
        rut = RowUtilizationTable(banks=1)
        for col in [0, 5, 5, 15, 0, 3]:
            rut.record_access(0, 1, col, 0)
        assert rut.get(0).line_mask.bit_count() == 4  # {0, 5, 15, 3}


class TestCT:
    def test_insert_and_contains(self):
        ct = ConflictTable(entries=4)
        ct.insert(0, 7, now=10)
        assert (0, 7) in ct
        assert len(ct) == 1

    def test_check_and_remove_hit(self):
        ct = ConflictTable(entries=4)
        ct.insert(0, 7, 0)
        assert ct.check_and_remove(0, 7) is True
        assert (0, 7) not in ct
        assert ct.promotions == 1

    def test_check_and_remove_miss(self):
        ct = ConflictTable(entries=4)
        assert ct.check_and_remove(0, 7) is False
        assert ct.promotions == 0

    def test_lru_eviction_order(self):
        ct = ConflictTable(entries=2)
        ct.insert(0, 1, 0)
        ct.insert(0, 2, 1)
        evicted = ct.insert(0, 3, 2)
        assert evicted == (0, 1)
        assert (0, 1) not in ct and (0, 2) in ct and (0, 3) in ct

    def test_reinsert_refreshes_lru(self):
        ct = ConflictTable(entries=2)
        ct.insert(0, 1, 0)
        ct.insert(0, 2, 1)
        ct.insert(0, 1, 2)  # refresh row 1
        evicted = ct.insert(0, 3, 3)
        assert evicted == (0, 2)

    def test_reinsert_does_not_duplicate(self):
        ct = ConflictTable(entries=4)
        ct.insert(0, 1, 0)
        ct.insert(0, 1, 1)
        assert len(ct) == 1
        assert ct.insertions == 1

    def test_shared_across_banks(self):
        ct = ConflictTable(entries=4)
        ct.insert(0, 7, 0)
        ct.insert(1, 7, 1)  # same row id, different bank -> distinct key
        assert len(ct) == 2
        assert ct.check_and_remove(0, 7)
        assert (1, 7) in ct

    def test_eviction_counter(self):
        ct = ConflictTable(entries=1)
        ct.insert(0, 1, 0)
        ct.insert(0, 2, 1)
        assert ct.evictions == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ConflictTable(entries=0)

    def test_paper_capacity_default(self):
        assert ConflictTable().capacity == 32
