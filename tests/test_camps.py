"""Unit tests for the CAMPS decision logic (paper Section 3.1 / Figure 3)."""

import pytest

from repro.core.buffer import LRUPolicy, UtilizationRecencyPolicy
from repro.core.camps import CampsParams, CampsPrefetcher
from repro.dram.bank import RowOutcome
from repro.hmc.config import HMCConfig


@pytest.fixture
def cfg():
    return HMCConfig()


@pytest.fixture
def pf(cfg):
    return CampsPrefetcher(0, cfg)


def hit(pf, bank, row, col, now=0):
    return pf.on_demand_access(bank, row, col, False, RowOutcome.HIT, now)


def empty(pf, bank, row, col, now=0):
    return pf.on_demand_access(bank, row, col, False, RowOutcome.EMPTY, now)


def conflict(pf, bank, row, col, now=0):
    return pf.on_demand_access(bank, row, col, False, RowOutcome.CONFLICT, now)


class TestUtilizationPath:
    def test_threshold_triggers_whole_row_prefetch(self, pf):
        empty(pf, 0, 5, 0)  # distinct line 1
        assert hit(pf, 0, 5, 1) == []  # 2
        assert hit(pf, 0, 5, 2) == []  # 3
        actions = hit(pf, 0, 5, 3)  # 4 -> threshold
        assert len(actions) == 1
        a = actions[0]
        assert (a.bank, a.row) == (0, 5)
        assert a.line_mask == pf.full_mask
        assert a.precharge_after
        assert pf.utilization_prefetches == 1

    def test_duplicate_lines_do_not_count(self, pf):
        empty(pf, 0, 5, 0)
        for _ in range(10):
            assert hit(pf, 0, 5, 0) == []  # same line repeatedly
        assert pf.utilization_prefetches == 0

    def test_rut_cleared_after_prefetch(self, pf):
        empty(pf, 0, 5, 0)
        hit(pf, 0, 5, 1)
        hit(pf, 0, 5, 2)
        hit(pf, 0, 5, 3)
        assert pf.rut.get(0) is None

    def test_seed_carries_served_lines(self, pf):
        empty(pf, 0, 5, 0)
        hit(pf, 0, 5, 1)
        hit(pf, 0, 5, 2)
        actions = hit(pf, 0, 5, 3)
        assert actions[0].seed_ref_mask == 0b1111

    def test_custom_threshold(self, cfg):
        pf = CampsPrefetcher(0, cfg, params=CampsParams(utilization_threshold=2))
        empty(pf, 0, 5, 0)
        actions = hit(pf, 0, 5, 1)
        assert len(actions) == 1

    def test_access_count_mode(self, cfg):
        pf = CampsPrefetcher(
            0, cfg, params=CampsParams(utilization_threshold=3, count_distinct=False)
        )
        empty(pf, 0, 5, 0)
        hit(pf, 0, 5, 0)
        actions = hit(pf, 0, 5, 0)  # 3 raw accesses to one line
        assert len(actions) == 1


class TestConflictPath:
    def test_first_conflict_records_displaced_row_in_ct(self, pf):
        empty(pf, 0, 5, 0)  # row 5 open, tracked
        actions = conflict(pf, 0, 6, 0)  # row 6 displaces row 5
        assert actions == []
        assert (0, 5) in pf.ct
        assert pf.rut.get(0).row == 6

    def test_second_conflict_triggers_prefetch(self, pf):
        empty(pf, 0, 5, 0)
        conflict(pf, 0, 6, 0)  # 5 -> CT
        actions = conflict(pf, 0, 5, 2)  # 5 re-activated, found in CT
        assert len(actions) == 1
        assert actions[0].row == 5
        assert actions[0].precharge_after
        assert pf.conflict_prefetches == 1
        assert (0, 5) not in pf.ct  # entry removed per the paper

    def test_ct_hit_on_empty_activation(self, pf):
        empty(pf, 0, 5, 0)
        conflict(pf, 0, 6, 0)  # 5 -> CT
        # bank was precharged meanwhile; row 5 activates into an empty bank
        actions = empty(pf, 0, 5, 3)
        assert len(actions) == 1
        assert actions[0].row == 5

    def test_conflict_prefetch_seeds_current_line(self, pf):
        empty(pf, 0, 5, 0)
        conflict(pf, 0, 6, 0)
        actions = conflict(pf, 0, 5, 7)
        assert actions[0].seed_ref_mask == 1 << 7

    def test_rut_cleared_after_conflict_prefetch(self, pf):
        empty(pf, 0, 5, 0)
        conflict(pf, 0, 6, 0)
        conflict(pf, 0, 5, 0)
        assert pf.rut.get(0) is None

    def test_non_ct_conflict_keeps_row_tracked(self, pf):
        empty(pf, 0, 5, 0)
        conflict(pf, 0, 6, 2)
        e = pf.rut.get(0)
        assert e.row == 6 and e.line_mask.bit_count() == 1

    def test_three_way_pingpong(self, pf):
        """A, B, C alternating in one bank: every row prefetched by round 2."""
        empty(pf, 0, 1, 0)
        assert conflict(pf, 0, 2, 0) == []
        assert conflict(pf, 0, 3, 0) == []
        # round 2: every activation finds its row in the CT
        assert len(conflict(pf, 0, 1, 1)) == 1
        assert len(conflict(pf, 0, 2, 1)) == 1
        assert len(conflict(pf, 0, 3, 1)) == 1
        assert pf.conflict_prefetches == 3

    def test_ct_capacity_lru(self, cfg):
        pf = CampsPrefetcher(0, cfg, params=CampsParams(conflict_table_entries=2))
        empty(pf, 0, 1, 0)
        conflict(pf, 0, 2, 0)  # 1 -> CT
        conflict(pf, 0, 3, 0)  # 2 -> CT
        conflict(pf, 0, 4, 0)  # 3 -> CT, evicts 1
        assert (0, 1) not in pf.ct
        assert conflict(pf, 0, 1, 0) == []  # no longer conflict-prone


class TestVariants:
    def test_plain_camps_uses_lru(self, cfg):
        assert isinstance(CampsPrefetcher(0, cfg).make_policy(), LRUPolicy)

    def test_mod_uses_util_recency(self, cfg):
        pf = CampsPrefetcher(0, cfg, modified=True)
        assert isinstance(pf.make_policy(), UtilizationRecencyPolicy)
        assert pf.name == "camps-mod"

    def test_describe_mentions_params(self, cfg):
        d = CampsPrefetcher(0, cfg).describe()
        assert "threshold=4" in d and "CT=32" in d

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CampsParams(utilization_threshold=0)
        with pytest.raises(ValueError):
            CampsParams(conflict_table_entries=0)

    def test_prefetches_issued_counter(self, pf):
        empty(pf, 0, 5, 0)
        hit(pf, 0, 5, 1)
        hit(pf, 0, 5, 2)
        hit(pf, 0, 5, 3)
        assert pf.prefetches_issued == 1


class TestBankIsolation:
    def test_banks_tracked_independently(self, pf):
        empty(pf, 0, 5, 0)
        empty(pf, 1, 5, 0)  # same row id, other bank
        hit(pf, 0, 5, 1)
        hit(pf, 0, 5, 2)
        actions = hit(pf, 0, 5, 3)
        assert len(actions) == 1
        assert pf.rut.get(1) is not None  # bank 1 unaffected

    def test_ct_keys_include_bank(self, pf):
        empty(pf, 0, 5, 0)
        conflict(pf, 0, 6, 0)  # (0,5) -> CT
        # same row id conflicting in another bank is NOT in the CT
        assert conflict(pf, 1, 5, 0) == []
