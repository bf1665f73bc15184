"""Unit tests for FR-FCFS scheduling, driven through the live issue loop.

The scan runs in :meth:`VaultController._try_issue`; each test admits
requests, sets the engine clock, runs one issue pass and reads the issue
order back from the completion events it pushed onto the engine heap.
"""

import pytest

from repro.core.schemes import make_prefetcher
from repro.dram.bank import AccessKind
from repro.hmc.config import HMCConfig
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.vault.controller import VaultController
from repro.vault.queues import VaultQueues
from repro.vault.scheduler import FRFCFSScheduler


def req(bank=0, row=0, write=False):
    r = MemoryRequest(0, write)
    r.bank, r.row = bank, row
    return r


def make_vc(nbanks=4, depth=8):
    """A vault controller with no prefetcher; write watermarks are
    ``3*depth//4`` (high) and ``depth//4`` (low)."""
    cfg = HMCConfig(
        banks_per_vault=nbanks, read_queue_depth=depth, write_queue_depth=depth
    )
    return VaultController(
        0, cfg, Engine(), make_prefetcher("none", 0, cfg), lambda r, t: None
    )


def issue(vc, now):
    """One ``_try_issue`` pass at ``now``; the requests it issued, in order."""
    eng = vc.engine
    eng.now = now
    last = eng._seq
    vc._try_issue()
    done = [
        e
        for e in eng._heap
        if len(e) == 5 and e[2] > last and e[3] == vc._access_done
    ]
    return [e[4][0] for e in sorted(done, key=lambda e: e[2])]


@pytest.fixture
def vc():
    return make_vc()


class TestFirstReady:
    def test_oldest_when_no_row_hits(self, vc):
        a, b = req(bank=0, row=1), req(bank=1, row=2)
        vc.queues.admit(a)
        vc.queues.admit(b)
        assert issue(vc, 0) == [a, b]

    def test_row_hit_bypasses_older(self, vc):
        banks = vc.banks
        banks[1].access(AccessKind.READ, 7, 0)  # open row 7 in bank 1
        now = banks[1].busy_until
        older = req(bank=0, row=1)
        hit = req(bank=1, row=7)
        vc.queues.admit(older)
        vc.queues.admit(hit)
        assert issue(vc, now) == [hit, older]
        assert vc.scheduler.row_hit_issues == 1
        assert vc.scheduler.fcfs_issues == 1

    def test_oldest_row_hit_wins_among_hits(self, vc):
        banks = vc.banks
        banks[0].access(AccessKind.READ, 7, 0)
        now = banks[0].busy_until
        h1, h2 = req(bank=0, row=7), req(bank=0, row=7)
        vc.queues.admit(h1)
        vc.queues.admit(h2)
        # the bank is busy after h1, so h2 waits for the next pass
        assert issue(vc, now) == [h1]

    def test_busy_bank_skipped(self, vc):
        vc.banks[0].access(AccessKind.READ, 1, 0)  # bank 0 busy until finish
        blocked = req(bank=0, row=1)
        ready = req(bank=1, row=2)
        vc.queues.admit(blocked)
        vc.queues.admit(ready)
        assert issue(vc, 0) == [ready]

    def test_nothing_ready_returns_none(self, vc):
        vc.banks[0].access(AccessKind.READ, 1, 0)
        vc.queues.admit(req(bank=0, row=1))
        assert issue(vc, 0) == []

    def test_chosen_request_removed_from_queue(self, vc):
        vc.queues.admit(req(bank=0, row=1))
        issue(vc, 0)
        assert len(vc.queues.reads) == 0


class TestReadWritePriority:
    def test_reads_before_writes(self, vc):
        w = req(bank=0, row=1, write=True)
        r = req(bank=1, row=2, write=False)
        vc.queues.admit(w)
        vc.queues.admit(r)
        assert issue(vc, 0) == [r, w]

    def test_writes_issue_when_no_reads(self, vc):
        w = req(bank=0, row=1, write=True)
        vc.queues.admit(w)
        assert issue(vc, 0) == [w]

    def test_drain_mode_flips_priority(self):
        vc = make_vc(depth=3)  # watermarks: high 2, low 0
        r = req(bank=1, row=9)
        w1, w2 = req(bank=0, row=1, write=True), req(bank=0, row=2, write=True)
        for x in (r, w1, w2):
            vc.queues.admit(x)
        # draining: the oldest write goes first; w2 waits on busy bank 0,
        # so the read is the fallback
        assert issue(vc, 0) == [w1, r]
        assert vc.scheduler.draining

    def test_drain_mode_exits_at_low_watermark(self):
        vc = make_vc(depth=3)  # watermarks: high 2, low 0
        vc.queues.admit(req(bank=0, row=1, write=True))
        vc.queues.admit(req(bank=1, row=2, write=True))
        assert len(issue(vc, 0)) == 2  # write queue now empty -> drain exits
        assert not vc.scheduler.draining
        r = req(bank=2, row=3)
        vc.queues.admit(r)
        assert issue(vc, 0) == [r]  # back to read priority
        assert not vc.scheduler.draining

    def test_watermark_validation(self, vc):
        with pytest.raises(ValueError):
            FRFCFSScheduler(
                vc.banks,
                VaultQueues(8, 8),
                write_high_watermark=1,
                write_low_watermark=5,
            )


class TestWakeup:
    def test_earliest_wakeup_none_when_empty(self, vc):
        issue(vc, 0)
        assert vc._wake is None

    def test_earliest_wakeup_none_when_issueable(self, vc):
        vc.queues.admit(req(bank=0, row=1))
        issue(vc, 0)
        # everything issueable issued: no timer, the completion re-runs issue
        assert vc._wake is None

    def test_earliest_wakeup_min_busy_until(self, vc):
        banks = vc.banks
        banks[0].access(AccessKind.READ, 1, 0)
        banks[1].access(AccessKind.READ, 1, 0)
        banks[1].access(AccessKind.READ, 1, 0)  # bank 1 busy longer
        vc.queues.admit(req(bank=0, row=1))
        vc.queues.admit(req(bank=1, row=1))
        assert issue(vc, 0) == []
        assert vc._wake.time == banks[0].busy_until

    def test_wake_rearms_earlier(self, vc):
        banks = vc.banks
        banks[1].refresh(0)  # busy for tRFC, longer than one access
        vc.queues.admit(req(bank=1, row=1))
        issue(vc, 0)
        late = vc._wake
        assert late.time == banks[1].busy_until
        banks[0].access(AccessKind.READ, 1, 0)
        vc.queues.admit(req(bank=0, row=1))
        issue(vc, 0)
        # the earlier bank replaces the later timer rather than adding one
        assert late.cancelled
        assert vc._wake.time == banks[0].busy_until < late.time
