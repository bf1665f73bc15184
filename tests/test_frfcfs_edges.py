"""FR-FCFS edge cases: exact watermark transitions, oldest-first tie-breaks,
and randomized equivalence of the live issue loop against a naive oracle.

``VaultController._try_issue`` scans per-bank buckets; its claim (the
comment above the scan) is order-identity with the naive whole-FIFO scan:
oldest ready row hit, else oldest ready request, with write-drain hysteresis
deciding direction priority.  :func:`naive_oracle` *is* that naive scan,
replayed on copies of the same queues and banks over randomized
admission/issue streams.
"""

import copy
import random

import pytest

from repro.dram.bank import AccessKind
from repro.request import MemoryRequest
from repro.vault.controller import VaultController
from tests.test_scheduler import issue, make_vc, req


def admit(vc, *reqs):
    for r in reqs:
        vc.queues.admit(r)


# ----------------------------------------------------------------------
# Exact watermark transitions (depth 4: high 3, low 1)
# ----------------------------------------------------------------------
class TestWatermarkEdges:
    def test_drain_enters_exactly_at_high(self):
        vc = make_vc(depth=4)
        r = req(bank=0)
        w1, w2 = req(bank=1, write=True), req(bank=2, write=True)
        admit(vc, r, w1, w2)
        # two writes, one below the high watermark: reads keep priority
        assert issue(vc, 0) == [r, w1, w2]
        assert not vc.scheduler.draining and vc.scheduler.drain_entries == 0

        vc = make_vc(depth=4)
        r = req(bank=0)
        ws = [req(bank=b, write=True) for b in (1, 2, 3)]
        admit(vc, r, *ws)
        # pending writes == high: drain begins before the first pick
        got = issue(vc, 0)
        assert got[0] is ws[0]
        assert vc.scheduler.drain_entries == 1

    def test_drain_exits_exactly_at_low(self):
        vc = make_vc(depth=4)
        w0, w1, w2 = (req(bank=b, write=True) for b in range(3))
        r = req(bank=3)
        admit(vc, w0, w1, w2, r)
        # 3 == high: drain, oldest write first; 2 pending: one above low,
        # still draining; 1 pending == low: exit, the read regains priority
        # and the remaining write issues only after it
        assert issue(vc, 0) == [w0, w1, r, w2]
        assert vc.scheduler.drain_entries == 1
        assert not vc.scheduler.draining

    def test_drain_exits_on_empty_queues(self):
        vc = make_vc(depth=2)  # high 1, low 0
        vc.banks[0].access(AccessKind.READ, 5, 0)
        w = req(bank=0, write=True)
        admit(vc, w)
        # bank busy: the drain starts but nothing issues
        assert issue(vc, 0) == []
        assert vc.scheduler.draining
        # the last write empties the queues; the drain exits in the same pass
        assert issue(vc, vc.banks[0].busy_until) == [w]
        assert not vc.scheduler.draining


# ----------------------------------------------------------------------
# Oldest-first tie-breaks among equally ready banks
# ----------------------------------------------------------------------
class TestOldestFirst:
    def test_admission_order_wins_across_banks(self):
        vc = make_vc(depth=8)
        reqs = [req(bank=b, row=b) for b in (2, 0, 3, 1)]
        admit(vc, *reqs)
        # all banks idle, no open rows: issue order is admission order,
        # regardless of bank numbering
        assert issue(vc, 0) == reqs

    def test_oldest_row_hit_wins_among_equally_ready_hits(self):
        vc = make_vc(depth=8)
        banks = vc.banks
        banks[1].access(AccessKind.READ, 7, 0)
        banks[2].access(AccessKind.READ, 7, 0)
        now = max(banks[1].busy_until, banks[2].busy_until)
        older_miss = req(bank=0, row=0)
        older_hit = req(bank=2, row=7)
        younger_hit = req(bank=1, row=7)
        admit(vc, older_miss, older_hit, younger_hit)
        # both hits are ready; the older hit wins, bypassing the oldest
        # (non-hit) request entirely
        assert issue(vc, now) == [older_hit, younger_hit, older_miss]


# ----------------------------------------------------------------------
# Randomized equivalence against the naive whole-FIFO oracle
# ----------------------------------------------------------------------
def naive_oracle(vc, now):
    """Test oracle: the naive FR-FCFS scan ``_try_issue`` claims identity with.

    Replays one issue pass on copies of the vault's FIFOs and banks:
    hysteresis, then oldest-ready-hit-else-oldest-ready over the prioritized
    direction, issuing until the scan returns None.  Returns ``(issued,
    draining_after, drain_entries)``; the live state is left untouched.
    """
    sched = vc.scheduler
    banks = copy.deepcopy(vc.banks)
    reads, writes = list(vc.queues.reads), list(vc.queues.writes)
    draining = sched.draining
    entries = 0

    def scan(fifo):
        first_hit = None
        first_ready = None
        for i, r in enumerate(fifo):  # FIFO order == qseq order
            bank = banks[r.bank]
            if bank.busy_until > now:
                continue
            if bank.open_row is not None and bank.open_row == r.row:
                if first_hit is None:
                    first_hit = i
            elif first_ready is None:
                first_ready = i
        return first_hit if first_hit is not None else first_ready

    issued = []
    while reads or writes:
        pending_writes = len(writes)
        if draining:
            if pending_writes <= sched.write_low:
                draining = False
        elif pending_writes >= sched.write_high:
            draining = True
            entries += 1
        order = (writes, reads) if draining else (reads, writes)
        for fifo in order:
            i = scan(fifo)
            if i is not None:
                break
        if i is None:
            break
        chosen = fifo.pop(i)
        kind = AccessKind.WRITE if chosen.is_write else AccessKind.READ
        banks[chosen.bank].access(kind, chosen.row, now)
        issued.append(chosen)
    else:
        draining = False  # empty queues: the drain exits (0 <= low)
    return issued, draining, entries


def run_equivalence(seed, steps=400, nbanks=8, depth=12):
    """Drive ``steps`` randomized admit/issue rounds (watermarks 9/3 at the
    default depth), asserting each live pass matches the oracle."""
    rng = random.Random(seed)
    vc = make_vc(nbanks=nbanks, depth=depth)
    q = vc.queues
    now = 0
    issued = 0
    for _ in range(steps):
        for _ in range(rng.randrange(4)):
            write = rng.random() < 0.45
            fifo = q.writes if write else q.reads
            if len(fifo) >= depth:
                continue  # keep staging out of play: oracle scans the FIFOs
            r = MemoryRequest(0, write)
            r.bank = rng.randrange(nbanks)
            r.row = rng.randrange(4)
            q.admit(r)
        expected, expected_draining, entries = naive_oracle(vc, now)
        entries_before = vc.scheduler.drain_entries
        got = issue(vc, now)
        assert [id(r) for r in got] == [id(r) for r in expected], (
            f"seed={seed} t={now}: live issued {got!r}, oracle {expected!r}"
        )
        assert vc.scheduler.draining == expected_draining
        assert vc.scheduler.drain_entries - entries_before == entries
        issued += len(got)
        # advance unevenly: sometimes stay in-cycle (banks busy), sometimes
        # jump past every busy horizon
        if rng.random() < 0.6:
            now += rng.randrange(0, 12)
        else:
            now += rng.randrange(0, 120)
    assert not q.staging
    assert issued > steps // 8, f"seed={seed}: degenerate stream ({issued} issues)"
    return vc.scheduler.drain_entries


@pytest.mark.parametrize("seed", range(8))
def test_indexed_matches_naive_oracle(seed):
    run_equivalence(seed)


def test_randomized_streams_exercise_drain_mode():
    """The equivalence streams must actually cross the watermarks, or the
    drain-direction half of the oracle is dead code."""
    total = sum(run_equivalence(seed, steps=250) for seed in range(100, 104))
    assert total > 0


def test_pass_starting_empty_is_never_draining(monkeypatch):
    """``_try_issue`` has no drain exit for a pass that starts with empty
    queues, because none is needed.  Queues only empty inside a pass, one
    issue per loop iteration.  With a low watermark of 1 or more, the
    loop-top hysteresis check ends the drain before the last write leaves;
    with a low watermark of 0 (write depth below 4), the mid-scan branch
    ends it when the queues run dry.  Checked at the entry of every pass
    over randomized drain-mode streams at both kinds of watermark."""
    seen = {}
    live = VaultController._try_issue

    def checked(vc):
        q = vc.queues
        if not q.reads_by_bank and not q.writes_by_bank:
            assert not vc.scheduler.draining
            if vc.scheduler.drain_entries:
                low = vc.scheduler.write_low
                seen[low] = seen.get(low, 0) + 1
        live(vc)

    monkeypatch.setattr(VaultController, "_try_issue", checked)
    for seed in range(100, 104):
        run_equivalence(seed, steps=250)  # depth 12: watermarks 9/3
        run_equivalence(seed, steps=250, depth=3)  # watermarks 2/0
    # both kinds of stream reach empty queues after a drain, or the check
    # is vacuous
    assert seen.get(0, 0) > 0 and seen.get(3, 0) > 0
