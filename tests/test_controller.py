"""Unit/integration tests for the vault controller."""

import pytest

from repro.core.schemes import make_prefetcher
from repro.hmc.config import HMCConfig
from repro.request import MemoryRequest, ServiceSource
from repro.sim.engine import Engine
from repro.vault.controller import VaultController


@pytest.fixture
def cfg():
    return HMCConfig()


def make_vc(cfg, scheme="camps", engine=None):
    engine = engine or Engine()
    responses = []
    vc = VaultController(
        vault_id=0,
        config=cfg,
        engine=engine,
        prefetcher=make_prefetcher(scheme, 0, cfg),
        respond_fn=lambda req, ready: responses.append((req, ready)),
    )
    return vc, engine, responses


def req(bank=0, row=0, column=0, write=False):
    r = MemoryRequest(0, write)
    r.vault, r.bank, r.row, r.column = 0, bank, row, column
    return r


class TestDemandPath:
    def test_single_read_completes(self, cfg):
        vc, eng, responses = make_vc(cfg)
        r = req()
        eng.schedule(0, vc.receive, r)
        eng.run()
        assert len(responses) == 1
        assert responses[0][0] is r
        assert r.source is ServiceSource.BANK
        assert vc.demand_accesses == 1

    def test_two_reads_same_bank_serialize(self, cfg):
        vc, eng, responses = make_vc(cfg)
        a, b = req(row=1), req(row=1, column=1)
        eng.schedule(0, vc.receive, a)
        eng.schedule(0, vc.receive, b)
        eng.run()
        assert len(responses) == 2
        assert responses[1][1] > responses[0][1]

    def test_reads_different_banks_overlap(self, cfg):
        vc, eng, responses = make_vc(cfg, scheme="none")
        a, b = req(bank=0, row=1), req(bank=1, row=1)
        eng.schedule(0, vc.receive, a)
        eng.schedule(0, vc.receive, b)
        eng.run()
        # parallel banks: completion gap much smaller than full service time
        t0, t1 = sorted(x[1] for x in responses)
        assert t1 - t0 < cfg.timings.row_empty_read

    def test_writes_complete(self, cfg):
        vc, eng, responses = make_vc(cfg)
        w = req(write=True)
        eng.schedule(0, vc.receive, w)
        eng.run()
        assert len(responses) == 1
        assert vc.stats.counter("demand_writes").value == 1

    def test_vault_arrive_timestamp_set(self, cfg):
        vc, eng, _ = make_vc(cfg)
        r = req()
        eng.schedule(17, vc.receive, r)
        eng.run()
        assert r.vault_arrive_cycle == 17


class TestBufferPath:
    def test_prefetched_row_hits_buffer(self, cfg):
        vc, eng, responses = make_vc(cfg, scheme="base")
        first = req(row=5, column=0)
        eng.schedule(0, vc.receive, first)
        eng.run()
        # BASE fetched row 5; a request arriving after the fetch settles
        # hits the buffer
        second = req(row=5, column=3)
        eng.schedule(1000, vc.receive, second)
        eng.run()
        assert second.source is ServiceSource.PREFETCH_BUFFER
        assert vc.stats.counter("buffer_hits").value == 1
        # and it never touched a bank
        assert vc.demand_accesses == 1

    def test_buffer_hit_latency(self, cfg):
        vc, eng, responses = make_vc(cfg, scheme="base")
        eng.schedule(0, vc.receive, req(row=5, column=0))
        eng.run()
        second = req(row=5, column=3)
        eng.schedule(1000, vc.receive, second)  # well after the fetch settles
        eng.run()
        ready = [t for rq, t in responses if rq is second][0]
        assert ready == second.vault_arrive_cycle + cfg.pf_hit_latency

    def test_in_flight_hit_waits_for_row(self, cfg):
        vc, eng, responses = make_vc(cfg, scheme="base")
        first = req(row=5, column=0)
        second = req(row=5, column=3)
        eng.schedule(0, vc.receive, first)
        # Deliver the second request just after the first completes (the
        # fetch is still streaming) - it must merge with the in-flight row.
        fired = eng.run(max_events=2)
        entry = vc.buffer.get(0, 5)
        assert entry is not None
        vc.receive(second)
        assert second.source is ServiceSource.ROW_IN_FLIGHT
        ready = [t for rq, t in responses if rq is second][0]
        assert ready == entry.ready_time + cfg.pf_hit_latency
        eng.run()

    def test_none_scheme_has_no_buffer(self, cfg):
        vc, eng, _ = make_vc(cfg, scheme="none")
        assert vc.buffer is None
        eng.schedule(0, vc.receive, req())
        eng.run()
        assert vc.demand_accesses == 1


class TestPrefetchExecution:
    def test_base_fetches_row_and_precharges(self, cfg):
        vc, eng, _ = make_vc(cfg, scheme="base")
        eng.schedule(0, vc.receive, req(row=5))
        eng.run()
        assert vc.buffer.get(0, 5) is not None
        assert vc.banks[0].open_row is None  # precharged after fetch
        assert vc.banks[0].row_fetches == 1

    def test_camps_threshold_prefetch_through_controller(self, cfg):
        vc, eng, _ = make_vc(cfg, scheme="camps")
        for col in range(4):
            eng.schedule(0, vc.receive, req(row=5, column=col))
        eng.run()
        assert vc.buffer.get(0, 5) is not None
        entry = vc.buffer.get(0, 5)
        assert entry.ref_mask == 0b1111  # seeded with the 4 served lines

    def test_dirty_eviction_restores_row(self, cfg):
        small = cfg.with_overrides(pf_buffer_entries=1)
        vc, eng, _ = make_vc(small, scheme="base")
        w = req(row=5, column=0, write=True)
        eng.schedule(0, vc.receive, w)
        eng.run()
        # write into the buffered row to dirty it
        w2 = req(row=5, column=1, write=True)
        eng.schedule(0, vc.receive, w2)
        eng.run()
        assert vc.buffer.get(0, 5).is_dirty
        # new row evicts the dirty one -> restore_row on the bank
        eng.schedule(0, vc.receive, req(row=9))
        eng.run()
        assert vc.banks[0].row_restores == 1
        assert vc.stats.counter("dirty_row_writebacks").value == 1

    def test_queued_requests_not_redirected_to_buffer(self, cfg):
        """Arrival-only buffer semantics: requests already queued go to the
        bank even if their row is prefetched meanwhile."""
        vc, eng, _ = make_vc(cfg, scheme="base")
        reqs = [req(row=5, column=c) for c in range(3)]
        for r in reqs:
            eng.schedule(0, vc.receive, r)
        eng.run()
        # first request triggered the fetch; the other two were already
        # queued at fetch time (same cycle arrivals) -> served by the bank
        assert all(r.source is ServiceSource.BANK for r in reqs)


class TestStatsAndWakeups:
    def test_conflict_rate_counts_buffer_hits_in_denominator(self, cfg):
        vc, eng, _ = make_vc(cfg, scheme="base")
        eng.schedule(0, vc.receive, req(row=5, column=0))
        eng.run()
        eng.schedule(1000, vc.receive, req(row=5, column=1))
        eng.run()
        assert vc.conflict_rate() == 0.0
        assert vc.demand_accesses == 1

    def test_progress_when_bank_busy_with_prefetch_only(self, cfg):
        """A request queued behind a prefetch transfer (no completion event)
        must still issue via the wake mechanism."""
        vc, eng, responses = make_vc(cfg, scheme="base")
        eng.schedule(0, vc.receive, req(row=5))
        eng.run(max_events=2)  # receive + access_done: fetch now occupies bank
        assert vc.banks[0].busy_until > eng.now
        late = req(row=9)
        vc.receive(late)
        eng.run()
        assert late.is_complete or any(rq is late for rq, _ in responses)

    def test_many_requests_all_complete(self, cfg):
        vc, eng, responses = make_vc(cfg, scheme="camps-mod")
        n = 200
        for i in range(n):
            eng.schedule(
                i * 3, vc.receive, req(bank=i % 4, row=i % 7, column=i % 16, write=i % 5 == 0)
            )
        eng.run()
        assert len(responses) == n

    def test_reset_mid_drain_restarts_open_episode(self):
        """Drain residency after a warmup reset counts only cycles past the
        boundary, even when the drain episode began before it."""
        vc, eng, _ = make_vc(HMCConfig(write_queue_depth=4), scheme="none")
        for row in range(3):  # 3 == high watermark, all on one bank
            vc.queues.admit(req(row=row, write=True))
        vc._try_issue()  # cycle 0: drain begins, one write issues
        sched = vc.scheduler
        assert sched.draining and len(vc.queues.writes) == 2
        eng.now = 200
        vc.reset_statistics()
        assert sched.drain_cycles_at(400) == 200
