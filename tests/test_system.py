"""Integration tests for the full system (cores + host + HMC)."""

import numpy as np
import pytest

from repro.hmc.config import HMCConfig
from repro.system import SimulationResult, System, SystemConfig, run_system
from repro.workloads.synthetic import generate_trace


@pytest.fixture
def traces():
    return [generate_trace("gcc", 400, seed=i, core_id=i) for i in range(2)]


class TestRunToCompletion:
    def test_all_schemes_complete(self, traces):
        for scheme in ("none", "base", "base-hit", "mmd", "camps", "camps-mod"):
            r = run_system(traces, scheme=scheme, workload="t")
            assert r.cycles > 0
            assert all(ipc > 0 for ipc in r.core_ipc)
            assert len(r.core_ipc) == 2

    def test_deterministic(self, traces):
        a = run_system(traces, scheme="camps-mod")
        b = run_system(traces, scheme="camps-mod")
        assert a.cycles == b.cycles
        assert a.core_ipc == b.core_ipc
        assert a.energy_pj == b.energy_pj

    def test_run_once_only(self, traces):
        s = System(traces, SystemConfig(scheme="base"))
        s.run()
        with pytest.raises(RuntimeError):
            s.run()

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            System([])

    def test_instructions_match_traces(self, traces):
        r = run_system(traces, scheme="none")
        for got, t in zip(r.core_instructions, traces):
            assert got == t.instructions


class TestResultInvariants:
    def test_base_has_zero_conflicts(self, traces):
        r = run_system(traces, scheme="base")
        assert r.row_conflicts == 0
        assert r.conflict_rate == 0.0

    def test_none_scheme_no_prefetches(self, traces):
        r = run_system(traces, scheme="none")
        assert r.prefetches_issued == 0
        assert r.buffer_hits == 0

    def test_prefetching_schemes_issue_prefetches(self, traces):
        for scheme in ("base", "mmd", "camps"):
            r = run_system(traces, scheme=scheme)
            assert r.prefetches_issued > 0, scheme

    def test_latency_at_least_physical_floor(self, traces):
        cfg = HMCConfig()
        r = run_system(traces, scheme="none")
        floor = 2 * cfg.serdes_latency + 2 * cfg.crossbar_latency
        assert r.mean_read_latency > floor

    def test_accuracy_in_unit_interval(self, traces):
        for scheme in ("base", "camps-mod"):
            r = run_system(traces, scheme=scheme)
            assert 0.0 <= r.row_accuracy <= 1.0
            assert 0.0 <= r.line_accuracy <= 1.0

    def test_energy_breakdown_sums(self, traces):
        r = run_system(traces, scheme="camps")
        assert r.energy_pj == pytest.approx(sum(r.energy_breakdown.values()))

    def test_speedup_vs_self_is_one(self, traces):
        r = run_system(traces, scheme="base")
        assert r.speedup_vs(r) == pytest.approx(1.0)

    def test_speedup_core_count_mismatch(self, traces):
        a = run_system(traces, scheme="base")
        b = run_system(traces[:1], scheme="base")
        with pytest.raises(ValueError):
            a.speedup_vs(b)

    def test_summary_keys(self, traces):
        s = run_system(traces, scheme="camps").summary()
        assert set(s) == {
            "geomean_ipc",
            "conflict_rate",
            "row_accuracy",
            "mean_read_latency",
            "energy_pj",
        }


class TestCacheMode:
    def test_hierarchy_filters_traffic(self):
        # a trace with heavy reuse: most accesses should hit the caches
        rng = np.random.default_rng(7)
        addrs = rng.choice(np.arange(64) * 64, size=2000)  # 64-line hot set
        from repro.workloads.trace import Trace

        t = Trace(np.full(2000, 3), addrs, np.zeros(2000, bool))
        r = run_system([t], scheme="none", use_caches=True)
        assert r.extra["llc_hit_rate"] >= 0.0
        assert r.extra["llc_misses"] <= 200  # most filtered by caches
        assert r.cycles > 0

    def test_cache_mode_faster_than_direct_for_hot_set(self):
        rng = np.random.default_rng(7)
        addrs = rng.choice(np.arange(64) * 64, size=1500)
        from repro.workloads.trace import Trace

        t = Trace(np.full(1500, 3), addrs, np.zeros(1500, bool))
        with_caches = run_system([t], scheme="none", use_caches=True)
        without = run_system([t], scheme="none", use_caches=False)
        assert with_caches.cycles < without.cycles

    def test_cache_mode_all_schemes(self):
        t = generate_trace("h264ref", 300, seed=1)
        for scheme in ("base", "camps-mod"):
            r = run_system([t], scheme=scheme, use_caches=True)
            assert r.cycles > 0


class TestReleaseAfterRun:
    """A finished System is freed by reference counting alone.

    The hot-path context packs hold bound methods of their owners, and
    host, device, vaults and prefetchers point at each other.  Unless
    ``run()`` breaks those cycles before it returns, a finished System is
    cyclic garbage (about 1.5 MB at 800 refs/core) that waits for a full
    collection, and an in-process loop's peak memory depends on GC timing.
    """

    @staticmethod
    def held_after_del(build):
        import gc
        import tracemalloc

        build().run()  # warm imports and pools outside the measurement
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system = build()
            result = system.run()
            del system, result
            held = tracemalloc.get_traced_memory()[0] - before
            garbage = gc.collect()
        finally:
            tracemalloc.stop()
            gc.enable()
        return held, garbage

    @pytest.mark.parametrize(
        "scheme,use_caches",
        [("camps-mod", False), ("none", False), ("base-hit", False),
         ("mmd", False), ("camps", True)],
    )
    def test_system_freed_without_cyclic_gc(self, scheme, use_caches):
        from repro.workloads.mixes import mix

        traces = mix("MX1", 800, seed=1)
        held, garbage = self.held_after_del(
            lambda: System(traces, SystemConfig(scheme=scheme, use_caches=use_caches))
        )
        assert garbage == 0
        assert held < 300_000  # the MemoryRequest pool and small caches

    def test_fabric_freed_without_cyclic_gc(self):
        from repro.fabric import FabricConfig, FabricSystem, FabricSystemConfig
        from repro.workloads.multistream import MultiStreamSpec, build_stream_traces

        fabric = FabricConfig.from_spec("ring:4")
        traces = build_stream_traces(
            MultiStreamSpec.per_cube("MX1", 4, 200, seed=1), fabric
        )
        held, garbage = self.held_after_del(
            lambda: FabricSystem(traces, FabricSystemConfig(fabric=fabric))
        )
        assert garbage == 0

    def test_results_readable_after_release(self):
        from repro.workloads.mixes import mix

        system = System(mix("MX1", 200, seed=1), SystemConfig(scheme="camps"))
        result = system.run()
        assert system.host.outstanding == 0
        assert system.device.demand_accesses == result.demand_accesses
        assert system.engine.pending == 0
        with pytest.raises(RuntimeError):
            system.run()
