"""Tests for warmup statistics reset and the periodic sampler."""

import hashlib
import json

import pytest

from repro.fabric import FabricConfig, FabricSystem, FabricSystemConfig
from repro.faults import LinkFaultConfig
from repro.hmc.config import HMCConfig
from repro.sim.engine import Engine
from repro.sim.sampler import Sampler
from repro.system import System, SystemConfig, run_system
from repro.workloads.mixes import mix
from repro.workloads.multistream import MultiStreamSpec, build_stream_traces
from repro.workloads.synthetic import generate_trace


@pytest.fixture
def traces():
    return [generate_trace("gcc", 500, seed=i, core_id=i) for i in range(2)]


class TestSampler:
    def test_samples_on_period(self):
        eng = Engine()
        state = {"v": 0}
        s = Sampler(eng, interval=10)
        hist = s.probe("v", lambda: state["v"])
        s.start()
        eng.schedule(35, lambda: None)  # strong work keeps the engine alive
        eng.run()
        assert s.samples_taken == 3  # t=10, 20, 30
        assert hist.n == 3

    def test_probe_values_recorded(self):
        eng = Engine()
        s = Sampler(eng, interval=5)
        counter = iter(range(100))
        hist = s.probe("c", lambda: next(counter))
        s.start()
        eng.schedule(20, lambda: None)
        eng.run()
        # ticks at t=5, 10, 15; the tick scheduled for t=20 does not fire
        # because the last strong event completes first
        assert hist.mean == pytest.approx((0 + 1 + 2) / 3)

    def test_weak_events_do_not_block_termination(self):
        eng = Engine()
        s = Sampler(eng, interval=1)
        s.probe("x", lambda: 1)
        s.start()
        eng.schedule(3, lambda: None)
        eng.run()  # must terminate despite the self-rearming sampler
        assert eng.now == 3

    def test_start_idempotent(self):
        eng = Engine()
        s = Sampler(eng, interval=10)
        s.probe("x", lambda: 1)
        s.start()
        s.start()
        eng.schedule(10, lambda: None)
        eng.run()
        assert s.samples_taken == 1

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            Sampler(Engine(), interval=0)

    def test_histograms_accessor(self):
        s = Sampler(Engine())
        s.probe("a", lambda: 1)
        s.probe("b", lambda: 2)
        assert set(s.histograms()) == {"a", "b"}

    def test_duplicate_probe_rejected(self):
        # A duplicate name would silently shadow the first histogram in
        # histograms(); match Timeline.probe and refuse it up front.
        s = Sampler(Engine())
        s.probe("depth", lambda: 1)
        with pytest.raises(ValueError, match="duplicate probe"):
            s.probe("depth", lambda: 2)
        assert set(s.histograms()) == {"depth"}


class TestWarmup:
    def test_warmup_reset_shrinks_counted_accesses(self, traces):
        full = run_system(traces, scheme="camps-mod")
        warm = System(
            traces,
            SystemConfig(scheme="camps-mod", stats_warmup_cycles=full.cycles // 2),
        ).run()
        # same simulation, but only post-warmup activity is counted
        assert warm.cycles == full.cycles  # timing identical
        assert warm.demand_accesses + warm.buffer_hits < (
            full.demand_accesses + full.buffer_hits
        )
        assert warm.energy_pj < full.energy_pj

    def test_warmup_after_end_counts_nothing_dynamic(self, traces):
        full = run_system(traces, scheme="base")
        warm = System(
            traces,
            SystemConfig(scheme="base", stats_warmup_cycles=full.cycles + 10_000),
        ).run()
        # warmup boundary never fires (weak event beyond last strong work)
        # OR fires after all traffic - either way dynamic counts survive or
        # are zeroed consistently; the run itself must be unperturbed.
        assert warm.cycles == full.cycles
        assert warm.core_ipc == full.core_ipc

    def test_warmup_does_not_change_timing_or_ipc(self, traces):
        a = run_system(traces, scheme="camps")
        b = System(
            traces, SystemConfig(scheme="camps", stats_warmup_cycles=1000)
        ).run()
        assert a.cycles == b.cycles
        assert a.core_ipc == b.core_ipc

    def test_warmup_latency_histogram_post_boundary_only(self, traces):
        full = run_system(traces, scheme="none")
        warm = System(
            traces,
            SystemConfig(scheme="none", stats_warmup_cycles=full.cycles // 2),
        ).run()
        assert warm.extra["events_fired"] >= 0
        # fewer samples in the post-warmup latency histogram
        assert warm.mean_read_latency >= 0.0


# ----------------------------------------------------------------------
# Warmup exactness under the response-link reservation lead
# ----------------------------------------------------------------------
#: result fields a warmup reset touches (events_fired excluded: it counts
#: engine work, not the model), plus the link fault counters
_WARM_FIELDS = (
    "cycles",
    "core_ipc",
    "row_conflicts",
    "demand_accesses",
    "buffer_hits",
    "prefetches_issued",
    "row_accuracy",
    "line_accuracy",
    "mean_memory_latency",
    "mean_read_latency",
    "energy_pj",
    "link_utilization",
)


def warm_digest(result):
    payload = {f: getattr(result, f) for f in _WARM_FIELDS}
    payload["link_faults"] = result.extra.get("link_faults")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


_FAULTS = LinkFaultConfig(ber=2e-5, drop_prob=0.01, seed=7)


class TestWarmupExactness:
    """Warmup runs pinned to digests taken when each response crossed the
    crossbar as its own engine event.  Responses now reserve the link
    ``crossbar_latency`` cycles before they transmit, so the boundary's
    response half runs that much earlier; these pins show the split of
    link traffic and energy at the boundary did not move."""

    @pytest.mark.parametrize(
        "name,scheme,warmup,hmc,digest",
        [
            ("MX1", "camps", 4000, HMCConfig(),
             "0fe4030140b6d5dcd6827885122a52891fa6e2a50c7b9a65bcd388d3cfb2a612"),
            ("HM3", "camps-mod", 9000, HMCConfig(faults=_FAULTS),
             "947ac17a1fa97a970d686f48664a64a96081eb4136c1731758c54539eea5befa"),
            # the run ends between the response half and the boundary
            # itself, so the boundary never fires and nothing is reset
            ("LM1", "none", 32832, HMCConfig(),
             "a72299f753da107caaacae2d34c924b135d862660ccf9942683b851f8a6a6842"),
        ],
        ids=["MX1-camps", "HM3-camps-mod-faults", "LM1-none-ends-first"],
    )
    def test_system_warmup_digest(self, name, scheme, warmup, hmc, digest):
        result = System(
            mix(name, 300, seed=1),
            SystemConfig(scheme=scheme, hmc=hmc, stats_warmup_cycles=warmup),
        ).run()
        assert warm_digest(result) == digest

    def test_fabric_warmup_digest(self):
        # star:8 shares each host link between two cubes, so the response
        # flits re-credited at the boundary must go to the right cube
        fabric = FabricConfig.from_spec("star:8", hmc=HMCConfig(faults=_FAULTS))
        spec = MultiStreamSpec.per_cube("MX1", 8, 200, seed=1)
        fsys = FabricSystem(
            build_stream_traces(spec, fabric),
            FabricSystemConfig(fabric=fabric, scheme="camps", stats_warmup_cycles=6000),
        )
        result = fsys.run()
        assert warm_digest(result) == (
            "7fab972d0481c6b0093fc04bfba089751aa2c2c0a9997da08c975f88afb1b99f"
        )
        assert [dev.energy.link_flits for dev in fsys.devices] == [
            7660, 7495, 7411, 7415, 7679, 7477, 7576, 7456,
        ]
