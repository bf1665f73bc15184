"""Tests for per-subsystem profile attribution (repro.sim.profiling)."""

from __future__ import annotations

import cProfile
import pstats

from repro.sim.profiling import (
    DISPATCH_FRAMES,
    breakdown_table,
    classify,
    is_dispatcher,
    profile_payload,
    subsystem_breakdown,
)
from repro.system import System, SystemConfig
from repro.workloads.mixes import mix


def test_classify_paths():
    assert classify("/repo/src/repro/sim/engine.py") == "engine"
    # the FR-FCFS scan runs in the controller; scheduler.py holds only the
    # drain transitions, so both are charged to the vault row
    assert classify("/repo/src/repro/vault/scheduler.py") == "vault"
    assert classify("/repo/src/repro/vault/controller.py") == "vault"
    assert classify("/repo/src/repro/dram/bank.py") == "bank"
    assert classify("/repo/src/repro/core/camps.py") == "prefetcher"
    assert classify("~/.pyenv/lib/python3.11/heapq.py") == "other"


def test_is_dispatcher():
    assert is_dispatcher("/repo/src/repro/sim/engine.py", "run")
    assert is_dispatcher("C:\\repo\\src\\repro\\sim\\engine.py", "step")
    assert not is_dispatcher("/repo/src/repro/sim/engine.py", "call_at")
    assert not is_dispatcher("/repo/src/repro/vault/controller.py", "run")
    assert DISPATCH_FRAMES  # the exclusion set is non-empty by contract


def _profiled_run():
    traces = mix("MX1", 150, seed=4)
    system = System(traces, SystemConfig(scheme="camps"), workload="MX1")
    profiler = cProfile.Profile()
    profiler.enable()
    result = system.run()
    profiler.disable()
    return system, result, profiler


def test_dispatcher_cumtime_not_charged_to_engine():
    """Engine.run's cumtime is (nearly) the whole profiled run - every
    dispatched callback re-counted.  The engine row must not report it:
    batch-dispatched work belongs to its owning subsystem."""
    system, _result, profiler = _profiled_run()
    stats = pstats.Stats(profiler)
    run_cum = max(
        cum
        for (filename, _ln, fname), (_cc, _nc, _tot, cum, _callers) in
        stats.stats.items()
        if is_dispatcher(filename, fname)
    )
    breakdown = subsystem_breakdown(profiler)
    assert "engine" in breakdown
    # the engine row's cumtime is its own dominant entry point, strictly
    # below the dispatcher's whole-run cumulative time
    assert breakdown["engine"]["cumtime_s"] < run_cum
    # the dispatch loop's exclusive time still counts as engine work
    assert breakdown["engine"]["tottime_s"] > 0.0


def test_breakdown_tottime_is_additive():
    _system, _result, profiler = _profiled_run()
    stats = pstats.Stats(profiler)
    total = sum(tot for (_k), (_cc, _nc, tot, _cum, _cal) in stats.stats.items())
    breakdown = subsystem_breakdown(profiler)
    assert abs(sum(r["tottime_s"] for r in breakdown.values()) - total) < 1e-9
    # subsystems beyond the engine actually absorbed their own work
    assert {"vault", "bank"} <= set(breakdown)


def test_payload_and_table_render():
    _system, result, profiler = _profiled_run()
    breakdown = subsystem_breakdown(profiler)
    payload = profile_payload(
        breakdown, cycles=result.cycles, events_fired=1, wall_seconds=0.5
    )
    assert payload["subsystems"] is breakdown
    table = breakdown_table(breakdown)
    assert "subsystem" in table and "engine" in table
