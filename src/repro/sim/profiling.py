"""Per-subsystem attribution of cProfile data.

The profiler gives per-function rows; what a perf investigation actually
wants first is "where does the time go per *subsystem*" - engine loop vs
vault controller (FR-FCFS scan included) vs bank timing vs prefetcher
decision logic vs instrumentation.  This module maps profile rows onto the repo's subsystem
layout by filename and aggregates them, for two consumers:

* ``python -m repro profile`` prints the table (and ``--json`` emits it
  machine-readable), so a regression can be localised without reading raw
  pstats output.
* ``benchmarks/bench_hotpath.py`` embeds the breakdown in
  ``BENCH_hotpath.json`` so the committed perf pin records not just how fast
  the hot loop was but *where* it spent its time when pinned.

Attribution rules: a function belongs to the first subsystem whose path
fragment matches its source file.  ``tottime`` (exclusive time) is additive
- the subsystem rows sum to the profiled total - while ``cumtime`` is
reported as the largest single-function cumulative time in the subsystem
(its dominant entry point); summing cumtime across functions would double
count nested calls within a subsystem.

One refinement on top of the path rule: the engine's *dispatcher* frames
(``Engine.run`` / ``Engine.step``) are excluded from the cumtime
attribution.  Their cumulative time is the whole batch of callbacks they
dispatch - every subsystem's work re-counted - so letting them set the
engine row's ``cumtime_s`` made the engine appear to dominate any profile
(the double-count formerly visible in BENCH_hotpath.json's profile
block).  Their exclusive time still lands in the engine's ``tottime_s``
(the dispatch loop is genuine engine work); only the cumulative
aggregation skips them, so the engine row's ``cumtime_s`` now names the
engine's own dominant non-dispatcher entry point.
"""

from __future__ import annotations

import pstats
from typing import Any, Dict, List, Tuple

#: ordered (subsystem, path fragments) - first match wins.  The fragments
#: use forward slashes; profile filenames are normalised before matching.
SUBSYSTEM_PATHS: List[Tuple[str, Tuple[str, ...]]] = [
    ("engine", ("/sim/engine.py",)),
    # controller (FR-FCFS scan included), queues and drain state
    ("vault", ("/vault/",)),
    ("bank", ("/dram/",)),
    (
        "prefetcher",
        (
            "/core/camps.py",
            "/core/prefetcher.py",
            "/core/tables.py",
            "/core/buffer.py",
            "/core/schemes.py",
        ),
    ),
    ("tracer", ("/obs/",)),
    ("host", ("/hmc/", "/interconnect/", "/request.py",)),
    ("core", ("/cpu/", "/system.py",)),
    ("stats", ("/sim/stats.py", "/metrics/",)),
]

OTHER = "other"

#: dispatcher frames - ``(path fragment, function name)`` pairs whose
#: cumulative time is the callbacks they dispatch, not subsystem work;
#: excluded from cumtime attribution (see module docstring)
DISPATCH_FRAMES: Tuple[Tuple[str, str], ...] = (
    ("/sim/engine.py", "run"),
    ("/sim/engine.py", "step"),
)


def is_dispatcher(filename: str, funcname: str) -> bool:
    """True for frames whose cumtime must not be charged to a subsystem."""
    path = filename.replace("\\", "/")
    for frag, name in DISPATCH_FRAMES:
        if funcname == name and frag in path:
            return True
    return False


def classify(filename: str) -> str:
    """Subsystem name for one profile-row source file."""
    path = filename.replace("\\", "/")
    for name, fragments in SUBSYSTEM_PATHS:
        for frag in fragments:
            if frag in path:
                return name
    return OTHER


def subsystem_breakdown(profiler: Any) -> Dict[str, Dict[str, float]]:
    """Aggregate a ``cProfile.Profile`` (or ``pstats.Stats``) by subsystem.

    Returns ``{subsystem: {"calls": int, "tottime_s": float,
    "cumtime_s": float}}`` sorted by descending exclusive time.
    ``tottime_s`` values are additive across subsystems; ``cumtime_s`` is
    the dominant entry point's cumulative time (see module docstring).
    """
    stats = profiler if isinstance(profiler, pstats.Stats) else pstats.Stats(profiler)
    agg: Dict[str, Dict[str, float]] = {}
    for (filename, _lineno, fname), (_cc, ncalls, tottime, cumtime, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        name = classify(filename)
        row = agg.setdefault(name, {"calls": 0, "tottime_s": 0.0, "cumtime_s": 0.0})
        row["calls"] += ncalls
        row["tottime_s"] += tottime
        # Dispatcher cumtime is every subsystem's work re-counted; skip it
        # (see module docstring) so rows reflect their own entry points.
        if cumtime > row["cumtime_s"] and not is_dispatcher(filename, fname):
            row["cumtime_s"] = cumtime
    return dict(
        sorted(agg.items(), key=lambda kv: kv[1]["tottime_s"], reverse=True)
    )


def breakdown_table(breakdown: Dict[str, Dict[str, float]]) -> str:
    """Human-readable table of :func:`subsystem_breakdown` output."""
    total = sum(row["tottime_s"] for row in breakdown.values()) or 1.0
    lines = [f"{'subsystem':<12} {'calls':>10} {'tottime':>9} {'share':>7} {'cumtime':>9}"]
    for name, row in breakdown.items():
        lines.append(
            f"{name:<12} {int(row['calls']):>10} {row['tottime_s']:>8.3f}s "
            f"{row['tottime_s'] / total:>6.1%} {row['cumtime_s']:>8.3f}s"
        )
    return "\n".join(lines)


def profile_payload(
    breakdown: Dict[str, Dict[str, float]],
    *,
    cycles: int,
    events_fired: int,
    wall_seconds: float,
) -> Dict[str, Any]:
    """The machine-readable profile summary shared by ``repro profile
    --json`` and ``bench_hotpath.py`` (which embeds it verbatim)."""
    return {
        "cycles": cycles,
        "events_fired": events_fired,
        "wall_seconds": wall_seconds,
        "cycles_per_sec": cycles / wall_seconds if wall_seconds else 0.0,
        "events_per_sec": events_fired / wall_seconds if wall_seconds else 0.0,
        "subsystems": breakdown,
    }
