"""``repro.serve``: the crash-tolerant campaign service.

A long-running asyncio job server over the campaign cell pool
(:class:`repro.campaign.pool.CellPool`, shared with ``run_campaign``):
admission-controlled bounded queues with priority lanes and 429 load
shedding, a lease-based work-stealing queue layered onto the campaign
manifest, graceful SIGTERM drain with queue checkpointing, and the chaos
harness that proves all of it (:mod:`repro.serve.chaos`).

Quickstart::

    repro serve --manifest svc.jsonl --port 9200 --jobs 4   # terminal 1
    repro submit --url http://127.0.0.1:9200 --mixes HM1 \\
        --schemes base,camps --wait                          # terminal 2
    repro monitor svc.jsonl                                  # terminal 3

See ``docs/API.md`` ("Service mode") for the wire protocol, lease
semantics, and the degradation ladder.
"""

from repro.serve.admission import (
    LANE_BULK,
    LANE_QUICK,
    AdmissionController,
    LatencyTracker,
    LogHistogram,
    infer_lane,
    nearest_rank,
)
from repro.serve.client import (
    DrainingError,
    LoadGenerator,
    ServeClient,
    ServeError,
    Shed,
)
from repro.serve.jobs import (
    CellState,
    Job,
    JobRegistry,
    SpecError,
    cell_from_spec,
    cell_to_spec,
)
from repro.serve.server import (
    Draining,
    Saturated,
    ServeConfig,
    ServeScheduler,
    ServeService,
    checkpoint_path,
    run_serve,
)
from repro.serve.steal import DEFAULT_LEASE_TICKS, WorkQueue

__all__ = [
    "AdmissionController",
    "CellState",
    "DEFAULT_LEASE_TICKS",
    "Draining",
    "DrainingError",
    "Job",
    "JobRegistry",
    "LANE_BULK",
    "LANE_QUICK",
    "LatencyTracker",
    "LoadGenerator",
    "LogHistogram",
    "Saturated",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeScheduler",
    "ServeService",
    "Shed",
    "SpecError",
    "WorkQueue",
    "cell_from_spec",
    "cell_to_spec",
    "checkpoint_path",
    "infer_lane",
    "nearest_rank",
    "run_serve",
]
