"""Parallel campaign execution: sharded, resumable experiment grids.

A campaign is a set of independent (workload, scheme, config, seed) cells —
a figure grid, a seed sweep, an ablation — executed across a
``multiprocessing`` worker pool with per-cell timeouts, bounded retry,
failure isolation, and a resumable JSONL manifest.  It is the execution
backend behind ``run_matrix(jobs=...)``, ``run_seeded(jobs=...)``,
``Sweep.run(jobs=...)`` and the ``python -m repro campaign`` command.  Its
pool, :class:`repro.campaign.pool.CellPool`, is the one the service
(:mod:`repro.serve`) runs on as well; this package imports nothing from
the service.

Usage::

    from repro.campaign import CampaignOptions, Manifest, grid_cells, run_campaign
    from repro.experiments.runner import ExperimentConfig

    cells = grid_cells(["HM1", "LM1"], ["base", "camps-mod"],
                       ExperimentConfig(refs_per_core=2000))
    res = run_campaign(cells, CampaignOptions(jobs=4, timeout=120, retries=1),
                       manifest=Manifest("campaign.jsonl"))
    res.raise_on_failure()
    matrix = res.matrix()   # deterministic: ordered by cell id

Interrupted?  Re-run with ``CampaignOptions(..., resume=True)`` and only the
unfinished cells execute.
"""

from repro.campaign.executor import (
    CampaignError,
    CampaignOptions,
    CampaignResult,
    execute_cell,
    matrix_digest,
    retry_delay,
    run_campaign,
    summarize,
)
from repro.campaign.manifest import (
    MANIFEST_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellRecord,
    ClaimRecord,
    Manifest,
    ManifestScan,
)
from repro.campaign.progress import CampaignProgress
from repro.campaign.spec import Cell, fabric_grid_cells, grid_cells

__all__ = [
    "Cell",
    "CellRecord",
    "ClaimRecord",
    "CampaignError",
    "CampaignOptions",
    "CampaignProgress",
    "CampaignResult",
    "Manifest",
    "ManifestScan",
    "MANIFEST_VERSION",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
    "execute_cell",
    "fabric_grid_cells",
    "grid_cells",
    "matrix_digest",
    "retry_delay",
    "run_campaign",
    "summarize",
]
