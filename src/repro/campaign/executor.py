"""Sharded campaign execution across a multiprocessing worker pool.

:func:`run_campaign` takes a list of :class:`~repro.campaign.spec.Cell`
specs and drives them to terminal state:

* **Sharding** — up to ``jobs`` persistent worker processes, each fed one
  cell at a time over a pipe.  Workers are spawn-safe: the cell runner is a
  picklable module-level callable, so the pool works under both the ``fork``
  (default on Linux) and ``spawn`` start methods.
* **Failure isolation** — a cell that raises, or a worker that dies, yields
  a recorded ``error`` for that cell (and a respawned worker), never a dead
  campaign.
* **Timeout** — with ``jobs >= 2`` each attempt has a wall-clock budget;
  an overrunning worker is terminated and the cell recorded as ``timeout``
  (timeouts are terminal: a deterministic simulator that hung once will
  hang again, so retrying only multiplies the loss).
* **Retry** — crashed/raising attempts are retried up to ``retries`` times
  with exponential backoff before the error becomes terminal.
* **Resume** — with a :class:`~repro.campaign.manifest.Manifest` and
  ``resume=True``, cells already recorded ``ok`` are not re-executed.
* **Deterministic merge** — :meth:`CampaignResult.matrix` orders results by
  cell id, so serial and parallel campaigns over the same cells produce
  identical summaries regardless of completion order (pin with
  :func:`matrix_digest`).
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.manifest import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellRecord,
    Manifest,
)
from repro.campaign.progress import CampaignProgress
from repro.campaign.spec import Cell
from repro.experiments.runner import _CACHED_FIELDS, ResultCache
from repro.metrics.collectors import ResultMatrix
from repro.obs import telemetry as _telemetry
from repro.obs.telemetry import publish_system
from repro.system import SimulationResult, System, SystemConfig

#: worker telemetry spec shipped to the child process:
#: (spool_dir, worker_name, heartbeat_interval)
TelemetrySpec = Tuple[str, str, float]

#: a cell runner maps (cell, attempt) -> summary dict (the _CACHED_FIELDS
#: projection); it must be a module-level callable so spawn can pickle it
CellRunner = Callable[[Cell, int], dict]


class CampaignError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_on_failure`."""


#: ceiling on any single retry delay, however deep the attempt count
MAX_RETRY_DELAY = 30.0


def retry_delay(
    cell_id: str, attempt: int, base: float, cap: float = MAX_RETRY_DELAY
) -> float:
    """Deterministic full-jitter backoff for one (cell, attempt).

    Classic exponential backoff retries every victim of a simultaneous
    failure (say, a worker host dying with eight cells in flight) at the
    same instant, stampeding whatever resource just recovered.  Full jitter
    draws uniformly from ``[0, base * 2**(attempt-1)]`` (capped) instead —
    and seeding the draw from ``(cell_id, attempt)`` keeps the schedule
    reproducible: the same cell retries at the same offsets in every run,
    while distinct cells de-synchronize.
    """
    import hashlib
    import random

    span = min(cap, base * (2 ** (max(attempt, 1) - 1)))
    if span <= 0.0:
        return 0.0
    seed = int.from_bytes(
        hashlib.sha256(f"{cell_id}#{attempt}".encode()).digest()[:8], "big"
    )
    return random.Random(seed).uniform(0.0, span)


def summarize(result: SimulationResult) -> dict:
    """Project a result onto the picklable persisted-summary fields."""
    return {f: getattr(result, f) for f in _CACHED_FIELDS}


def execute_cell(
    cell: Cell, attempt: int = 1, report_dir: Optional[str] = None
) -> dict:
    """Default cell runner: build the system, simulate, return the summary.

    Runs in the worker process; trace generation is seeded, so regenerating
    per cell yields byte-identical traces to the serial shared-trace loop.

    With ``report_dir`` set (``functools.partial`` keeps the runner
    picklable under spawn), the run carries a counter tracer and the
    default-epoch time series sampler and writes a
    :class:`~repro.obs.report.RunReport` to ``<report_dir>/<cell_id>.json``.
    Neither changes the returned summary: telemetry never perturbs
    simulation order, so cached and reported cells stay digest-identical.

    Cells carrying a ``topology`` spec run the multi-cube
    :class:`~repro.fabric.system.FabricSystem` path instead (same summary
    projection, same report/telemetry plumbing).
    """
    from repro.workloads.mixes import mix as make_mix

    if cell.topology is not None:
        return _execute_fabric_cell(cell, attempt, report_dir)
    cfg = cell.config
    trace_hmc = cell.trace_config if cell.trace_config is not None else cfg.hmc
    traces = make_mix(cell.workload, cfg.refs_per_core, seed=cfg.seed, config=trace_hmc)
    tracer = None
    epoch = None
    if report_dir is not None:
        from repro.obs import Tracer
        from repro.obs.timeseries import DEFAULT_EPOCH

        tracer = Tracer()
        epoch = DEFAULT_EPOCH
    system = System(
        traces,
        SystemConfig(
            hmc=cfg.hmc,
            scheme=cell.scheme,
            integrity=cfg.integrity,
            timeseries_epoch=epoch,
        ),
        workload=cell.workload,
        scheme_kwargs=cell.scheme_kwargs,
        tracer=tracer,
    )
    # Hand the live system to the telemetry sampler thread, if one is
    # armed for this process (a single is-None check otherwise — the
    # hot-path digests stay byte-identical with telemetry disabled).
    publish_system(system)
    try:
        result = system.run()
    finally:
        publish_system(None)
    if report_dir is not None:
        from repro.obs import build_run_report

        build_run_report(
            system, result, cell_id=cell.cell_id, attempt=attempt
        ).save(cell_report_path(report_dir, cell.cell_id))
    return summarize(result)


def _execute_fabric_cell(
    cell: Cell, attempt: int = 1, report_dir: Optional[str] = None
) -> dict:
    """Fabric cell runner (module-level: picklable under spawn).

    ``cell.workload`` names one Table II mix, replicated as one independent
    stream per cube (each with its own RNG stream, homed at its cube); the
    scheme runs per-vault in every cube.  Trace generation is seeded, so a
    cell reproduces byte-identically regardless of worker or attempt.
    """
    from repro.fabric import FabricConfig, FabricSystem, FabricSystemConfig
    from repro.workloads.multistream import MultiStreamSpec, build_stream_traces

    cfg = cell.config
    fabric = FabricConfig.from_spec(cell.topology, hmc=cfg.hmc)
    spec = MultiStreamSpec.per_cube(
        cell.workload, fabric.cubes, cfg.refs_per_core, seed=cfg.seed
    )
    traces = build_stream_traces(spec, fabric)
    tracer = None
    epoch = None
    if report_dir is not None:
        from repro.obs import Tracer
        from repro.obs.timeseries import DEFAULT_EPOCH

        tracer = Tracer()
        epoch = DEFAULT_EPOCH
    fsys = FabricSystem(
        traces,
        FabricSystemConfig(
            fabric=fabric, scheme=cell.scheme, timeseries_epoch=epoch
        ),
        # topology-qualified: ResultMatrix keys by (workload, scheme), so a
        # topology sweep of one mix must not collapse to a single entry
        workload=f"{cell.workload}@{cell.topology}",
        scheme_kwargs=cell.scheme_kwargs,
        tracer=tracer,
    )
    publish_system(fsys)
    try:
        result = fsys.run()
    finally:
        publish_system(None)
    if report_dir is not None:
        from repro.obs import build_run_report

        build_run_report(
            fsys,
            result,
            cell_id=cell.cell_id,
            attempt=attempt,
            topology=cell.topology,
        ).save(cell_report_path(report_dir, cell.cell_id))
    return summarize(result)


def cell_report_path(report_dir: Union[str, "os.PathLike"], cell_id: str) -> "Path":
    """Where :func:`execute_cell` writes a cell's RunReport artifact."""
    from pathlib import Path

    return Path(report_dir) / f"{cell_id}.json"


@dataclass(frozen=True)
class CampaignOptions:
    """Execution policy for one campaign."""

    jobs: int = 1
    timeout: Optional[float] = None  # per-attempt wall-clock seconds (jobs >= 2)
    retries: int = 0
    backoff: float = 0.1  # base retry delay; doubles per attempt
    resume: bool = False
    progress: bool = False
    start_method: Optional[str] = None  # default: fork if available, else spawn
    #: write per-worker heartbeat spools (implied by watch/telemetry_port)
    telemetry: bool = False
    #: spool directory; default ``<manifest>.telemetry`` next to the manifest
    telemetry_dir: Optional[str] = None
    #: seconds between heartbeats
    telemetry_interval: float = _telemetry.DEFAULT_INTERVAL
    #: serve /snapshot and /metrics on this port (0 = ephemeral)
    telemetry_port: Optional[int] = None
    #: render the live terminal status board in the campaign process
    watch: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")

    @property
    def telemetry_enabled(self) -> bool:
        return (
            self.telemetry
            or self.watch
            or self.telemetry_dir is not None
            or self.telemetry_port is not None
        )


@dataclass
class CampaignResult:
    """Terminal state of every cell plus campaign-level statistics."""

    cells: List[Cell]  # deduplicated, submission order
    records: Dict[str, CellRecord]  # by cell id
    stats: Dict[str, int]
    wall_seconds: float

    @property
    def failures(self) -> List[CellRecord]:
        return [r for r in self.records.values() if not r.ok]

    def raise_on_failure(self) -> None:
        bad = self.failures
        if bad:
            parts = []
            for r in bad[:5]:
                desc = f"{r.workload}/{r.scheme}: {r.status} ({r.error})"
                if r.diagnosis:
                    reason = r.diagnosis.get("reason", "integrity")
                    dump = r.diagnosis.get("crash_dump")
                    desc += f" [diagnosed: {reason}" + (
                        f", dump: {dump}]" if dump else "]"
                    )
                parts.append(desc)
            detail = "; ".join(parts)
            raise CampaignError(f"{len(bad)} cell(s) failed: {detail}")

    def result_for(self, cell_id: str) -> SimulationResult:
        rec = self.records[cell_id]
        if not rec.ok:
            raise CampaignError(
                f"cell {rec.workload}/{rec.scheme} ended {rec.status}: {rec.error}"
            )
        return SimulationResult(
            extra={"campaign": True, "cell_id": cell_id, "attempts": rec.attempts},
            **rec.summary,
        )

    def matrix(self) -> ResultMatrix:
        """Successful cells as a :class:`ResultMatrix`, ordered by cell id
        (deterministic merge: independent of completion order)."""
        out = ResultMatrix()
        for cid in sorted(r.cell_id for r in self.records.values() if r.ok):
            out.add(self.result_for(cid))
        return out


def matrix_digest(matrix: ResultMatrix) -> str:
    """Canonical digest of a matrix's persisted summaries.

    Serial and parallel campaigns over the same cells must agree on this
    value — it hashes the `_CACHED_FIELDS` projection of every result in
    sorted (workload, scheme) order, ignoring per-run ``extra`` annotations.
    """
    import hashlib
    import json

    items = []
    for key in sorted(matrix.results):
        r = matrix.results[key]
        items.append({f: getattr(r, f) for f in _CACHED_FIELDS})
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Worker pool plumbing
# ----------------------------------------------------------------------


def _worker_loop(
    conn: Any, runner: CellRunner, telemetry: Optional[TelemetrySpec] = None
) -> None:
    """Worker process body: run cells off the pipe until told to stop."""
    wt = None
    if telemetry is not None:
        spool_dir, worker_name, interval = telemetry
        try:
            wt = _telemetry.activate_worker(spool_dir, worker_name, interval)
        except OSError:
            wt = None  # unwritable spool dir: run blind, never refuse work
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        cell, attempt = task
        if wt is not None:
            wt.cell_start(cell, attempt)
        t0 = time.perf_counter()
        try:
            summary = runner(cell, attempt)
            payload: Tuple[str, Any, float] = (
                STATUS_OK,
                summary,
                time.perf_counter() - t0,
            )
        except Exception as exc:
            error: Any = traceback.format_exc(limit=8)
            # Integrity failures carry a structured diagnosis (and have
            # already written their crash dump in this process); ship it
            # across the pipe so the manifest records it.
            diagnosis = getattr(exc, "report", None)
            if isinstance(diagnosis, dict) and diagnosis:
                error = {"error": error, "diagnosis": diagnosis}
            payload = (
                STATUS_ERROR,
                error,
                time.perf_counter() - t0,
            )
        if wt is not None:
            wt.cell_end(payload[0], payload[2])
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break
    if wt is not None:
        _telemetry.deactivate_worker()
    try:
        conn.close()
    except OSError:
        pass


def _default_start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


#: Parent-only ends (worker pipes, pump wake sockets) open in this process.
#: A forked child inherits copies of all of them; it closes those copies at
#: once, so that the only holder of each worker pipe's parent end is the
#: process that spawned the worker.  When that process dies, the worker's
#: ``recv()`` sees EOF and the worker exits instead of living on orphaned.
_PARENT_ENDS: "weakref.WeakSet[Any]" = weakref.WeakSet()


def parent_only(end: Any) -> None:
    """Register ``end`` (anything with ``close()``) to close in fork children."""
    _PARENT_ENDS.add(end)


def _close_parent_ends() -> None:
    for end in list(_PARENT_ENDS):
        try:
            end.close()
        except OSError:
            pass
    _PARENT_ENDS.clear()


if hasattr(os, "register_at_fork"):  # no fork, no inherited copies
    os.register_at_fork(after_in_child=_close_parent_ends)


class _Worker:
    """One pool slot: a process, its pipe, and the task it is running."""

    def __init__(
        self,
        ctx: Any,
        runner: CellRunner,
        telemetry: Optional[TelemetrySpec] = None,
    ) -> None:
        parent_conn, child_conn = ctx.Pipe()
        parent_only(parent_conn)
        self.proc = ctx.Process(
            target=_worker_loop, args=(child_conn, runner, telemetry), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[Tuple[Cell, int]] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def assign(self, cell: Cell, attempt: int, timeout: Optional[float]) -> None:
        self.conn.send((cell, attempt))
        self.task = (cell, attempt)
        self.deadline = (time.monotonic() + timeout) if timeout else None

    def take_task(self) -> Tuple[Cell, int]:
        task = self.task
        assert task is not None
        self.task = None
        self.deadline = None
        return task

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2)
            if self.proc.is_alive():  # pragma: no cover - stubborn child
                self.proc.kill()
                self.proc.join(timeout=2)
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Polite stop for an idle worker; escalates to kill."""
        if self.proc.is_alive() and not self.busy:
            try:
                self.conn.send(None)
                self.proc.join(timeout=2)
            except (BrokenPipeError, OSError):
                pass
        self.kill()


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------


class _Driver:
    """Shared bookkeeping for the serial and pooled execution paths."""

    def __init__(
        self,
        opts: CampaignOptions,
        cache: Optional[ResultCache],
        manifest: Optional[Manifest],
        progress: CampaignProgress,
        report_dir: Optional[str] = None,
        telemetry_dir: Optional[str] = None,
    ) -> None:
        self.opts = opts
        self.cache = cache
        self.manifest = manifest
        self.progress = progress
        self.report_dir = report_dir
        self.telemetry_dir = telemetry_dir
        self.records: Dict[str, CellRecord] = {}

    def _worker_telemetry(self, slot: int) -> Optional[TelemetrySpec]:
        if self.telemetry_dir is None:
            return None
        return (self.telemetry_dir, f"w{slot}", self.opts.telemetry_interval)

    def record(self, rec: CellRecord, source: str = "executed") -> None:
        if (
            source == "executed"
            and rec.ok
            and self.report_dir is not None
            and rec.report is None
        ):
            # execute_cell writes the artifact at a deterministic path; the
            # record carries it so readers never reconstruct the layout
            rec.report = str(cell_report_path(self.report_dir, rec.cell_id))
        self.records[rec.cell_id] = rec
        if source != "resumed" and self.manifest is not None:
            self.manifest.append(rec)
        if (
            source == "executed"
            and rec.ok
            and self.cache is not None
            and self._cacheable.get(rec.cell_id, False)
        ):
            self.cache.put(
                self._cache_keys[rec.cell_id],
                SimulationResult(extra={}, **rec.summary),
            )
        self.progress.cell_done(rec, source)

    def prepare(self, cells: Sequence[Cell]) -> List[Cell]:
        """Resolve resume/cache hits; return the cells needing execution."""
        prior = (
            self.manifest.records()
            if (self.manifest is not None and self.opts.resume)
            else {}
        )
        self._cacheable: Dict[str, bool] = {}
        self._cache_keys: Dict[str, str] = {}
        pending: List[Cell] = []
        for cell in cells:
            cid = cell.cell_id
            self._cacheable[cid] = cell.cacheable
            self._cache_keys[cid] = cell.config.cache_key(cell.workload, cell.scheme)
            old = prior.get(cid)
            # Resume skips completed cells AND diagnosed failures: a cell
            # the integrity layer convicted (wedge, invariant violation) is
            # deterministic, so re-running it would reproduce the failure.
            # Undiagnosed errors/timeouts stay eligible for re-execution.
            if old is not None and (old.ok or old.diagnosis is not None):
                self.record(old, source="resumed")
                continue
            if self.cache is not None and cell.cacheable:
                hit = self.cache.get(self._cache_keys[cid])
                if hit is not None:
                    self.record(
                        CellRecord(
                            cell_id=cid,
                            workload=cell.workload,
                            scheme=cell.scheme,
                            status=STATUS_OK,
                            attempts=0,
                            elapsed=0.0,
                            summary=summarize(hit),
                            cached=True,
                        ),
                        source="cached",
                    )
                    continue
            pending.append(cell)
        return pending

    # ------------------------------------------------------------------
    def run_serial(self, pending: Sequence[Cell], runner: CellRunner) -> None:
        """In-process execution (jobs=1): today's serial path plus retry.

        Per-attempt timeouts need a separate process to interrupt; with one
        job the attempt runs inline and ``timeout`` is not enforced.
        """
        wt = None
        if self.telemetry_dir is not None:
            # one job: the "worker" heartbeats come from this process
            try:
                wt = _telemetry.activate_worker(
                    self.telemetry_dir, "w0", self.opts.telemetry_interval
                )
            except OSError:
                wt = None
        try:
            for cell in pending:
                attempt = 1
                while True:
                    if wt is not None:
                        wt.cell_start(cell, attempt)
                    t0 = time.perf_counter()
                    try:
                        summary = runner(cell, attempt)
                        elapsed = time.perf_counter() - t0
                        if wt is not None:
                            wt.cell_end(STATUS_OK, elapsed)
                        self.record(
                            CellRecord(
                                cell_id=cell.cell_id,
                                workload=cell.workload,
                                scheme=cell.scheme,
                                status=STATUS_OK,
                                attempts=attempt,
                                elapsed=elapsed,
                                summary=summary,
                            )
                        )
                        break
                    except Exception as exc:
                        elapsed = time.perf_counter() - t0
                        if wt is not None:
                            wt.cell_end(STATUS_ERROR, elapsed)
                        diagnosis = getattr(exc, "report", None)
                        if not (isinstance(diagnosis, dict) and diagnosis):
                            diagnosis = None
                        # A diagnosed integrity failure is deterministic -
                        # the same wedge or violation will recur - so
                        # retrying only multiplies the loss.  Record it
                        # terminal immediately.
                        if diagnosis is None and attempt <= self.opts.retries:
                            self.progress.retry(
                                cell, attempt, f"{type(exc).__name__}: {exc}"
                            )
                            time.sleep(
                                retry_delay(cell.cell_id, attempt, self.opts.backoff)
                            )
                            attempt += 1
                            continue
                        self.record(
                            CellRecord(
                                cell_id=cell.cell_id,
                                workload=cell.workload,
                                scheme=cell.scheme,
                                status=STATUS_ERROR,
                                attempts=attempt,
                                elapsed=elapsed,
                                error=f"{type(exc).__name__}: {exc}",
                                diagnosis=diagnosis,
                            )
                        )
                        break
        finally:
            if wt is not None:
                _telemetry.deactivate_worker()

    # ------------------------------------------------------------------
    def run_pool(self, pending: Sequence[Cell], runner: CellRunner) -> None:
        """Pooled execution with per-attempt timeouts and worker respawn."""
        opts = self.opts
        ctx = multiprocessing.get_context(opts.start_method or _default_start_method())
        tasks: deque = deque((cell, 1) for cell in pending)
        retries: List[Tuple[float, int, Cell, int]] = []  # (due, tiebreak, cell, attempt)
        tiebreak = 0
        workers = [
            _Worker(ctx, runner, telemetry=self._worker_telemetry(i))
            for i in range(min(opts.jobs, len(pending)))
        ]
        try:
            while tasks or retries or any(w.busy for w in workers):
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    _, _, cell, attempt = heapq.heappop(retries)
                    tasks.append((cell, attempt))
                # replace dead slots while work remains
                for i, w in enumerate(workers):
                    if not w.busy and not w.alive and (tasks or retries):
                        w.kill()
                        # same slot name: the respawn appends a fresh header
                        # (new generation) to the same spool file
                        workers[i] = _Worker(
                            ctx, runner, telemetry=self._worker_telemetry(i)
                        )
                for w in workers:
                    if tasks and not w.busy and w.alive:
                        cell, attempt = tasks.popleft()
                        try:
                            w.assign(cell, attempt, opts.timeout)
                        except (BrokenPipeError, OSError):
                            # worker died between polls: requeue, respawn next pass
                            tasks.appendleft((cell, attempt))
                busy = [w for w in workers if w.busy]
                if not busy:
                    if retries:
                        time.sleep(min(0.05, max(0.0, retries[0][0] - now)))
                    continue
                wait_for = 0.5
                deadlines = [w.deadline for w in busy if w.deadline is not None]
                if deadlines:
                    wait_for = min(wait_for, max(0.0, min(deadlines) - now))
                if retries:
                    wait_for = min(wait_for, max(0.0, retries[0][0] - now))
                ready = connection.wait([w.conn for w in busy], timeout=wait_for)
                for w in busy:
                    if w.conn in ready:
                        cell, attempt = w.take_task()
                        try:
                            status, payload, elapsed = w.conn.recv()
                        except (EOFError, OSError):
                            status, payload, elapsed = (
                                STATUS_ERROR,
                                f"worker process died (exitcode "
                                f"{w.proc.exitcode})",
                                0.0,
                            )
                        if status == STATUS_OK:
                            self.record(
                                CellRecord(
                                    cell_id=cell.cell_id,
                                    workload=cell.workload,
                                    scheme=cell.scheme,
                                    status=STATUS_OK,
                                    attempts=attempt,
                                    elapsed=elapsed,
                                    summary=payload,
                                )
                            )
                            continue
                        # Error payloads are a plain traceback string, or a
                        # {"error", "diagnosis"} dict from the integrity
                        # layer.  Diagnosed failures are deterministic and
                        # recorded terminal without burning retries.
                        diagnosis = None
                        error_text = payload
                        if isinstance(payload, dict):
                            diagnosis = payload.get("diagnosis")
                            error_text = payload.get("error", "")
                        if diagnosis is None and attempt <= opts.retries:
                            self.progress.retry(
                                cell, attempt, str(error_text).strip().splitlines()[-1]
                            )
                            tiebreak += 1
                            heapq.heappush(
                                retries,
                                (
                                    time.monotonic()
                                    + retry_delay(
                                        cell.cell_id, attempt, opts.backoff
                                    ),
                                    tiebreak,
                                    cell,
                                    attempt + 1,
                                ),
                            )
                        else:
                            self.record(
                                CellRecord(
                                    cell_id=cell.cell_id,
                                    workload=cell.workload,
                                    scheme=cell.scheme,
                                    status=STATUS_ERROR,
                                    attempts=attempt,
                                    elapsed=elapsed,
                                    error=str(error_text).strip(),
                                    diagnosis=diagnosis,
                                )
                            )
                # enforce per-attempt deadlines on the still-busy workers
                now = time.monotonic()
                for w in workers:
                    if w.busy and w.deadline is not None and now >= w.deadline:
                        cell, attempt = w.take_task()
                        w.kill()
                        self.record(
                            CellRecord(
                                cell_id=cell.cell_id,
                                workload=cell.workload,
                                scheme=cell.scheme,
                                status=STATUS_TIMEOUT,
                                attempts=attempt,
                                elapsed=float(opts.timeout or 0.0),
                                error=f"cell exceeded {opts.timeout:g}s wall-clock",
                            )
                        )
        finally:
            for w in workers:
                w.shutdown()


def run_campaign(
    cells: Sequence[Cell],
    options: Optional[CampaignOptions] = None,
    cache: Optional[ResultCache] = None,
    manifest: Optional[Manifest] = None,
    runner: CellRunner = execute_cell,
    report_dir: Optional[str] = None,
) -> CampaignResult:
    """Drive every cell to a terminal manifest record.

    ``cells`` are deduplicated by cell id (first spec wins).  ``cache`` is
    consulted before execution and updated (batched; flushed once at the
    end) for cacheable cells; pass ``None`` to run uncached.  Without
    ``resume`` an existing manifest file is rewritten fresh.  With
    ``report_dir``, every *executed* cell also writes a RunReport artifact
    there and its manifest record points at it (cached/resumed cells carry
    none - nothing was simulated).
    """
    opts = options or CampaignOptions()
    if report_dir is not None:
        import functools
        from pathlib import Path

        Path(report_dir).mkdir(parents=True, exist_ok=True)
        if runner is execute_cell:
            # partial of a module-level callable: still picklable under spawn
            runner = functools.partial(execute_cell, report_dir=str(report_dir))
    unique: Dict[str, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.cell_id, cell)
    ordered = list(unique.values())
    if manifest is not None and not opts.resume:
        manifest.reset(meta={"cells": len(ordered), "jobs": opts.jobs})
    progress = CampaignProgress(
        total=len(ordered), jobs=opts.jobs, enabled=opts.progress
    )

    telemetry_dir: Optional[str] = None
    if opts.telemetry_enabled:
        from pathlib import Path

        if opts.telemetry_dir is not None:
            tdir = Path(opts.telemetry_dir)
        elif manifest is not None:
            tdir = _telemetry.spool_dir_for(manifest.path)
        else:
            raise ValueError(
                "telemetry needs a manifest (spools live next to it) or an "
                "explicit telemetry_dir"
            )
        tdir.mkdir(parents=True, exist_ok=True)
        telemetry_dir = str(tdir)

    driver = _Driver(
        opts,
        cache,
        manifest,
        progress,
        report_dir=report_dir,
        telemetry_dir=telemetry_dir,
    )

    # Parent-side telemetry consumers: driver spool (campaign totals for
    # out-of-process monitors), live board, HTTP endpoint.  All are daemon
    # threads torn down in the finally block; none touches the simulation.
    consumers: List[Any] = []
    stats_extra: Dict[str, Any] = {}
    if telemetry_dir is not None:
        consumers.append(
            _telemetry.DriverTelemetry(
                telemetry_dir, progress.status, opts.telemetry_interval
            ).start()
        )
        if opts.watch or opts.telemetry_port is not None:
            aggregator = _telemetry.TelemetryAggregator(
                telemetry_dir,
                manifest_path=manifest.path if manifest is not None else None,
            )

            def snapshot_fn() -> dict:
                snap = aggregator.refresh().to_snapshot()
                # in-process totals beat the (slightly lagged) driver spool
                snap["campaign"] = progress.status()
                return snap

            if opts.telemetry_port is not None:
                server = _telemetry.TelemetryServer(
                    snapshot_fn, port=opts.telemetry_port
                ).start()
                consumers.append(server)
                stats_extra["telemetry_port"] = server.port
                if opts.progress or opts.watch:
                    print(
                        f"telemetry: {server.url}/snapshot and "
                        f"{server.url}/metrics",
                        flush=True,
                    )
            if opts.watch:
                from repro.obs.watch import WatchBoard

                consumers.append(
                    WatchBoard(
                        snapshot_fn,
                        interval=max(0.5, opts.telemetry_interval),
                    ).start()
                )

    t0 = time.perf_counter()
    try:
        pending = driver.prepare(ordered)
        if pending:
            if opts.jobs == 1:
                driver.run_serial(pending, runner)
            else:
                driver.run_pool(pending, runner)
    finally:
        if cache is not None:
            cache.flush()
        for consumer in reversed(consumers):
            try:
                consumer.stop()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
    stats = {
        "total": len(ordered),
        "ok": progress.ok,
        "failed": progress.failed,
        "executed": progress._executed,
        "cached": progress.cached,
        "resumed": progress.resumed,
        "retried": progress.retried,
        **stats_extra,
    }
    return CampaignResult(
        cells=ordered,
        records=driver.records,
        stats=stats,
        wall_seconds=time.perf_counter() - t0,
    )
