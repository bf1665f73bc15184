"""The campaign service: an asyncio front end over the shared cell pool.

Two cooperating layers live here:

* :class:`ServeScheduler` — the headless node.  Owns the manifest-backed
  :class:`~repro.serve.steal.WorkQueue`, a persistent
  :class:`~repro.campaign.pool.CellPool` (the pool ``run_campaign`` runs
  on too; here a crash always requeues instead of consuming a retry), the
  :class:`~repro.serve.admission.AdmissionController`, and the
  :class:`~repro.serve.jobs.JobRegistry`.  Several nodes may share one
  manifest (work stealing); the chaos harness runs nodes with no HTTP
  listener at all.
* :class:`ServeService` — the wire front end: one ``asyncio.start_server``
  socket speaking both HTTP/1.1 (hand-parsed, stdlib only) and raw
  newline-delimited JSON (a connection whose first byte is ``{`` is a JSONL
  session).  Endpooints: ``POST /submit``, ``GET /jobs/<id>``,
  ``/healthz``, ``/readyz``, ``/snapshot``, ``/metrics``, ``POST /drain``.

Degradation ladder (documented in docs/API.md):

1. **healthy** — admitting on both lanes, `/healthz` and `/readyz` 200.
2. **saturated** — a lane budget is full: submissions shed with 429 +
   ``retry_after`` while accepted work drains normally.
3. **draining** — SIGTERM (or ``POST /drain``): `/readyz` flips to 503
   immediately, submissions get 503, in-flight cells finish, the pending
   queue is checkpointed to ``<manifest>.checkpoint.jsonl``, then the
   process exits.  A peer (or a restart with ``resume=True``) picks the
   checkpoint + manifest up with nothing lost.
4. **dead** — no clean exit.  The manifest's claim leases expire under the
   survivors' logical clock and peers steal the orphaned cells.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.campaign.executor import (
    CellRunner,
    cell_report_path,
    execute_cell,
    retry_delay,
    summarize,
)
from repro.campaign.manifest import STATUS_OK, CellRecord, Manifest
from repro.campaign.pool import STATUS_CRASH, CellPool, PoolResult, attempt_record
from repro.campaign.spec import Cell
from repro.experiments.runner import ResultCache
from repro.obs import telemetry as _telemetry
from repro.obs.spans import (
    STAGE_ADMIT,
    STAGE_CLAIM,
    STAGE_EXECUTE,
    STAGE_MERGE,
    STAGE_QUEUE,
    STAGE_STEAL,
    SpanLog,
    attribution,
    critical_path_text,
    mint_trace_id,
    parse_traceparent,
)
from repro.serve.admission import (
    LANE_BULK,
    LANE_QUICK,
    AdmissionController,
    LatencyTracker,
    infer_lane,
)
from repro.serve.jobs import (
    CELL_DONE,
    CELL_PENDING,
    CELL_QUARANTINED,
    CELL_RUNNING,
    CellState,
    Job,
    JobRegistry,
    SpecError,
    cell_from_spec,
)
from repro.serve.steal import DEFAULT_LEASE_TICKS, WorkQueue

CHECKPOINT_VERSION = 1


def checkpoint_path(manifest_path: Any) -> str:
    return str(manifest_path) + ".checkpoint.jsonl"


class Saturated(Exception):
    """Submission shed by admission control."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"saturated; retry after {retry_after}s")
        self.retry_after = retry_after


class Draining(Exception):
    """Submission refused because the node is shutting down."""


@dataclass
class ServeConfig:
    """Everything one node needs; shared by `repro serve` and chaos nodes."""

    manifest: str
    jobs: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    resume: bool = False
    retries: int = 1
    timeout: Optional[float] = None
    quick_cap: int = 64
    bulk_cap: int = 256
    lease_ticks: int = DEFAULT_LEASE_TICKS
    tick_interval: float = 0.25
    crash_backoff: float = 0.05  # base for crash-requeue jitter
    drain_grace: float = 30.0  # seconds to let in-flight cells finish
    worker_name: Optional[str] = None  # default: s<pid>
    use_cache: bool = True
    telemetry: bool = True
    telemetry_interval: float = 0.5
    #: headless fleet mode: exit once every claim in the manifest is terminal
    exit_when_complete: bool = False
    start_method: Optional[str] = None
    #: causal span tracing (repro.obs.spans); off = no span records at all
    spans: bool = True
    #: directory for per-cell RunReport artifacts, served by
    #: ``GET /jobs/<id>/report`` and ``/jobs/<id>/dash.html``
    report_dir: Optional[str] = None

    @property
    def name(self) -> str:
        return self.worker_name or f"s{os.getpid()}"


class ServeScheduler:
    """One scheduler node: admission -> claims -> pool -> manifest."""

    def __init__(
        self,
        cfg: ServeConfig,
        runner: CellRunner = execute_cell,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.cfg = cfg
        self.manifest = Manifest(cfg.manifest)
        self.queue = WorkQueue(self.manifest, cfg.name, cfg.lease_ticks)
        self.spans = SpanLog(self.manifest, cfg.name, enabled=cfg.spans)
        if cfg.report_dir is not None and runner is execute_cell:
            # mirror run_campaign: only the default runner understands the
            # report_dir kwarg; custom runners opt in themselves
            os.makedirs(cfg.report_dir, exist_ok=True)
            runner = functools.partial(
                execute_cell, report_dir=str(cfg.report_dir)
            )
        self.registry = JobRegistry()
        self.admission = AdmissionController(
            quick_cap=cfg.quick_cap, bulk_cap=cfg.bulk_cap, jobs=cfg.jobs
        )
        self.latency = LatencyTracker()
        self.cells: Dict[str, CellState] = self.registry.cells
        self.pending: Dict[str, Deque[str]] = {
            LANE_QUICK: deque(),
            LANE_BULK: deque(),
        }
        if cache is not None:
            self.cache = cache
        elif cfg.use_cache:
            from repro.experiments.runner import default_cache

            self.cache = default_cache()
        else:
            self.cache = None
        self.telemetry_dir: Optional[str] = None
        if cfg.telemetry:
            tdir = _telemetry.spool_dir_for(cfg.manifest)
            tdir.mkdir(parents=True, exist_ok=True)
            self.telemetry_dir = str(tdir)
        self.pool = CellPool(
            cfg.jobs,
            runner=runner,
            timeout=cfg.timeout,
            telemetry_dir=self.telemetry_dir,
            telemetry_interval=cfg.telemetry_interval,
            start_method=cfg.start_method,
        )
        self.inflight = 0
        self.completed_cells = 0  # executed (not cached/resumed) terminals
        self.quarantined_total = 0
        self.started_at = time.monotonic()
        self.draining = False
        self.stopped = asyncio.Event()
        self._resume_records: Dict[str, CellRecord] = {}
        self._unrecorded: List[CellRecord] = []
        self._job_events: Dict[str, asyncio.Event] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self.cfg.resume and self.manifest.path.exists():
            scan = self.queue.attach()
            self._resume_records = dict(scan.records)
        else:
            self.manifest.reset(meta={"jobs": self.cfg.jobs, "serve": True})
            self.queue.attach()
        self._load_checkpoint()
        self.pool.start(self._pool_result_threadsafe)
        self._tick_task = asyncio.create_task(self._run())

    def begin_drain(self) -> None:
        """Flip to draining; idempotent; safe from a signal handler."""
        if self.draining:
            return
        self.draining = True
        if self._loop is not None and self._drain_task is None:
            self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        # let in-flight cells finish (their results still flow through the
        # normal path and land in the manifest), then stop the pump
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.pool.stop(drain=True, timeout=self.cfg.drain_grace)
        )
        self._flush_unrecorded()
        self._write_checkpoint()
        if self._tick_task is not None:
            self._tick_task.cancel()
        self.stopped.set()

    async def aclose(self) -> None:
        """Hard stop (tests): no drain, no checkpoint."""
        if self._tick_task is not None:
            self._tick_task.cancel()
        if self._drain_task is not None:
            await asyncio.gather(self._drain_task, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.pool.stop(drain=False, timeout=1.0)
        )
        if self.cache is not None:
            try:
                self.cache.flush()
            except OSError:
                pass
        self.stopped.set()

    # ------------------------------------------------------------------
    # Submission path (called from the event loop)
    # ------------------------------------------------------------------
    def submit(
        self,
        specs: List[dict],
        lane: Optional[str] = None,
        deadline_s: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Admit one job; raises Saturated/Draining/SpecError.

        ``trace_id`` is the client-supplied trace (already validated by
        :func:`repro.obs.spans.parse_traceparent`); with spans enabled a
        missing one is minted here — the admission point is where the
        causal chain starts.
        """
        t0 = time.perf_counter()
        wall0 = time.time()
        if trace_id is None and self.spans.enabled:
            trace_id = mint_trace_id()
        if self.draining:
            raise Draining("node is draining")
        if not specs:
            raise SpecError("submission carries no cells")
        cells = [cell_from_spec(s) for s in specs]
        if lane is None:
            lanes = {infer_lane(s) for s in specs}
            lane = LANE_BULK if LANE_BULK in lanes else LANE_QUICK
        elif lane not in (LANE_QUICK, LANE_BULK):
            raise SpecError(f"unknown lane {lane!r}")
        # dedupe within the submission, then against live/terminal state
        unique: Dict[str, Tuple[Cell, dict]] = {}
        for cell, spec in zip(cells, specs):
            unique.setdefault(cell.cell_id, (cell, dict(spec)))
        needs_slot = [
            cid
            for cid in unique
            if cid not in self.cells and not self._resolvable(unique[cid][0])
        ]
        verdict = self.admission.try_admit(lane, len(needs_slot))
        if verdict is not None:
            raise Saturated(verdict)
        job = Job(
            job_id=self.registry.new_job_id(),
            cell_ids=list(unique),
            lane=lane,
            submitted=time.monotonic(),
            deadline=(
                time.monotonic() + deadline_s if deadline_s is not None else None
            ),
            trace_id=trace_id,
        )
        self.registry.add(job)
        self._job_events[job.job_id] = asyncio.Event()
        for cid, (cell, spec) in unique.items():
            state = self.cells.get(cid)
            if state is None:
                state = self.cells[cid] = CellState(
                    cell=cell, spec=spec, lane=lane, trace_id=trace_id
                )
                resolved = self._try_resolve(state)
                if not resolved:
                    state.enqueued = time.monotonic()
                    self.pending[lane].append(cid)
            elif state.trace_id is None:
                state.trace_id = trace_id
            state.jobs.add(job.job_id)
            if state.terminal:
                job.done.add(cid)
        if len(job.done) >= len(job.cell_ids):
            job.status = "done"
            self._job_events[job.job_id].set()
        elapsed = time.perf_counter() - t0
        self.latency.observe(elapsed)
        self.spans.record(
            STAGE_ADMIT,
            trace_id,
            wall0,
            elapsed,
            job=job.job_id,
            lane=lane,
            cells=len(unique),
        )
        self._dispatch()
        out = {
            "job": job.job_id,
            "status": job.status,
            "lane": lane,
            "cells": list(unique),
        }
        if trace_id is not None:
            out["trace"] = trace_id
        return out

    def _resolvable(self, cell: Cell) -> bool:
        """True when the cell will be satisfied without queue capacity."""
        rec = self._resume_records.get(cell.cell_id)
        if rec is not None and (rec.ok or rec.diagnosis is not None):
            return True
        if self.cache is not None and cell.cacheable:
            key = cell.config.cache_key(cell.workload, cell.scheme)
            return self.cache.get(key) is not None
        return False

    def _try_resolve(self, state: CellState) -> bool:
        """Satisfy a new cell from the manifest (resume) or ResultCache."""
        rec = self._resume_records.get(state.cell_id)
        if rec is not None and (rec.ok or rec.diagnosis is not None):
            state.record = rec
            state.status = (
                CELL_QUARANTINED if rec.diagnosis is not None else CELL_DONE
            )
            self.queue.done.add(state.cell_id)
            return True
        if self.cache is not None and state.cell.cacheable:
            key = state.cell.config.cache_key(
                state.cell.workload, state.cell.scheme
            )
            hit = self.cache.get(key)
            if hit is not None:
                rec = CellRecord(
                    cell_id=state.cell_id,
                    workload=state.cell.workload,
                    scheme=state.cell.scheme,
                    status=STATUS_OK,
                    attempts=0,
                    elapsed=0.0,
                    summary=summarize(hit),
                    cached=True,
                )
                self._finish(state, rec, executed=False)
                return True
        return False

    # ------------------------------------------------------------------
    # Dispatch / results
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Move pending cells into the pool: quick lane first, bounded by
        pool width (claimed-but-queued cells would just burn lease)."""
        if self.draining:
            return
        while self.inflight < self.cfg.jobs:
            cid = self._pop_pending()
            if cid is None:
                return
            state = self.cells.get(cid)
            if state is None or state.terminal:
                continue
            self._launch(state, state.attempts + 1)

    def _pop_pending(self) -> Optional[str]:
        for lane in (LANE_QUICK, LANE_BULK):
            q = self.pending[lane]
            while q:
                cid = q.popleft()
                state = self.cells.get(cid)
                if state is None or state.status != CELL_PENDING:
                    continue
                if state.jobs and self.registry.live_refs(cid) == 0:
                    # every job wanting this cell expired while it queued
                    self.admission.release(lane)
                    continue
                self.admission.release(lane)
                return cid
        return None

    def _launch(self, state: CellState, attempt: int) -> None:
        if state.enqueued is not None:
            age = max(0.0, time.monotonic() - state.enqueued)
            state.enqueued = None
            self.admission.observe_queue_age(state.lane, age)
            self.spans.record(
                STAGE_QUEUE,
                state.trace_id,
                time.time() - age,
                age,
                cell_id=state.cell_id,
                lane=state.lane,
            )
        claim_wall = time.time()
        claim_t0 = time.perf_counter()
        try:
            self.queue.claim(state.cell_id, state.spec, trace=state.trace_id)
        except OSError:
            # claim did not land (e.g. ENOSPC): run anyway — claims are an
            # optimization for peers; the terminal record is what matters
            pass
        else:
            self.spans.record(
                STAGE_CLAIM,
                state.trace_id,
                claim_wall,
                time.perf_counter() - claim_t0,
                cell_id=state.cell_id,
                gen=self.queue.gen,
                clock=self.queue.clock,
            )
        state.status = CELL_RUNNING
        state.attempts = attempt
        self.inflight += 1
        self.pool.submit(state.cell, attempt)

    def _pool_result_threadsafe(self, res: PoolResult) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._on_result, res)

    def _on_result(self, res: PoolResult) -> None:
        self.inflight = max(0, self.inflight - 1)
        state = self.cells.get(res.cell.cell_id)
        if state is None or state.terminal:
            self._dispatch()  # zombie result for a stolen/finished cell
            return
        self.spans.record(
            STAGE_EXECUTE,
            state.trace_id,
            time.time() - max(0.0, res.elapsed),
            res.elapsed,
            cell_id=state.cell_id,
            status=res.status,
            attempt=res.attempt,
            **({"slot": res.worker} if res.worker else {}),
        )
        if res.status == STATUS_CRASH:
            # infrastructure death, not a cell verdict: always re-run, with
            # deterministic jitter so a mass worker death cannot stampede
            state.crashes += 1
            self._requeue_later(
                state,
                retry_delay(
                    state.cell_id,
                    state.crashes,
                    self.cfg.crash_backoff,
                    cap=2.0,
                ),
            )
        else:
            rec = attempt_record(
                state.cell,
                res.attempt,
                res.status,
                res.payload,
                res.elapsed,
                self.cfg.retries,
            )
            if rec is None:
                self._requeue_later(
                    state,
                    retry_delay(state.cell_id, res.attempt, self.cfg.crash_backoff),
                )
            else:
                # a diagnosed integrity failure is deterministic: quarantine
                quarantine = rec.diagnosis is not None
                if quarantine:
                    self.quarantined_total += 1
                self._finish(state, rec, executed=True, quarantine=quarantine)
        self._dispatch()

    def _requeue_later(self, state: CellState, delay: float) -> None:
        state.status = CELL_PENDING
        if self._loop is None or self.draining:
            return  # draining: stays pending, lands in the checkpoint

        def _again() -> None:
            if state.terminal or state.status != CELL_PENDING or self.draining:
                return
            if self.inflight < self.cfg.jobs:
                self._launch(state, state.attempts + 1)
            else:
                state.enqueued = time.monotonic()
                self.pending[state.lane].appendleft(state.cell_id)
                self.admission.queued[state.lane] += 1

        self._loop.call_later(delay, _again)

    def _finish(
        self,
        state: CellState,
        rec: CellRecord,
        executed: bool,
        quarantine: bool = False,
    ) -> None:
        if (
            executed
            and rec.ok
            and rec.report is None
            and self.cfg.report_dir is not None
        ):
            report = cell_report_path(self.cfg.report_dir, rec.cell_id)
            if report.exists():
                rec.report = str(report)
        merge_wall = time.time()
        merge_t0 = time.perf_counter()
        try:
            self.queue.record(rec)
        except OSError:
            # full disk mid-merge: keep the record in memory and retry the
            # append every tick until the write lands
            self._unrecorded.append(rec)
            self.queue.release(rec.cell_id)
        if executed:
            self.spans.record(
                STAGE_MERGE,
                state.trace_id,
                merge_wall,
                time.perf_counter() - merge_t0,
                cell_id=state.cell_id,
                status=rec.status,
            )
        state.record = rec
        state.status = CELL_QUARANTINED if quarantine else CELL_DONE
        if executed:
            self.completed_cells += 1
            if rec.ok:
                self.admission.observe_cell_seconds(rec.elapsed, lane=state.lane)
        if (
            rec.ok
            and not rec.cached
            and self.cache is not None
            and state.cell.cacheable
        ):
            key = state.cell.config.cache_key(
                state.cell.workload, state.cell.scheme
            )
            from repro.system import SimulationResult

            self.cache.put(key, SimulationResult(extra={}, **rec.summary))
            try:
                self.cache.flush()
            except OSError:
                pass
        for job in self.registry.cell_done(state.cell_id):
            event = self._job_events.get(job.job_id)
            if event is not None:
                event.set()

    def _flush_unrecorded(self) -> None:
        still: List[CellRecord] = []
        for rec in self._unrecorded:
            try:
                self.manifest.append(rec)
                self.queue.done.add(rec.cell_id)
            except OSError:
                still.append(rec)
        self._unrecorded = still

    # ------------------------------------------------------------------
    # Tick loop: clock, renewals, stealing, expiry
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.tick_interval)
            try:
                self._tick_cycle()
            except asyncio.CancelledError:  # pragma: no cover
                raise
            except Exception:  # pragma: no cover - the loop must survive
                pass
            if self.cfg.exit_when_complete and self._complete():
                self.begin_drain()
                return

    def _tick_cycle(self) -> None:
        try:
            self.queue.tick()
        except OSError:
            pass  # ticks are disposable; a full disk only slows stealing
        try:
            scan = self.queue.scan()
        except OSError:
            return
        self._absorb_peer_records(scan)
        self._flush_unrecorded()
        # renew leases on cells we are actively running
        for cid in self.queue.renewals_due(scan):
            state = self.cells.get(cid)
            if state is not None and state.status == CELL_RUNNING:
                try:
                    # carry the trace on renewals too, or a death after a
                    # renewal would strand the stolen cell off its trace
                    self.queue.claim(cid, state.spec, trace=state.trace_id)
                except OSError:
                    pass
            else:
                self.queue.release(cid)
        # steal expired orphans (admission-exempt: already admitted once)
        if not self.draining:
            for cid, spec in self.queue.steals(scan):
                if self.inflight >= self.cfg.jobs * 2:
                    break  # bounded theft: leave the rest for other peers
                claim = scan.claims.get(cid)
                trace = claim.trace if claim is not None else None
                state = self.cells.get(cid)
                if state is None:
                    try:
                        cell = cell_from_spec(spec)
                    except SpecError:
                        continue
                    state = self.cells[cid] = CellState(
                        cell=cell,
                        spec=spec,
                        lane=infer_lane(spec),
                        trace_id=trace,
                    )
                if state.status != CELL_PENDING or state.terminal:
                    continue
                if state.trace_id is None:
                    # adopt the trace riding in the dead owner's claim: the
                    # stolen cell stays on the submission's causal chain
                    state.trace_id = trace
                state.stolen = True
                self.queue.stolen_total += 1
                self.spans.record(
                    STAGE_STEAL,
                    state.trace_id,
                    time.time(),
                    0.0,
                    cell_id=cid,
                    **(
                        {"from_worker": claim.worker, "from_gen": claim.gen}
                        if claim is not None
                        else {}
                    ),
                )
                self._launch(state, state.attempts + 1)
        # job deadlines: queued cells of expired jobs stop occupying lanes
        for job in self.registry.expire_due():
            event = self._job_events.get(job.job_id)
            if event is not None:
                event.set()
        self._dispatch()

    def _absorb_peer_records(self, scan: Any) -> None:
        """Fold terminal records written by peers into local cell state."""
        for cid, rec in scan.records.items():
            state = self.cells.get(cid)
            if state is None or state.terminal:
                continue
            if state.status == CELL_PENDING:
                # a peer finished it first: drop our queued copy
                try:
                    self.pending[state.lane].remove(cid)
                    self.admission.release(state.lane)
                except ValueError:
                    pass
            self._finish(state, rec, executed=False)

    def _complete(self) -> bool:
        scan = self.queue._last_scan
        if scan is None:
            return False
        claims = set(scan.claims)
        if not claims:
            return False
        return (
            claims <= self.queue.done
            and self.inflight == 0
            and not any(self.pending.values())
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _write_checkpoint(self) -> None:
        path = checkpoint_path(self.cfg.manifest)
        pending = [
            {"kind": "pending", "cell_id": s.cell_id, "spec": s.spec,
             "lane": s.lane, "attempts": s.attempts,
             **({"trace": s.trace_id} if s.trace_id is not None else {})}
            for s in self.cells.values()
            if not s.terminal
        ]
        jobs = [
            {"kind": "job", "job": j.job_id, "cells": j.cell_ids,
             "lane": j.lane, "status": j.status}
            for j in self.registry.jobs.values()
        ]
        if not pending and not jobs:
            try:
                os.remove(path)
            except OSError:
                pass
            return
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(
                    json.dumps(
                        {
                            "kind": "checkpoint",
                            "version": CHECKPOINT_VERSION,
                            "worker": self.cfg.name,
                            "ts": time.time(),
                        }
                    )
                    + "\n"
                )
                for row in pending + jobs:
                    fh.write(json.dumps(row) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - checkpoint is best-effort;
            pass  # the manifest claims still allow stealing

    def _load_checkpoint(self) -> None:
        path = checkpoint_path(self.cfg.manifest)
        if not self.cfg.resume or not os.path.exists(path):
            return
        try:
            lines = open(path).read().splitlines()
        except OSError:
            return
        for line in lines:
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(raw, dict) or raw.get("kind") != "pending":
                continue
            spec = raw.get("spec")
            cid = raw.get("cell_id")
            if not isinstance(spec, dict) or not isinstance(cid, str):
                continue
            if cid in self.queue.done or cid in self.cells:
                continue
            try:
                cell = cell_from_spec(spec)
            except SpecError:
                continue
            if cell.cell_id != cid:
                continue
            lane = raw.get("lane") if raw.get("lane") in self.pending else LANE_BULK
            trace = raw.get("trace")
            state = self.cells[cid] = CellState(
                cell=cell,
                spec=spec,
                lane=lane,
                trace_id=trace if isinstance(trace, str) else None,
            )
            if not self._try_resolve(state):
                state.enqueued = time.monotonic()
                self.pending[lane].append(cid)
                self.admission.queued[lane] += 1
        try:
            os.remove(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def serve_stats(self) -> dict:
        p99 = self.latency.quantile(0.99)
        return {
            "worker": self.cfg.name,
            "gen": self.queue.gen,
            "clock": self.queue.clock,
            "draining": self.draining,
            "inflight": self.inflight,
            "pending": {lane: len(q) for lane, q in self.pending.items()},
            "jobs": self.registry.counts(),
            "admission": self.admission.snapshot(),
            "stolen_total": self.queue.stolen_total,
            "quarantined_total": self.quarantined_total,
            "completed_cells": self.completed_cells,
            "unrecorded": len(self._unrecorded),
            "admission_p99_seconds": p99,
            "spans": self.spans.snapshot(),
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
        }

    def job_info(self, job: Job) -> dict:
        """Job status plus span-derived per-stage wall-clock attribution."""
        out = job.to_dict(self.cells)
        for cid, entry in out["cells"].items():
            stages = self.spans.by_cell.get(cid)
            if stages:
                entry["stages"] = {k: round(v, 6) for k, v in stages.items()}
        totals = self.spans.stage_totals(job.cell_ids)
        fracs = attribution(totals)
        if fracs:
            out["stages"] = {k: round(v, 6) for k, v in totals.items()}
            out["critical_path"] = fracs
            out["critical_path_text"] = critical_path_text(fracs)
        return out

    def job_report_paths(self, job: Job) -> Dict[str, str]:
        """cell_id -> on-disk RunReport path for cells that wrote one."""
        out: Dict[str, str] = {}
        for cid in job.cell_ids:
            state = self.cells.get(cid)
            rec = state.record if state is not None else None
            path = rec.report if rec is not None else None
            if path is None and self.cfg.report_dir is not None:
                candidate = cell_report_path(self.cfg.report_dir, cid)
                if candidate.exists():
                    path = str(candidate)
            if path is not None and os.path.exists(path):
                out[cid] = path
        return out

    def job_reports(self, job: Job) -> dict:
        """The job's RunReport artifacts as one JSON payload (wire form)."""
        reports: Dict[str, Any] = {}
        for cid, path in self.job_report_paths(job).items():
            try:
                with open(path) as fh:
                    reports[cid] = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
        return {
            "job": job.job_id,
            "report_dir": self.cfg.report_dir,
            "reports": reports,
        }

    def job_dash(self, job: Job) -> str:
        """The run-report dashboard for this job, rendered server-side."""
        from repro.obs.html import render_html
        from repro.obs.report import RunReport

        reports = []
        for _cid, path in sorted(self.job_report_paths(job).items()):
            try:
                reports.append(RunReport.load(path))
            except Exception:
                continue
        return render_html(reports, title=f"repro serve job {job.job_id}")

    def snapshot(self) -> dict:
        if self.telemetry_dir is not None:
            if not hasattr(self, "_aggregator"):
                self._aggregator = _telemetry.TelemetryAggregator(
                    self.telemetry_dir, manifest_path=self.cfg.manifest
                )
            snap = self._aggregator.refresh().to_snapshot()
        else:
            snap = {
                "version": _telemetry.TELEMETRY_VERSION,
                "ts": time.time(),
                "campaign": {},
                "manifest": {},
                "workers": [],
                "failures": [],
            }
        snap["serve"] = self.serve_stats()
        return snap


# ----------------------------------------------------------------------
# Wire front end
# ----------------------------------------------------------------------

_MAX_BODY = 8 * 1024 * 1024


class ServeService:
    """HTTP + JSONL listener bound to one :class:`ServeScheduler`."""

    def __init__(
        self,
        cfg: ServeConfig,
        runner: CellRunner = execute_cell,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.cfg = cfg
        self.node = ServeScheduler(cfg, runner=runner, cache=cache)
        self._server: Optional[asyncio.AbstractServer] = None
        self.port = cfg.port

    async def start(self) -> "ServeService":
        await self.node.start()
        self._server = await asyncio.start_server(
            self._handle, self.cfg.host, self.cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.cfg.host}:{self.port}"

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.node.aclose()

    async def drain_and_stop(self) -> None:
        self.node.begin_drain()
        await self.node.stopped.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.node.cache is not None:
            try:
                self.node.cache.flush()
            except OSError:
                pass

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.lstrip().startswith(b"{"):
                await self._jsonl_session(first, reader, writer)
            else:
                await self._http_request(first, reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # dropped client mid-stream: admitted work continues
        except Exception:  # pragma: no cover - handler must never kill loop
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # -- JSONL protocol ------------------------------------------------
    async def _jsonl_session(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        line = first
        while line:
            try:
                reply = await self._jsonl_op(line)
            except Exception as exc:
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()

    async def _jsonl_op(self, line: bytes) -> dict:
        try:
            req = json.loads(line)
        except json.JSONDecodeError:
            return {"ok": False, "error": "unparseable JSON line"}
        if not isinstance(req, dict):
            return {"ok": False, "error": "request must be an object"}
        op = req.get("op")
        node = self.node
        if op == "ping":
            return {"ok": True, "pong": True, "draining": node.draining}
        if op == "submit":
            try:
                out = node.submit(
                    _expand_cells(req),
                    lane=req.get("lane"),
                    deadline_s=req.get("deadline_s"),
                    trace_id=parse_traceparent(req.get("traceparent")),
                )
            except Saturated as exc:
                return {
                    "ok": False,
                    "error": "saturated",
                    "retry_after": exc.retry_after,
                }
            except Draining:
                return {"ok": False, "error": "draining"}
            except SpecError as exc:
                return {"ok": False, "error": str(exc)}
            return {"ok": True, **out}
        if op == "status":
            job = node.registry.jobs.get(str(req.get("job")))
            if job is None:
                return {"ok": False, "error": "unknown job"}
            return {"ok": True, **node.job_info(job)}
        if op == "wait":
            job_id = str(req.get("job"))
            job = node.registry.jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": "unknown job"}
            event = node._job_events.get(job_id)
            timeout = req.get("timeout")
            if event is not None and job.status in ("queued", "running"):
                try:
                    await asyncio.wait_for(
                        event.wait(),
                        timeout=float(timeout) if timeout is not None else None,
                    )
                except asyncio.TimeoutError:
                    return {
                        "ok": False,
                        "error": "timeout",
                        **node.job_info(job),
                    }
            return {"ok": True, **node.job_info(job)}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- HTTP protocol -------------------------------------------------
    async def _http_request(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await _respond(writer, 400, {"error": "malformed request line"})
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if b":" in line:
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                await _respond(writer, 400, {"error": "bad Content-Length"})
                return
            if n > _MAX_BODY:
                await _respond(writer, 413, {"error": "body too large"})
                return
            if n:
                body = await reader.readexactly(n)
        path = target.split("?", 1)[0]
        await self._route(writer, method, path, body, headers)

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        node = self.node
        if method == "GET" and path == "/healthz":
            if node.draining:
                await _respond(writer, 503, {"status": "draining"})
            else:
                await _respond(writer, 200, {"status": "ok"})
            return
        if method == "GET" and path == "/readyz":
            if node.draining:
                await _respond(writer, 503, {"ready": False, "reason": "draining"})
            else:
                await _respond(writer, 200, {"ready": True})
            return
        if method == "GET" and path == "/snapshot":
            await _respond(writer, 200, node.snapshot())
            return
        if method == "GET" and path == "/metrics":
            from repro.obs.promtext import render_metrics

            text = render_metrics(node.snapshot())
            await _respond(
                writer,
                200,
                text.encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if method == "GET" and path.startswith("/jobs/"):
            rest = path[len("/jobs/") :]
            tail = ""
            for suffix in ("/report", "/dash.html"):
                if rest.endswith(suffix):
                    rest, tail = rest[: -len(suffix)], suffix
                    break
            job = node.registry.jobs.get(rest)
            if job is None:
                await _respond(writer, 404, {"error": "unknown job"})
                return
            if tail == "/report":
                await _respond(writer, 200, node.job_reports(job))
            elif tail == "/dash.html":
                await _respond(
                    writer,
                    200,
                    node.job_dash(job).encode(),
                    content_type="text/html; charset=utf-8",
                )
            else:
                await _respond(writer, 200, node.job_info(job))
            return
        if method == "POST" and path == "/submit":
            try:
                req = json.loads(body or b"{}")
                if not isinstance(req, dict):
                    raise SpecError("submission body must be a JSON object")
                out = node.submit(
                    _expand_cells(req),
                    lane=req.get("lane"),
                    deadline_s=req.get("deadline_s"),
                    trace_id=parse_traceparent(
                        (headers or {}).get("traceparent")
                        or req.get("traceparent")
                    ),
                )
            except Saturated as exc:
                await _respond(
                    writer,
                    429,
                    {"error": "saturated", "retry_after": exc.retry_after},
                    headers={"Retry-After": str(exc.retry_after)},
                )
                return
            except Draining:
                await _respond(writer, 503, {"error": "draining"})
                return
            except (SpecError, json.JSONDecodeError) as exc:
                await _respond(writer, 400, {"error": str(exc)})
                return
            await _respond(writer, 202, out)
            return
        if method == "POST" and path == "/drain":
            node.begin_drain()
            await _respond(writer, 202, {"draining": True})
            return
        await _respond(writer, 404, {"error": f"no route {method} {path}"})


def _expand_cells(req: dict) -> List[dict]:
    """Cells from a submission body: explicit list and/or a grid shorthand.

    ``{"grid": {"mixes": [...], "schemes": [...], "refs": N, ...}}`` expands
    workload-major, matching ``repro campaign`` cell order.
    """
    specs: List[dict] = []
    cells = req.get("cells")
    if cells is not None:
        if not isinstance(cells, list):
            raise SpecError("'cells' must be a list of cell specs")
        specs.extend(c for c in cells if isinstance(c, dict))
        if len(specs) != len(cells):
            raise SpecError("every cell spec must be an object")
    grid = req.get("grid")
    if grid is not None:
        if not isinstance(grid, dict):
            raise SpecError("'grid' must be an object")
        mixes = grid.get("mixes")
        schemes = grid.get("schemes")
        if not isinstance(mixes, list) or not isinstance(schemes, list):
            raise SpecError("'grid' needs 'mixes' and 'schemes' lists")
        base = {
            k: v
            for k, v in grid.items()
            if k in ("refs", "seed", "topology", "ber", "drop", "fault_seed",
                     "integrity")
        }
        topologies = grid.get("topologies")
        if topologies is not None and not isinstance(topologies, list):
            raise SpecError("'topologies' must be a list")
        for topo in topologies or [base.get("topology")]:
            for w in mixes:
                for s in schemes:
                    spec = dict(base)
                    spec["workload"] = w
                    spec["scheme"] = s
                    if topo is not None:
                        spec["topology"] = topo
                    specs.append(spec)
    if not specs:
        raise SpecError("submission carries no cells")
    return specs


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    content_type: str = "application/json",
    headers: Optional[Dict[str, str]] = None,
) -> None:
    reason = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        413: "Payload Too Large",
        429: "Too Many Requests",
        503: "Service Unavailable",
    }.get(status, "OK")
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for key, value in (headers or {}).items():
        head.append(f"{key}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()


# ----------------------------------------------------------------------
# Blocking entry points (CLI / chaos nodes)
# ----------------------------------------------------------------------


async def _serve_async(
    cfg: ServeConfig,
    runner: CellRunner = execute_cell,
    announce: bool = True,
) -> int:
    import signal as _signal

    service = ServeService(cfg, runner=runner)
    await service.start()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(_signal.SIGTERM, service.node.begin_drain)
        loop.add_signal_handler(_signal.SIGINT, service.node.begin_drain)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    if announce:
        print(
            f"serve: listening on {service.url} "
            f"(manifest {cfg.manifest}, {cfg.jobs} workers, "
            f"gen {service.node.queue.gen})",
            flush=True,
        )
    await service.node.stopped.wait()
    if service._server is not None:
        service._server.close()
        await service._server.wait_closed()
    if service.node.cache is not None:
        try:
            service.node.cache.flush()
        except OSError:
            pass
    if announce:
        print("serve: drained and stopped", flush=True)
    return 0


def run_serve(cfg: ServeConfig, runner: CellRunner = execute_cell) -> int:
    """Blocking service entry: runs until SIGTERM (or /drain) completes."""
    try:
        return asyncio.run(_serve_async(cfg, runner=runner))
    except KeyboardInterrupt:  # pragma: no cover
        return 130
