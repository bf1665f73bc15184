"""The one process pool behind campaigns and the service.

:class:`CellPool` runs cells on up to ``jobs`` persistent worker processes.
:func:`~repro.campaign.executor.run_campaign` feeds it a finite cell list;
the service scheduler (:mod:`repro.serve.server`) feeds it an unbounded
stream.  Both get the same isolation, per-attempt timeouts and crash
containment:

* cells come in through a thread-safe inbox (:meth:`CellPool.submit`);
* the pump thread sleeps in one ``connection.wait`` over the busy workers'
  pipes plus a wake socket that :meth:`~CellPool.submit` writes a byte to,
  so a new cell reaches a free worker at once even while another worker is
  busy;
* results leave through an ``on_result`` callback fired from the pump
  thread (the campaign hands in a ``queue.Queue.put``, the asyncio
  scheduler a trampoline onto its event loop);
* a worker that dies mid-cell surfaces the cell as status ``crash`` and the
  slot respawns lazily; what a crash means is the caller's policy (the
  campaign counts it as an error that consumes a retry, the service always
  requeues it);
* an attempt that overruns its deadline is killed and surfaced as
  ``timeout`` (terminal: a deterministic simulator that hung once will
  hang again).

What one attempt *is* lives here too, once for every path, pooled or
in-process: :func:`run_attempt` runs it and :func:`attempt_record` turns its
outcome into a terminal :class:`~repro.campaign.manifest.CellRecord` or a
retry.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import socket
import threading
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.campaign.manifest import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellRecord,
)
from repro.campaign.spec import Cell
from repro.obs import telemetry as _telemetry

#: worker telemetry spec shipped to the child process:
#: (spool_dir, worker_name, heartbeat_interval)
TelemetrySpec = Tuple[str, str, float]

#: a cell runner maps (cell, attempt) -> summary dict (the _CACHED_FIELDS
#: projection); it must be a module-level callable so spawn can pickle it
CellRunner = Callable[[Cell, int], dict]

#: pool-level result status for a worker that died mid-cell (not a manifest
#: status: each caller maps it to a retry or a terminal error)
STATUS_CRASH = "crash"

#: longest pump sleep: submits, stops and results wake it sooner; this cap
#: only bounds how late an idle worker's death or a failed spawn is noticed
PUMP_WAIT_S = 0.2


@dataclass
class PoolResult:
    """One attempt's outcome as surfaced to the pool's client."""

    cell: Cell
    attempt: int
    status: str  # ok | error | timeout | crash
    payload: Any  # summary dict, error text, or {"error","diagnosis"}
    elapsed: float
    worker: Optional[str] = None  # pool slot name ("w0", ...) for tracing


# ----------------------------------------------------------------------
# One attempt
# ----------------------------------------------------------------------


def activate_heartbeat(spec: Optional[TelemetrySpec]) -> Any:
    """Arm this process's heartbeat spool, or return None to run blind."""
    if spec is None:
        return None
    try:
        return _telemetry.activate_worker(*spec)
    except OSError:
        return None  # unwritable spool dir: run blind, never refuse work


def run_attempt(
    runner: CellRunner, cell: Cell, attempt: int, heartbeat: Any = None
) -> Tuple[str, Any, float]:
    """Run one attempt; return ``(status, payload, elapsed)``.

    The payload is the summary when ``ok``; on ``error`` it is the stripped
    traceback, or ``{"error", "diagnosis"}`` when the exception carries an
    integrity report (which has already written its crash dump in this
    process).
    """
    if heartbeat is not None:
        heartbeat.cell_start(cell, attempt)
    t0 = time.perf_counter()
    try:
        summary = runner(cell, attempt)
    except Exception as exc:
        status, payload = STATUS_ERROR, traceback.format_exc(limit=8)
        diagnosis = getattr(exc, "report", None)
        if isinstance(diagnosis, dict) and diagnosis:
            payload = {"error": payload, "diagnosis": diagnosis}
    else:
        status, payload = STATUS_OK, summary
    elapsed = time.perf_counter() - t0
    if heartbeat is not None:
        heartbeat.cell_end(status, elapsed)
    return status, payload, elapsed


def attempt_record(
    cell: Cell,
    attempt: int,
    status: str,
    payload: Any,
    elapsed: float,
    retries: int,
) -> Optional[CellRecord]:
    """The terminal record for an ``ok``/``error``/``timeout`` attempt, or
    None when the caller should retry it.

    Only an undiagnosed error with retries left is retried (its payload is
    the error text).  A diagnosed integrity failure is deterministic, so it
    is terminal at once; so is a timeout.  Crashes are not handled here:
    each caller maps them by its own policy first.
    """
    common = dict(
        cell_id=cell.cell_id,
        workload=cell.workload,
        scheme=cell.scheme,
        status=status,
        attempts=attempt,
        elapsed=elapsed,
    )
    if status == STATUS_OK:
        return CellRecord(summary=payload, **common)
    diagnosis = None
    error = payload
    if isinstance(payload, dict):
        diagnosis = payload.get("diagnosis")
        error = payload.get("error", "")
    if status == STATUS_ERROR and diagnosis is None and attempt <= retries:
        return None
    return CellRecord(error=str(error).strip(), diagnosis=diagnosis, **common)


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------


def _worker_loop(
    conn: Any, runner: CellRunner, telemetry: Optional[TelemetrySpec] = None
) -> None:
    """Worker process body: run cells off the pipe until told to stop."""
    wt = activate_heartbeat(telemetry)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        cell, attempt = task
        try:
            conn.send(run_attempt(runner, cell, attempt, wt))
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

    def death(self) -> str:
        """The crash payload for a task this worker died holding."""
        return f"worker process died (exitcode {self.proc.exitcode})"

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
# The pool
# ----------------------------------------------------------------------


class CellPool:
    """A fixed-width pool of persistent cell workers fed by a queue."""

    def __init__(
        self,
        jobs: int,
        runner: CellRunner,
        timeout: Optional[float] = None,
        telemetry_dir: Optional[str] = None,
        telemetry_interval: float = 0.5,
        start_method: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.runner = runner
        self.timeout = timeout
        self.telemetry_dir = telemetry_dir
        self.telemetry_interval = telemetry_interval
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._inbox: "queue.Queue[Tuple[Cell, int]]" = queue.Queue()
        self._on_result: Optional[Callable[[PoolResult], None]] = None
        self._workers: List[Optional[_Worker]] = [None] * jobs
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._idle_lock = threading.Lock()  # idle flips vs. inbox puts
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        #: the exception that killed the pump thread, if one did
        self.failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def start(self, on_result: Callable[[PoolResult], None]) -> "CellPool":
        self._on_result = on_result
        self._wake_r, self._wake_w = socket.socketpair()
        for end in (self._wake_r, self._wake_w):
            end.setblocking(False)
            parent_only(end)
        self._thread = threading.Thread(
            target=self._pump, name="repro-cell-pool", daemon=True
        )
        self._thread.start()
        return self

    def submit(self, cell: Cell, attempt: int) -> None:
        with self._idle_lock:
            self._idle.clear()
            self._inbox.put((cell, attempt))
        self._wake()

    def _wake(self) -> None:
        wake = self._wake_w
        if wake is None:
            return
        try:
            wake.send(b"\0")
        except OSError:
            pass  # buffer full (a wake is already pending) or pool stopped

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass  # BlockingIOError: drained

    @property
    def queued(self) -> int:
        return self._inbox.qsize()

    def worker_pids(self) -> List[int]:
        """PIDs of live workers (chaos targets); racy by nature."""
        with self._lock:
            return [
                w.proc.pid
                for w in self._workers
                if w is not None and w.alive and w.proc.pid is not None
            ]

    def busy_count(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers if w is not None and w.busy)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no cell is queued or in flight (drain barrier)."""
        return self._idle.wait(timeout)

    # ------------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pump; with ``drain``, let in-flight cells finish first."""
        if drain:
            self._drain.set()
            self._wake()
            self._idle.wait(timeout)
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=max(5.0, timeout))
            self._thread = None
        with self._lock:
            for i, w in enumerate(self._workers):
                if w is not None:
                    w.shutdown()
                    self._workers[i] = None

    def kill_workers(self) -> None:
        """Abruptly kill every live worker (chaos/emergency path)."""
        with self._lock:
            for w in self._workers:
                if w is not None:
                    w.kill()

    # ------------------------------------------------------------------
    def _telemetry(self, slot: int) -> Optional[TelemetrySpec]:
        if self.telemetry_dir is None:
            return None
        return (self.telemetry_dir, f"w{slot}", self.telemetry_interval)

    def _emit(
        self, slot: int, w: _Worker, status: str, payload: Any, elapsed: float
    ) -> None:
        """Take ``w``'s task and hand its outcome to the client."""
        cell, attempt = w.take_task()
        cb = self._on_result
        if cb is None:
            return
        try:
            cb(PoolResult(cell, attempt, status, payload, elapsed, f"w{slot}"))
        except Exception:  # pragma: no cover - client bug must not
            pass  # wedge the pump

    def _spawn(self, slot: int) -> Optional[_Worker]:
        try:
            w = _Worker(self._ctx, self.runner, telemetry=self._telemetry(slot))
        except OSError:  # pragma: no cover - fork failure under pressure
            return None
        with self._lock:
            self._workers[slot] = w
        return w

    def _pump(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # e.g. an unpicklable runner under spawn
            self.failure = exc
            raise
        finally:
            wake_r, wake_w = self._wake_r, self._wake_w
            self._wake_r = self._wake_w = None
            wake_r.close()
            wake_w.close()

    def _loop(self) -> None:  # noqa: C901 - one pump, states inline
        backlog: Deque[Tuple[Cell, int]] = deque()
        while not self._stop.is_set():
            # consume wake-ups before the inbox: a submit landing after this
            # point leaves its byte behind, so the wait below returns at once
            self._drain_wake()
            try:
                while True:
                    backlog.append(self._inbox.get_nowait())
            except queue.Empty:
                pass
            # surface crashed workers and respawn lazily
            for i, w in enumerate(self._workers):
                if w is None or w.alive:
                    continue
                if w.busy:
                    self._emit(i, w, STATUS_CRASH, w.death(), 0.0)
                w.kill()
                with self._lock:
                    self._workers[i] = None
            # assign backlog to free slots (unless draining the pool)
            if backlog and not self._drain.is_set():
                for i, w in enumerate(self._workers):
                    if not backlog:
                        break
                    if w is None:
                        w = self._spawn(i)
                        if w is None:
                            continue
                    if w.busy or not w.alive:
                        continue
                    cell, attempt = backlog.popleft()
                    try:
                        w.assign(cell, attempt, self.timeout)
                    except (BrokenPipeError, OSError):
                        backlog.appendleft((cell, attempt))
            busy = [
                w for w in self._workers if w is not None and w.busy and w.alive
            ]
            with self._idle_lock:
                # draining: in-flight work is done; the untouched backlog is
                # the client's to checkpoint, not ours to hold idle open
                if not busy and (
                    self._drain.is_set() or (not backlog and self._inbox.empty())
                ):
                    self._idle.set()
            now = time.monotonic()
            wait_for = PUMP_WAIT_S
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                wait_for = min(wait_for, max(0.0, min(deadlines) - now))
            ready = connection.wait(
                [w.conn for w in busy] + [self._wake_r], timeout=wait_for
            )
            for w in busy:
                if w.conn in ready:
                    try:
                        outcome = w.conn.recv()
                    except (EOFError, OSError):
                        w.proc.join(timeout=1.0)  # reap it: a real exitcode
                        outcome = (STATUS_CRASH, w.death(), 0.0)
                    self._emit(self._workers.index(w), w, *outcome)
            now = time.monotonic()
            for i, w in enumerate(self._workers):
                if (
                    w is not None
                    and w.busy
                    and w.deadline is not None
                    and now >= w.deadline
                ):
                    w.kill()
                    self._emit(
                        i,
                        w,
                        STATUS_TIMEOUT,
                        f"cell exceeded {self.timeout:g}s wall-clock",
                        float(self.timeout or 0.0),
                    )
