"""Persistent worker pool for the service: the executor's workers, unending.

:func:`repro.campaign.executor.run_campaign` drives a *finite* cell list and
tears its pool down at the end; the service needs the same process workers
(isolation, per-attempt timeouts, crash containment) attached to an
*unbounded* stream of cells.  :class:`ServePool` wraps the executor's
:class:`~repro.campaign.executor._Worker` slots in a pump thread:

* cells come in through a thread-safe inbox (:meth:`submit`);
* the pump sleeps in one ``connection.wait`` over the busy workers' pipes
  plus a wake socket that :meth:`submit` writes a byte to, so a new cell
  reaches a free worker at once even while another worker is busy;
* results leave through an ``on_result`` callback fired from the pump
  thread — the asyncio scheduler hands in a callback that trampolines onto
  its event loop via ``loop.call_soon_threadsafe``;
* a worker that dies mid-cell surfaces the cell as status ``crash`` (the
  scheduler decides whether to requeue; crashes are infrastructure
  failures, not cell verdicts) and the slot respawns lazily;
* an attempt that overruns its deadline is killed and surfaced as
  ``timeout`` (terminal: a deterministic simulator that hung once will
  hang again).

Chaos hooks: :meth:`worker_pids` exposes the live worker processes so the
chaos harness can SIGKILL one mid-cell, and :meth:`kill_workers` forces the
abrupt-death path during drain testing.
"""

from __future__ import annotations

import multiprocessing
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.campaign.executor import (
    CellRunner,
    TelemetrySpec,
    _default_start_method,
    _Worker,
    execute_cell,
    parent_only,
)
from repro.campaign.manifest import STATUS_ERROR, STATUS_OK, STATUS_TIMEOUT
from repro.campaign.spec import Cell

#: pool-level result status for a worker that died mid-cell (not a manifest
#: status: the scheduler maps it to a retry or a terminal error)
STATUS_CRASH = "crash"

#: longest pump sleep: submits, stops and results wake it sooner; this cap
#: only bounds how late an idle worker's death or a failed spawn is noticed
PUMP_WAIT_S = 0.2


@dataclass
class PoolResult:
    """One attempt's outcome as surfaced to the scheduler."""

    cell: Cell
    attempt: int
    status: str  # ok | error | timeout | crash
    payload: Any  # summary dict, error text, or {"error","diagnosis"}
    elapsed: float
    worker: Optional[str] = None  # pool slot name ("w0", ...) for tracing


class ServePool:
    """A fixed-width pool of persistent cell workers fed by a queue."""

    def __init__(
        self,
        jobs: int,
        runner: CellRunner = execute_cell,
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

    # ------------------------------------------------------------------
    def start(self, on_result: Callable[[PoolResult], None]) -> "ServePool":
        self._on_result = on_result
        self._wake_r, self._wake_w = socket.socketpair()
        for end in (self._wake_r, self._wake_w):
            end.setblocking(False)
            parent_only(end)
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-pool", daemon=True
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

    def _emit(self, result: PoolResult) -> None:
        cb = self._on_result
        if cb is None:
            return
        try:
            cb(result)
        except Exception:  # pragma: no cover - scheduler bug must not
            pass  # wedge the pump

    def _spawn(self, slot: int) -> Optional[_Worker]:
        try:
            w = _Worker(self._ctx, self.runner, telemetry=self._telemetry(slot))
        except OSError:  # pragma: no cover - fork failure under pressure
            return None
        with self._lock:
            self._workers[slot] = w
        return w

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
                    cell, attempt = w.take_task()
                    self._emit(
                        PoolResult(
                            cell,
                            attempt,
                            STATUS_CRASH,
                            f"worker process died (exitcode {w.proc.exitcode})",
                            0.0,
                            worker=f"w{i}",
                        )
                    )
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
                # the scheduler's to checkpoint, not ours to hold idle open
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
                    slot = f"w{self._workers.index(w)}"
                    cell, attempt = w.take_task()
                    try:
                        status, payload, elapsed = w.conn.recv()
                    except (EOFError, OSError):
                        status, payload, elapsed = (
                            STATUS_CRASH,
                            f"worker process died (exitcode {w.proc.exitcode})",
                            0.0,
                        )
                    self._emit(
                        PoolResult(
                            cell, attempt, status, payload, elapsed, worker=slot
                        )
                    )
            now = time.monotonic()
            for i, w in enumerate(self._workers):
                if (
                    w is not None
                    and w.busy
                    and w.deadline is not None
                    and now >= w.deadline
                ):
                    cell, attempt = w.take_task()
                    w.kill()
                    self._emit(
                        PoolResult(
                            cell,
                            attempt,
                            STATUS_TIMEOUT,
                            f"cell exceeded {self.timeout:g}s wall-clock",
                            float(self.timeout or 0.0),
                            worker=f"w{i}",
                        )
                    )
        wake_r, wake_w = self._wake_r, self._wake_w
        self._wake_r = self._wake_w = None
        wake_r.close()
        wake_w.close()


__all__ = [
    "PoolResult",
    "ServePool",
    "STATUS_CRASH",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
]
