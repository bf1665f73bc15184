"""Trace-driven core with a reorder-buffer/MLP timing model.

The paper simulates 8 out-of-order x86 cores (4-wide, Table I) in gem5.  For
a memory-system study the core's job is to translate memory latency into
lost cycles faithfully; microarchitectural detail beyond that is noise.  The
model here is the standard trace-driven interval approximation:

* Non-memory instructions retire at ``issue_width`` per cycle.
* A load enters a reorder buffer of ``rob_size`` instructions.  The core can
  run ahead of an outstanding load by at most ``rob_size`` instructions
  before it must stall for the load's completion - this is what makes
  memory latency visible to IPC even at low miss rates (the paper's LM
  workloads) while still overlapping nearby misses (memory-level parallelism
  for the HM workloads).
* At most ``mlp`` memory misses may be outstanding (per-core MSHR limit).
* Stores are posted (write-buffered) and never stall the core.

A core interacts with memory through a tiny adapter interface
(:class:`MemoryPort`), so the same core drives either the full cache
hierarchy or a post-LLC miss trace directly into the HMC.
"""

from __future__ import annotations

import abc
from collections import deque
from heapq import heappush
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional

import numpy as np

from repro.request import MemoryRequest
from repro.sim.arrays import replay_tables
from repro.sim.engine import Engine


@dataclass(frozen=True)
class CoreParams:
    """Core timing parameters (defaults per Table I plus standard OoO sizes)."""

    issue_width: int = 4
    rob_size: int = 192
    mlp: int = 8  # max outstanding memory misses per core

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.rob_size < 1:
            raise ValueError("rob_size must be >= 1")
        if self.mlp < 1:
            raise ValueError("mlp must be >= 1")


class MemoryPort(abc.ABC):
    """What a core needs from the memory system."""

    #: True when the port threads ``meta`` through to the fill callback via
    #: ``MemoryRequest.meta``.  Ports that guarantee it let the core pass one
    #: shared bound method as ``on_fill`` (with per-load context in ``meta``)
    #: instead of allocating a fresh closure per load.
    fill_via_meta: bool = False

    @abc.abstractmethod
    def load(
        self,
        core_id: int,
        addr: int,
        on_fill: Callable[[MemoryRequest], None],
        meta: Optional[Any] = None,
    ) -> Optional[int]:
        """Issue a load at the current engine cycle.

        Returns a known completion *cycle* for accesses whose latency is
        deterministic (cache hits), or None when the data will arrive via
        ``on_fill`` (a memory miss).  Ports with ``fill_via_meta`` stash
        ``meta`` on the request so ``on_fill`` can recover its context.
        """

    @abc.abstractmethod
    def store(self, core_id: int, addr: int) -> None:
        """Issue a posted store at the current engine cycle."""


class Core:
    """One trace-driven core."""

    def __init__(
        self,
        core_id: int,
        engine: Engine,
        mem: MemoryPort,
        gaps: np.ndarray,
        addrs: np.ndarray,
        writes: np.ndarray,
        params: Optional[CoreParams] = None,
        on_done: Optional[Callable[["Core"], None]] = None,
    ) -> None:
        if not (len(gaps) == len(addrs) == len(writes)):
            raise ValueError("trace arrays must have equal length")
        self.core_id = core_id
        self.engine = engine
        self.mem = mem
        self.gaps = np.asarray(gaps, dtype=np.int64)
        self.addrs = np.asarray(addrs, dtype=np.int64)
        self.writes = np.asarray(writes, dtype=bool)
        self.params = params or CoreParams()
        # replay-loop mirrors: the frozen-dataclass attribute chain is paid
        # once here instead of per _run() invocation
        self._issue_width = self.params.issue_width
        self._rob_size = self.params.rob_size
        self._mlp = self.params.mlp
        # Plain-list mirrors for the replay loop: scalar indexing into a
        # NumPy array boxes a fresh numpy scalar per record, which showed
        # up in profiles at one gap+addr+write triple per trace record.
        # The per-record arithmetic (front-end cycle bump, retire count) is
        # a pure function of the trace, so it is precomputed vectorized
        # instead of re-derived record by record in the loop.
        self._bumps, self._retire = replay_tables(self.gaps, self._issue_width)
        self._addrs = self.addrs.tolist()
        self._writes = self.writes.tolist()
        self.on_done = on_done
        # One shared fill callback (context rides on MemoryRequest.meta) when
        # the port supports it; otherwise fall back to per-load closures.
        self._fill_via_meta = getattr(mem, "fill_via_meta", False)
        # Read-only replay context pack: one attribute read + C-level unpack
        # in _run's prologue instead of a dozen attribute chains per call.
        self._run_ctx = (
            self._rob_size,
            self._mlp,
            self._bumps,
            self._retire,
            self._addrs,
            self._writes,
            mem,
            core_id,
            len(self.gaps),
            self._fill if self._fill_via_meta else None,
        )

        self.n = len(self.gaps)
        self.idx = 0
        self.cycle = 0  # core-local time; never behind engine.now when running
        self.instr = 0  # retired instructions
        # outstanding loads in ROB order: [instr_no, completion_cycle | None]
        self.outstanding: Deque[List[Optional[int]]] = deque()
        self.pending_misses = 0
        self._advanced = False
        self._pending_instr = 0
        self._waiting = False
        self.done = False
        self.finish_cycle: Optional[int] = None
        # stall statistics
        self.rob_stalls = 0
        self.mlp_stalls = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, delay: int = 0) -> None:
        """Begin replaying the trace ``delay`` cycles from now."""
        self.engine.schedule(delay, self._run)

    def release(self) -> None:
        """End of life: drop the run context pack, which holds this core's
        fill method (see VaultController.release)."""
        self._run_ctx = None

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (valid once done)."""
        if self.finish_cycle is None or self.finish_cycle == 0:
            return 0.0
        return self.instr / self.finish_cycle

    # ------------------------------------------------------------------
    # Main replay loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        if self.done or self._waiting:
            return
        # The replay loop mirrors its per-record state into locals and writes
        # it back at every exit.  This is safe because nothing fires between
        # records: mem.load/store only schedule events, and the fill callback
        # (the one other writer of pending_misses / _waiting) runs from a
        # future engine event, never synchronously inside this call.
        engine = self.engine
        now = engine.now
        cycle = self.cycle
        if now > cycle:
            cycle = now
        (
            rob_size,
            mlp,
            bumps,
            retire,
            addrs,
            writes,
            mem,
            core_id,
            n,
            fill,
        ) = self._run_ctx
        outstanding = self.outstanding
        idx = self.idx
        instr = self.instr
        advanced = self._advanced
        pending_instr = self._pending_instr
        pending_misses = self.pending_misses
        stalled = False
        while idx < n:
            if not advanced:
                cycle += bumps[idx]
                pending_instr = retire[idx]
                advanced = True

            # ROB constraint: cannot run further than rob_size instructions
            # past an incomplete load.
            rob_limit = pending_instr - rob_size
            while outstanding and outstanding[0][0] <= rob_limit:
                head = outstanding[0]
                done_at = head[1]
                if done_at is None:
                    self.rob_stalls += 1
                    stalled = True
                    break
                if done_at > cycle:
                    cycle = done_at
                outstanding.popleft()
            if stalled:
                break

            # MLP constraint: bounded outstanding misses.
            if pending_misses >= mlp:
                self.mlp_stalls += 1
                stalled = True
                break

            # Synchronize engine time with core time before touching memory.
            if cycle > now:
                self.cycle = cycle
                self.idx = idx
                self.instr = instr
                self._advanced = advanced
                self._pending_instr = pending_instr
                self.pending_misses = pending_misses
                # Engine.call_at inlined (cycle > now by the branch guard).
                engine._seq = seq = engine._seq + 1
                heappush(engine._heap, (cycle, 0, seq, self._run, ()))
                engine._strong += 1
                return

            # Commit the record and issue its memory operation.
            addr = addrs[idx]
            is_write = writes[idx]
            instr = pending_instr
            idx += 1
            advanced = False
            if is_write:
                mem.store(core_id, addr)
            else:
                entry: List[Optional[int]] = [instr, None]
                outstanding.append(entry)
                if fill is not None:
                    known = mem.load(core_id, addr, fill, entry)
                else:
                    known = mem.load(core_id, addr, self._make_fill(entry))
                if known is not None:
                    entry[1] = known
                else:
                    pending_misses += 1
        self.cycle = cycle
        self.idx = idx
        self.instr = instr
        self._advanced = advanced
        self._pending_instr = pending_instr
        self.pending_misses = pending_misses
        if stalled:
            self._waiting = True
            return
        self._try_finish()

    def _fill(self, req: MemoryRequest) -> None:
        """Shared fill callback for ``fill_via_meta`` ports: the ROB entry
        rides on ``req.meta`` instead of in a per-load closure cell."""
        entry = req.meta
        engine = self.engine
        now = engine.now
        entry[1] = now
        self.pending_misses -= 1
        if self._waiting:
            self._waiting = False
            if now > self.cycle:
                self.stall_cycles += now - self.cycle
            # Engine.call_at inlined (time is now; never past).
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (now, 0, seq, self._run, ()))
            engine._strong += 1
        elif self.done is False and self.idx >= self.n:
            self._try_finish()

    def _make_fill(self, entry: List[Optional[int]]) -> Callable[[MemoryRequest], None]:
        def fill(_req: MemoryRequest) -> None:
            engine = self.engine
            now = engine.now
            entry[1] = now
            self.pending_misses -= 1
            if self._waiting:
                self._waiting = False
                if now > self.cycle:
                    self.stall_cycles += now - self.cycle
                engine.call_at(now, self._run)
            elif self.done is False and self.idx >= self.n:
                self._try_finish()

        return fill

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _try_finish(self) -> None:
        if self.done or self.idx < self.n:
            return
        if any(e[1] is None for e in self.outstanding):
            return  # a miss callback will retry
        last = self.cycle
        for e in self.outstanding:
            c = e[1]
            assert c is not None
            if c > last:
                last = c
        self.outstanding.clear()
        self.cycle = last
        self.finish_cycle = last
        self.done = True
        if self.on_done is not None:
            self.on_done(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Core {self.core_id} {self.idx}/{self.n} instr={self.instr} "
            f"cycle={self.cycle} done={self.done}>"
        )
