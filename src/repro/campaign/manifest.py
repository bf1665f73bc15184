"""Resumable campaign manifests: one JSONL record per finished cell.

The manifest is the campaign's durable progress log.  Every completed or
failed cell appends exactly one line, flushed immediately, so a campaign
killed mid-run can be re-invoked with ``resume=True`` and re-execute only
the cells that never finished (or that finished with an error).

File layout::

    {"kind": "header", "version": 1, "cells": 8, "jobs": 4}
    {"cell_id": "...", "workload": "HM1", "scheme": "base", "status": "ok",
     "attempts": 1, "elapsed": 1.93, "summary": {...}}
    {"cell_id": "...", ..., "status": "timeout", "error": "..."}

The header may carry campaign metadata (cell count, worker count) so live
monitors (``repro monitor``) can report progress against a known total;
readers ignore keys they do not understand.

A header with an unknown version invalidates the whole file (it is rewritten
fresh rather than mixing incompatible records); unreadable lines are skipped,
so a record truncated by a crash costs one cell, not the campaign.

Work-stealing records
---------------------
``repro serve`` extends the same file into a multi-writer, lease-based work
queue.  Two additional record kinds interleave with terminal cell records::

    {"kind": "claim", "cell_id": "...", "worker": "s0", "gen": 2,
     "clock": 17, "lease": 41, "spec": {...}}
    {"kind": "tick", "worker": "s0", "clock": 18}

A *claim* announces that one scheduler generation owns a cell until the
logical clock passes ``lease``; *ticks* are scheduler heartbeats that
advance the clock.  The clock is logical — the max ``clock`` stamped on any
claim/tick — so lease expiry is driven by surviving schedulers making
progress, never by wall-clock skew between writers.  A claim whose owner
died (no renewals) expires after ``lease - clock`` ticks of the survivors
and the cell is stolen and re-run; ``spec`` carries enough of the cell to
rebuild it in a process that never saw the original submission.

Terminal records stay the authoritative exactly-once merge: claims and
ticks are invisible to :meth:`Manifest.records`, so every pre-serve reader
(resume, monitors, the HTML report) sees exactly the layout it always did.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.telemetry import JsonlTailer

MANIFEST_VERSION = 1

#: terminal cell states recorded in the manifest
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: non-terminal record kinds (work-stealing queue overlay + tracing)
KIND_HEADER = "header"
KIND_CLAIM = "claim"
KIND_TICK = "tick"
KIND_SPAN = "span"


@dataclass
class CellRecord:
    """Terminal outcome of one cell (one manifest line)."""

    cell_id: str
    workload: str
    scheme: str
    status: str  # "ok" | "error" | "timeout"
    attempts: int
    elapsed: float
    summary: Optional[dict] = None  # _CACHED_FIELDS projection when ok
    error: Optional[str] = None
    cached: bool = False  # satisfied from the ResultCache, not simulated
    #: structured diagnosis from the integrity layer (repro.sim.integrity):
    #: reason, stuck component, violations, crash-dump path.  A diagnosed
    #: error is deterministic - resume skips the cell instead of retrying it.
    diagnosis: Optional[dict] = None
    #: path of the RunReport artifact (repro.obs.report) written for this
    #: cell, when the campaign ran with a report directory.  Cached and
    #: resumed cells carry no report (nothing was simulated).  Optional
    #: field within MANIFEST_VERSION 1: older readers ignore unknown keys.
    report: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class ClaimRecord:
    """A lease on one cell held by one scheduler generation.

    ``gen`` is the worker/scheduler generation id (monotonic across
    re-attaches to the same manifest: a restarted scheduler claims with a
    higher generation, so duplicate claims resolve deterministically —
    higher generation wins, then higher clock, then worker name).  ``clock``
    is the logical timestamp at claim time and ``lease`` the logical expiry;
    ``spec`` is an optional portable cell description so a stealing peer can
    rebuild the cell without the original submission.
    """

    cell_id: str
    worker: str
    gen: int
    clock: int
    lease: int
    spec: Optional[dict] = None
    #: trace id of the submission that created the cell (repro.obs.spans).
    #: Carried in the claim so a *stolen* cell keeps its trace across
    #: processes and restarts; optional and ignored by older readers.
    trace: Optional[str] = None

    def beats(self, other: Optional["ClaimRecord"]) -> bool:
        """Claim-conflict resolution: higher (gen, clock, worker) wins."""
        if other is None:
            return True
        return (self.gen, self.clock, self.worker) > (
            other.gen,
            other.clock,
            other.worker,
        )


@dataclass
class ManifestScan:
    """Full parse of a manifest as a work queue: terminal records, the
    winning claim per cell, and the logical-clock high-water mark."""

    records: Dict[str, CellRecord] = field(default_factory=dict)
    claims: Dict[str, ClaimRecord] = field(default_factory=dict)
    clock: int = 0
    max_gen: int = 0

    def expired(self, cell_id: str) -> bool:
        """True when the cell is claimed, unfinished, and past its lease."""
        claim = self.claims.get(cell_id)
        if claim is None or cell_id in self.records:
            return False
        return claim.lease < self.clock


def _fold_line(scan: ManifestScan, line: bytes, index: int) -> bool:
    """Fold manifest line number ``index`` into ``scan``.

    Returns False when the line voids the whole file: a header of another
    version, or a first line that is a record rather than a header (the
    file predates the manifest format).  Torn and foreign lines are
    skipped; claims, ticks and unknown overlay kinds never reach
    ``scan.records``.
    """
    line = line.strip()
    if not line:
        return True
    try:
        raw = json.loads(line)
    except ValueError:
        return True  # torn write (crash mid-append): costs one record
    if not isinstance(raw, dict):
        return True
    kind = raw.get("kind")
    if kind == KIND_HEADER:
        return raw.get("version") == MANIFEST_VERSION
    if index == 0:
        return False
    if kind == KIND_TICK:
        try:
            scan.clock = max(scan.clock, int(raw["clock"]))
        except (KeyError, TypeError, ValueError):
            pass
        try:
            if "gen" in raw:
                scan.max_gen = max(scan.max_gen, int(raw["gen"]))
        except (TypeError, ValueError):
            pass
        return True
    if kind == KIND_CLAIM:
        trace = raw.get("trace")
        try:
            claim = ClaimRecord(
                cell_id=raw["cell_id"],
                worker=str(raw.get("worker", "?")),
                gen=int(raw["gen"]),
                clock=int(raw["clock"]),
                lease=int(raw["lease"]),
                spec=raw.get("spec"),
                trace=trace if isinstance(trace, str) else None,
            )
        except (KeyError, TypeError, ValueError):
            return True
        scan.clock = max(scan.clock, claim.clock)
        scan.max_gen = max(scan.max_gen, claim.gen)
        if claim.beats(scan.claims.get(claim.cell_id)):
            scan.claims[claim.cell_id] = claim
        return True
    if kind is not None:
        return True  # span or unknown overlay kind from a newer writer
    try:
        rec = CellRecord(
            cell_id=raw["cell_id"],
            workload=raw["workload"],
            scheme=raw["scheme"],
            status=raw["status"],
            attempts=int(raw.get("attempts", 1)),
            elapsed=float(raw.get("elapsed", 0.0)),
            summary=raw.get("summary"),
            error=raw.get("error"),
            cached=bool(raw.get("cached", False)),
            diagnosis=raw.get("diagnosis"),
            report=raw.get("report"),
        )
    except (KeyError, TypeError, ValueError):
        return True
    scan.records[rec.cell_id] = rec  # last record per cell wins
    return True


class Manifest:
    """Append-only JSONL progress log keyed by cell id.

    Reads are incremental: one :class:`Manifest` keeps the scan it folded
    so far and each :meth:`scan` parses only the complete lines appended
    since the previous one (through a
    :class:`~repro.obs.telemetry.JsonlTailer`).  A rotated, shrunk or
    rewritten file, a :meth:`reset`, or a missing file drops the folded
    state, so the result equals a fresh parse of the whole file.  The one
    rewrite the tailer cannot see is another process's that keeps the
    file's first 64 bytes and regrows past our read offset between two
    scans; a fresh-start reset of a manifest live peers are reading breaks
    the fleet's queue anyway, which is why ``repro serve`` peers attach
    with ``--resume``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._forget()

    def _forget(self) -> None:
        self._tailer = JsonlTailer(self.path)
        self._resets = self._tailer.resets
        self._folded = ManifestScan()
        self._lines = 0  # complete lines folded, blank and torn ones too
        self._void = False  # foreign-version header or headerless file

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> Dict[str, CellRecord]:
        """Terminal records by cell id; last record per cell wins.

        Returns ``{}`` for a missing file, a version-incompatible file, or a
        file with no parseable records.
        """
        return self.scan().records

    def scan(self) -> ManifestScan:
        """Parse the manifest as a work queue: terminal records, winning
        claims, and the logical-clock high-water mark.

        Torn lines (a crash mid-append, including a torn *claim* as the
        very last record) are skipped; a duplicate claim for one cell
        resolves by :meth:`ClaimRecord.beats` (higher generation wins).
        Returns an empty scan for a missing or version-incompatible file.
        The result is a snapshot the caller owns: later scans never
        mutate it.
        """
        with self._lock:
            lines = self._tailer.poll_lines()
            if self._tailer.resets != self._resets:
                self._resets = self._tailer.resets
                self._folded, self._lines, self._void = ManifestScan(), 0, False
            for line in lines:
                if not self._void:
                    self._void = not _fold_line(self._folded, line, self._lines)
                self._lines += 1
            if self._void:
                return ManifestScan()
            folded = self._folded
            out = ManifestScan(
                dict(folded.records), dict(folded.claims), folded.clock, folded.max_gen
            )
            # a complete record that only lacks its newline still counts,
            # as it does in a whole-file parse; the tail is folded into the
            # snapshot alone because its bytes may still grow
            tail = self._tailer.pending
            if tail.strip() and not _fold_line(out, tail, self._lines):
                return ManifestScan()
            return out

    def header(self) -> Optional[dict]:
        """The parsed header line, or None for a missing/invalid manifest."""
        try:
            with open(self.path) as fh:
                first = fh.readline()
        except OSError:
            return None
        try:
            raw = json.loads(first)
        except json.JSONDecodeError:
            return None
        if not isinstance(raw, dict) or raw.get("kind") != "header":
            return None
        if raw.get("version") != MANIFEST_VERSION:
            return None
        return raw

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def reset(self, meta: Optional[dict] = None) -> None:
        """Start a fresh manifest (header only), discarding old records.

        ``meta`` keys (e.g. ``cells``, ``jobs``) are merged into the header
        for consumers that want campaign totals without scanning records.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {"kind": "header", "version": MANIFEST_VERSION}
        if meta:
            header.update({k: v for k, v in meta.items() if k not in header})
        with self._lock:
            with open(self.path, "w") as fh:
                fh.write(json.dumps(header) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._forget()

    def append(self, record: CellRecord) -> None:
        """Durably append one terminal cell record."""
        payload = {k: v for k, v in asdict(record).items() if v is not None}
        self._append_line(payload, durable=True)

    def append_claim(self, claim: ClaimRecord) -> None:
        """Durably append one work-queue claim (or lease renewal)."""
        payload: dict = {
            "kind": KIND_CLAIM,
            "cell_id": claim.cell_id,
            "worker": claim.worker,
            "gen": claim.gen,
            "clock": claim.clock,
            "lease": claim.lease,
        }
        if claim.spec is not None:
            payload["spec"] = claim.spec
        if claim.trace is not None:
            payload["trace"] = claim.trace
        self._append_line(payload, durable=True)

    def append_span(self, payload: dict) -> None:
        """Append one tracing span record (:mod:`repro.obs.spans`).

        Spans are observability, not state: flushed but never fsynced (a
        crash loses at most the in-flight span), invisible to
        :meth:`records`/:meth:`scan` merging, and safe to interleave from
        many writers like every other overlay record.
        """
        if payload.get("kind") != KIND_SPAN:
            payload = {**payload, "kind": KIND_SPAN}
        self._append_line(payload, durable=False)

    def append_tick(
        self, worker: str, clock: int, gen: Optional[int] = None
    ) -> None:
        """Append one scheduler heartbeat advancing the logical clock.

        Ticks are frequent and individually disposable (the clock is a max
        over all of them), so they are flushed but not fsynced.  A tick may
        carry the writer's generation (the attach-time announcement): that
        publishes the generation even before the scheduler's first claim,
        so a later attach cannot hand the same generation out again.
        """
        payload: dict = {"kind": KIND_TICK, "worker": worker, "clock": clock}
        if gen is not None:
            payload["gen"] = gen
        self._append_line(payload, durable=gen is not None)

    def _append_line(self, payload: dict, durable: bool) -> None:
        """One-line O_APPEND write shared by every record kind.

        Multi-writer safe for the short lines the queue overlay emits:
        append-mode writes of a single buffered line land atomically on
        local filesystems, and readers tolerate torn lines regardless.
        A torn *trailing* line (a peer crashed mid-append) is healed with a
        newline first, so the tear stays confined to the crashed writer's
        record instead of corrupting ours too.  Raises ``OSError`` (e.g.
        ENOSPC) to the caller — the serve layer retries terminal records
        until they land.
        """
        if not self.path.exists():
            self.reset()
        with open(self.path, "a+b") as fh:
            prefix = b""
            try:
                end = fh.tell()
                if end > 0 and os.pread(fh.fileno(), 1, end - 1) != b"\n":
                    prefix = b"\n"
            except OSError:
                pass
            fh.write(prefix + json.dumps(payload).encode() + b"\n")
            fh.flush()
            if durable:
                os.fsync(fh.fileno())
