"""Incremental manifest scans equal a fresh whole-file parse.

A long-lived :class:`Manifest` folds only the lines appended since its last
:meth:`~Manifest.scan`.  These tests drive it through random append
sequences (claims, ticks, spans, terminal records, torn and unterminated
tails, foreign-version headers, resets and whole-file replacements) and
require, after every step, the same scan as a fresh ``Manifest(path)`` and
as an independent whole-file oracle kept here in the test.
"""

import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.campaign.manifest as manifest_mod
from repro.campaign.manifest import (
    MANIFEST_VERSION,
    CellRecord,
    ClaimRecord,
    Manifest,
    ManifestScan,
)


def _oracle_scan(path: Path) -> ManifestScan:
    """Test oracle: the whole-file parse, written independently of
    :func:`repro.campaign.manifest._fold_line`."""
    out = ManifestScan()
    if not path.exists():
        return out
    for i, line in enumerate(path.read_text().splitlines()):
        try:
            raw = json.loads(line)
        except ValueError:
            continue
        if not isinstance(raw, dict):
            continue
        kind = raw.get("kind")
        if kind == "header":
            if raw.get("version") != MANIFEST_VERSION:
                return ManifestScan()
            continue
        if i == 0:
            return ManifestScan()
        if kind == "tick":
            out.clock = max(out.clock, int(raw["clock"]))
            out.max_gen = max(out.max_gen, int(raw.get("gen", 0)))
        elif kind == "claim":
            claim = ClaimRecord(
                raw["cell_id"], raw["worker"], raw["gen"], raw["clock"],
                raw["lease"], raw.get("spec"), raw.get("trace"),
            )
            out.clock = max(out.clock, claim.clock)
            out.max_gen = max(out.max_gen, claim.gen)
            if claim.beats(out.claims.get(claim.cell_id)):
                out.claims[claim.cell_id] = claim
        elif kind is None:
            out.records[raw["cell_id"]] = CellRecord(
                raw["cell_id"], raw["workload"], raw["scheme"], raw["status"],
                raw["attempts"], raw["elapsed"], raw.get("summary"),
                raw.get("error"),
            )
    return out


def _as_tuple(scan: ManifestScan):
    """A scan with its dict orders made visible to ``==``."""
    return (
        list(scan.records.items()),
        list(scan.claims.items()),
        scan.clock,
        scan.max_gen,
    )


def _record(cell_id: str, status: str = "ok") -> CellRecord:
    return CellRecord(
        cell_id=cell_id,
        workload="HM1",
        scheme="base",
        status=status,
        attempts=1,
        elapsed=0.25,
        summary={"cycles": len(cell_id)} if status == "ok" else None,
        error=None if status == "ok" else "boom",
    )


def _line(payload: dict) -> str:
    return json.dumps(payload) + "\n"


cells = st.sampled_from(["c1", "c2", "c3"])
workers = st.sampled_from(["a", "b"])
small = st.integers(min_value=0, max_value=12)

steps = st.one_of(
    st.tuples(st.just("claim"), cells, workers, small, small, small,
              st.booleans()),
    st.tuples(st.just("tick"), workers, small, st.one_of(st.none(), small)),
    st.tuples(st.just("span"), cells),
    st.tuples(st.just("record"), cells, st.sampled_from(["ok", "error"])),
    # a crash mid-append: a prefix of a record line, possibly all of it
    # but the newline (which a whole-file parse still counts)
    st.tuples(st.just("torn"), cells, st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("newline")),
    st.tuples(st.just("header"), st.sampled_from([MANIFEST_VERSION, 99])),
    st.tuples(st.just("reset")),
    st.tuples(st.just("replace"),
              st.sampled_from(["header", "foreign", "headerless", "empty"])),
)


def _apply(m: Manifest, path: Path, step: tuple) -> None:
    op = step[0]
    if op == "claim":
        _, cell, worker, gen, clock, lease, spec = step
        m.append_claim(ClaimRecord(
            cell, worker, gen, clock, lease,
            {"workload": "HM1", "cell": cell} if spec else None,
            "ab" * 16 if spec else None,
        ))
    elif op == "tick":
        _, worker, clock, gen = step
        m.append_tick(worker, clock, gen=gen)
    elif op == "span":
        m.append_span({"name": "merge", "cell_id": step[1], "dur": 0.001})
    elif op == "record":
        m.append(_record(step[1], step[2]))
    elif op == "torn":
        full = _line({"cell_id": step[1], "workload": "HM1", "scheme": "base",
                      "status": "ok", "attempts": 2, "elapsed": 0.5})
        cut = int(round(step[2] * (len(full) - 1)))
        with open(path, "a") as fh:
            fh.write(full[:cut])
    elif op == "newline":
        with open(path, "a") as fh:
            fh.write("\n")
    elif op == "header":
        with open(path, "a") as fh:
            fh.write(_line({"kind": "header", "version": step[1]}))
    elif op == "reset":
        m.reset(meta={"jobs": 2})
    elif op == "replace":
        body = {
            "header": _line({"kind": "header", "version": MANIFEST_VERSION,
                             "serve": True}),
            "foreign": _line({"kind": "header", "version": 99}),
            "headerless": _line(_record("c1").__dict__),
            "empty": "",
        }[step[1]]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(body)
        os.replace(tmp, path)  # another writer swaps in a new file


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(steps, min_size=1, max_size=25))
def test_incremental_scan_equals_fresh_parse(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.jsonl"
        live = Manifest(path)
        live.reset()
        assert live.scan() == ManifestScan()
        for step in ops:
            _apply(live, path, step)
            got = live.scan()
            fresh = Manifest(path).scan()
            assert _as_tuple(got) == _as_tuple(fresh), step
            assert _as_tuple(got) == _as_tuple(_oracle_scan(path)), step
            assert live.records() == fresh.records


def test_second_scan_parses_only_the_appended_line(tmp_path, monkeypatch):
    m = Manifest(tmp_path / "m.jsonl")
    m.reset()
    for cid in ("c1", "c2", "c3"):
        m.append_claim(ClaimRecord(cid, "w", 1, 1, 25))
        m.append(_record(cid))
    assert len(m.scan().records) == 3

    folded = []
    real = manifest_mod._fold_line

    def spy(scan, line, index):
        folded.append(line)
        return real(scan, line, index)

    monkeypatch.setattr(manifest_mod, "_fold_line", spy)
    m.append_tick("w", 7)
    scan = m.scan()
    assert folded == [json.dumps({"kind": "tick", "worker": "w", "clock": 7}).encode()]
    assert scan.clock == 7 and len(scan.records) == 3
    folded.clear()
    assert m.scan() == scan  # nothing appended: nothing parsed
    assert folded == []


def test_scan_returns_snapshots_the_caller_owns(tmp_path):
    m = Manifest(tmp_path / "m.jsonl")
    m.reset()
    m.append(_record("c1"))
    first = m.scan()
    first.records.clear()
    m.append_tick("w", 3)
    second = m.scan()
    assert set(second.records) == {"c1"} and first.clock == 0
    assert second.clock == 3


def test_appends_open_the_file_once(tmp_path, monkeypatch):
    """Torn-tail healing reads the last byte through the append fd."""
    m = Manifest(tmp_path / "m.jsonl")
    m.reset()
    with open(m.path, "a") as fh:
        fh.write('{"cell_id": "torn')
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    m.append(_record("c1"))
    assert opened == [m.path]
    monkeypatch.undo()
    lines = m.path.read_text().splitlines()
    assert lines[1] == '{"cell_id": "torn'  # healed, not merged into ours
    assert set(m.scan().records) == {"c1"}
