"""Unit tests for the parallel campaign subsystem (repro.campaign).

The executor tests drive run_campaign with fault-injecting fake cell
runners (module-level so worker processes can resolve them); the
determinism tests use the real simulator at tiny scale and compare the
serial and sharded paths byte-for-byte via matrix_digest.
"""

import json
import os
import time

import pytest

from repro.campaign import (
    CampaignError,
    CampaignOptions,
    Cell,
    Manifest,
    grid_cells,
    matrix_digest,
    run_campaign,
    summarize,
)
from repro.campaign.manifest import MANIFEST_VERSION
from repro.experiments.runner import (
    _CACHED_FIELDS,
    ExperimentConfig,
    ResultCache,
    run_matrix,
)
from repro.hmc.config import HMCConfig
from repro.system import SimulationResult

TINY = ExperimentConfig(refs_per_core=150, seed=1)


# ----------------------------------------------------------------------
# Fault-injecting fake runners (module-level: picklable for workers)
# ----------------------------------------------------------------------


def _summary(cell, cycles=1000):
    return {
        "scheme": cell.scheme,
        "workload": cell.workload,
        "cycles": cycles,
        "core_ipc": [1.0, 0.5],
        "core_instructions": [100, 100],
        "conflict_rate": 0.1,
        "row_conflicts": 5,
        "demand_accesses": 50,
        "buffer_hits": 10,
        "prefetches_issued": 20,
        "row_accuracy": 0.5,
        "line_accuracy": 0.25,
        "mean_memory_latency": 100.0,
        "mean_read_latency": 90.0,
        "energy_pj": 1e6,
        "energy_breakdown": {"activate": 1.0},
        "link_utilization": 0.2,
    }


def ok_runner(cell, attempt):
    return _summary(cell)


def flaky_runner(cell, attempt):
    if attempt == 1:
        raise RuntimeError("transient glitch")
    return _summary(cell)


def always_fail_runner(cell, attempt):
    raise RuntimeError("boom")


def fail_hm1_runner(cell, attempt):
    if cell.workload == "HM1":
        raise RuntimeError("hm1 breaks")
    return _summary(cell)


def hang_hm1_runner(cell, attempt):
    if cell.workload == "HM1":
        time.sleep(60)
    return _summary(cell)


def crash_hm1_runner(cell, attempt):
    if cell.workload == "HM1":
        os._exit(13)
    return _summary(cell)


def crash_once_runner(cell, attempt):
    if attempt == 1:
        os._exit(17)  # kill the worker process abruptly, mid-cell
    return _summary(cell)


def sleepy_runner(cell, attempt):
    time.sleep(2.0)
    return _summary(cell)


def fake_result(cell):
    return SimulationResult(extra={}, **_summary(cell))


# ----------------------------------------------------------------------
# Cell spec
# ----------------------------------------------------------------------


class TestCell:
    def test_cell_id_deterministic_and_prefixed(self):
        c = Cell("HM1", "base", TINY)
        assert c.cell_id == Cell("HM1", "base", TINY).cell_id
        assert c.cell_id.startswith(TINY.cache_key("HM1", "base"))

    def test_cell_id_covers_fields_outside_cache_key(self):
        # `links` is not part of ExperimentConfig.cache_key; the cell id
        # must still distinguish configs that differ only there.
        cfg_a = ExperimentConfig(refs_per_core=150, seed=1, hmc=HMCConfig(links=4))
        cfg_b = ExperimentConfig(refs_per_core=150, seed=1, hmc=HMCConfig(links=2))
        assert cfg_a.cache_key("HM1", "base") == cfg_b.cache_key("HM1", "base")
        assert Cell("HM1", "base", cfg_a).cell_id != Cell("HM1", "base", cfg_b).cell_id

    def test_cell_id_covers_scheme_kwargs_and_trace_config(self):
        plain = Cell("HM1", "camps-mod", TINY)
        kw = Cell("HM1", "camps-mod", TINY, scheme_kwargs={"params": None})
        tc = Cell("HM1", "camps-mod", TINY, trace_config=HMCConfig(vaults=16))
        assert len({plain.cell_id, kw.cell_id, tc.cell_id}) == 3
        assert plain.cacheable
        assert not kw.cacheable and not tc.cacheable

    def test_grid_cells_workload_major_order(self):
        cells = grid_cells(["HM1", "LM1"], ["base", "mmd"], TINY)
        assert [(c.workload, c.scheme) for c in cells] == [
            ("HM1", "base"), ("HM1", "mmd"), ("LM1", "base"), ("LM1", "mmd"),
        ]


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


class TestManifest:
    def test_round_trip(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        res = run_campaign(cells, manifest=man, runner=ok_runner)
        recs = man.records()
        assert set(recs) == {c.cell_id for c in cells}
        assert all(r.ok and r.summary["cycles"] == 1000 for r in recs.values())
        assert res.stats["executed"] == 2

    def test_exactly_one_record_per_cell(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1", "LM1"], ["base", "mmd"], TINY)
        run_campaign(cells, CampaignOptions(jobs=2), manifest=man, runner=ok_runner)
        lines = [json.loads(l) for l in man.path.read_text().splitlines()]
        assert lines[0] == {"kind": "header", "version": MANIFEST_VERSION,
                            "cells": 4, "jobs": 2}
        ids = [l["cell_id"] for l in lines[1:]]
        assert sorted(ids) == sorted(c.cell_id for c in cells)

    def test_fresh_campaign_resets_stale_manifest(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1"], ["base"], TINY)
        run_campaign(cells, manifest=man, runner=ok_runner)
        run_campaign(cells, manifest=man, runner=ok_runner)  # no resume
        ids = [
            json.loads(l)["cell_id"]
            for l in man.path.read_text().splitlines()
            if json.loads(l).get("kind") != "header"
        ]
        assert len(ids) == 1  # rewritten, not appended twice

    def test_torn_line_skipped(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        run_campaign(grid_cells(["HM1", "LM1"], ["base"], TINY),
                     manifest=man, runner=ok_runner)
        with open(man.path, "a") as fh:
            fh.write('{"cell_id": "truncated...')  # crash mid-append
        assert len(man.records()) == 2

    def test_version_mismatch_invalidates(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n'
                        '{"cell_id": "x", "workload": "HM1", "scheme": "base",'
                        ' "status": "ok", "attempts": 1, "elapsed": 1.0}\n')
        assert Manifest(path).records() == {}

    def test_headerless_file_invalidates(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"cell_id": "x", "workload": "HM1", "scheme": "base",'
                        ' "status": "ok", "attempts": 1, "elapsed": 1.0}\n')
        assert Manifest(path).records() == {}


# ----------------------------------------------------------------------
# Executor: failure isolation, retry, timeout, resume
# ----------------------------------------------------------------------


class TestExecutor:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_recovers_transient_failure(self, jobs):
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=jobs, retries=1, backoff=0.01),
            runner=flaky_runner,
        )
        assert res.stats["failed"] == 0
        assert res.stats["retried"] == 2
        assert all(r.attempts == 2 for r in res.records.values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_retries_record_error(self, jobs):
        cells = grid_cells(["HM1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=jobs, retries=1, backoff=0.01),
            runner=always_fail_runner,
        )
        rec = res.records[cells[0].cell_id]
        assert rec.status == "error" and rec.attempts == 2
        # in-process and pooled attempts record the same stripped traceback
        assert rec.error.startswith("Traceback (most recent call last):")
        assert rec.error.splitlines()[-1] == "RuntimeError: boom"
        with pytest.raises(CampaignError):
            res.raise_on_failure()

    def test_one_bad_cell_does_not_kill_campaign(self):
        cells = grid_cells(["HM1", "LM1", "MX1"], ["base"], TINY)
        res = run_campaign(cells, CampaignOptions(jobs=2), runner=fail_hm1_runner)
        assert res.stats["ok"] == 2 and res.stats["failed"] == 1
        assert [r.workload for r in res.failures] == ["HM1"]

    def test_timeout_recorded_and_others_finish(self):
        cells = grid_cells(["HM1", "LM1", "MX1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=2, timeout=0.5),
            runner=hang_hm1_runner,
        )
        rec = res.records[cells[0].cell_id]
        assert rec.status == "timeout"
        assert "exceeded" in rec.error
        assert res.stats["ok"] == 2

    def test_timeout_enforced_at_one_job(self):
        cells = grid_cells(["HM1"], ["base"], TINY)
        t0 = time.perf_counter()
        res = run_campaign(
            cells, CampaignOptions(jobs=1, timeout=0.3), runner=sleepy_runner
        )
        rec = res.records[cells[0].cell_id]
        assert rec.status == "timeout" and rec.elapsed == 0.3
        assert time.perf_counter() - t0 < 1.9  # killed, not slept out

    def test_worker_crash_consumes_a_retry(self):
        cells = grid_cells(["HM1"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=2, retries=1, backoff=0.01),
            runner=crash_once_runner,
        )
        rec = res.records[cells[0].cell_id]
        assert rec.ok and rec.attempts == 2
        assert res.stats["retried"] == 1

    def test_worker_crash_isolated(self):
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        res = run_campaign(cells, CampaignOptions(jobs=2), runner=crash_hm1_runner)
        hm1, lm1 = cells
        assert res.records[hm1.cell_id].status == "error"
        assert "died" in res.records[hm1.cell_id].error
        assert res.records[lm1.cell_id].ok

    def test_resume_reexecutes_only_unfinished_cells(self, tmp_path):
        man = Manifest(tmp_path / "m.jsonl")
        cells = grid_cells(["HM1", "LM1", "MX1"], ["base"], TINY)
        first = run_campaign(cells, CampaignOptions(jobs=2), manifest=man,
                             runner=fail_hm1_runner)
        assert first.stats["failed"] == 1
        second = run_campaign(cells, CampaignOptions(jobs=2, resume=True),
                              manifest=man, runner=ok_runner)
        assert second.stats == {
            "total": 3, "ok": 3, "failed": 0, "executed": 1,
            "cached": 0, "resumed": 2, "retried": 0,
        }
        # the manifest now records the re-run cell as ok (last record wins)
        assert all(r.ok for r in man.records().values())

    def test_duplicate_cells_deduplicated(self):
        cells = grid_cells(["HM1"], ["base"], TINY) * 3
        res = run_campaign(cells, runner=ok_runner)
        assert res.stats["total"] == 1 and len(res.cells) == 1

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "c.json")
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        cache.put(TINY.cache_key("HM1", "base"), fake_result(cells[0]))
        res = run_campaign(cells, cache=cache, runner=ok_runner)
        assert res.stats["cached"] == 1 and res.stats["executed"] == 1
        # executed results were written back (and flushed) to the cache
        fresh = ResultCache(tmp_path / "c.json")
        assert fresh.get(TINY.cache_key("LM1", "base")) is not None

    def test_matrix_ordered_by_cell_id(self):
        cells = grid_cells(["MX1", "HM1"], ["mmd", "base"], TINY)
        res = run_campaign(cells, CampaignOptions(jobs=2), runner=ok_runner)
        matrix = res.matrix()
        ordered = sorted(c.cell_id for c in cells)
        got = [
            Cell(r.workload, r.scheme, TINY).cell_id
            for r in matrix.results.values()
        ]
        assert got == ordered

    def test_progress_counters_snapshot(self):
        cells = grid_cells(["HM1", "LM1"], ["base"], TINY)
        res = run_campaign(cells, CampaignOptions(retries=1, backoff=0.01),
                           runner=flaky_runner)
        # stats mirror what a CounterRegistry snapshot exposes
        assert res.stats["ok"] == 2 and res.stats["retried"] == 2

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            CampaignOptions(jobs=0)
        with pytest.raises(ValueError):
            CampaignOptions(retries=-1)
        with pytest.raises(ValueError):
            CampaignOptions(timeout=0)

    # the dead pump thread's own traceback is expected here
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_pool_that_cannot_start_a_worker_raises(self):
        # spawn must pickle the runner; the pool pump fails on the lambda,
        # and the campaign surfaces that instead of waiting forever
        cells = grid_cells(["HM1"], ["base"], TINY)
        with pytest.raises(Exception, match="pickle"):
            run_campaign(
                cells,
                CampaignOptions(jobs=2, start_method="spawn"),
                runner=lambda cell, attempt: _summary(cell),
            )


# ----------------------------------------------------------------------
# Determinism: sharded execution must match the serial loop exactly
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_parallel_matrix_identical_to_serial(self, tmp_path):
        serial = run_matrix(["LM4"], ["base", "camps-mod"], TINY,
                            cache=ResultCache(tmp_path / "a.json"))
        parallel = run_matrix(["LM4"], ["base", "camps-mod"], TINY,
                              cache=ResultCache(tmp_path / "b.json"), jobs=4)
        assert matrix_digest(serial) == matrix_digest(parallel)
        assert serial.workloads() == parallel.workloads()
        assert serial.schemes() == parallel.schemes()

    def test_spawn_start_method_supported(self, tmp_path):
        # Workers must be spawn-safe (fresh interpreter, pickled tasks).
        cells = grid_cells(["LM4"], ["base"], TINY)
        res = run_campaign(
            cells,
            CampaignOptions(jobs=2, start_method="spawn"),
            cache=ResultCache(tmp_path / "c.json"),
        )
        res.raise_on_failure()
        assert summarize(res.result_for(cells[0].cell_id))["cycles"] > 0

    def test_run_seeded_jobs_matches_serial(self, tmp_path):
        from repro.experiments.seeds import run_seeded

        kwargs = dict(
            workloads=["LM4"], schemes=["base", "camps-mod"],
            base_config=TINY, seeds=(1, 2),
        )
        serial = run_seeded(cache=ResultCache(tmp_path / "a.json"), **kwargs)
        sharded = run_seeded(cache=ResultCache(tmp_path / "b.json"), jobs=2,
                             **kwargs)
        assert serial.per_workload == sharded.per_workload

    def test_sweep_jobs_matches_serial(self):
        from repro.experiments.sweep import Sweep

        kwargs = dict(refs_per_core=150, seed=1)
        serial = Sweep("pf_buffer_entries", [4, 8]).run("LM4", **kwargs)
        sharded = Sweep("pf_buffer_entries", [4, 8]).run("LM4", jobs=2, **kwargs)
        for a, b in zip(serial.points, sharded.points):
            assert a.result.cycles == b.result.cycles
            assert a.speedup_vs_base == pytest.approx(b.speedup_vs_base)


# ----------------------------------------------------------------------
# ResultCache: atomicity, batching, schema versioning
# ----------------------------------------------------------------------


class TestResultCache:
    def test_put_batches_until_flush(self, tmp_path):
        path = tmp_path / "c.json"
        cache = ResultCache(path)
        cache.put("k", fake_result(Cell("HM1", "base", TINY)))
        assert not path.exists()  # nothing persisted yet
        assert cache.get("k") is not None  # but visible in memory
        cache.flush()
        assert path.exists()
        assert ResultCache(path).get("k") is not None

    def test_concurrent_writers_merge_not_clobber(self, tmp_path):
        path = tmp_path / "c.json"
        a, b = ResultCache(path), ResultCache(path)
        a.put("ka", fake_result(Cell("HM1", "base", TINY)))
        b.put("kb", fake_result(Cell("LM1", "base", TINY)))
        a.flush()
        b.flush()  # must re-read and keep a's entry
        fresh = ResultCache(path)
        assert fresh.get("ka") is not None and fresh.get("kb") is not None

    def test_flush_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "c.json"
        cache = ResultCache(path)
        cache.put("k", fake_result(Cell("HM1", "base", TINY)))
        cache.flush()
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_legacy_flat_format_invalidated(self, tmp_path):
        # Pre-schema caches were a flat {key: fields} dict; they must be
        # treated as empty rather than raising KeyError on lookup.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"k": {"scheme": "base", "cycles": 1}}))
        cache = ResultCache(path)
        assert cache.get("k") is None

    def test_stale_field_list_invalidated(self, tmp_path):
        path = tmp_path / "c.json"
        payload = {
            "schema": 2,
            "fields": _CACHED_FIELDS[:-1],  # written before a field was added
            "entries": {"k": {f: 0 for f in _CACHED_FIELDS[:-1]}},
        }
        path.write_text(json.dumps(payload))
        assert ResultCache(path).get("k") is None

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        cache = ResultCache(path)
        assert cache.get("k") is None
        cache.put("k", fake_result(Cell("HM1", "base", TINY)))
        cache.flush()
        assert ResultCache(path).get("k") is not None

    def test_malformed_entry_is_a_miss(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema": 2, "fields": _CACHED_FIELDS,
            "entries": {"k": {"cycles": 1}},  # entry itself is torn
        }))
        assert ResultCache(path).get("k") is None

    def test_disabled_cache_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE", "off")
        cache = ResultCache()
        cache.put("k", fake_result(Cell("HM1", "base", TINY)))
        cache.flush()
        assert cache.get("k") is None
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCampaignCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign"])
        assert args.jobs >= 1 and args.retries == 0
        assert args.manifest == ".repro_campaign.jsonl"
        assert not args.resume

    def test_unknown_scheme_rejected(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", "off")
        with pytest.raises(SystemExit):
            main(["campaign", "--schemes", "magic"])

    def test_campaign_command_end_to_end(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache.json"))
        manifest = tmp_path / "m.jsonl"
        argv = [
            "campaign", "--mixes", "LM4", "--schemes", "base,camps-mod",
            "--refs", "150", "--jobs", "2", "--manifest", str(manifest),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2/2 ok" in out and "geomean IPC" in out
        # resume over a finished manifest simulates nothing
        assert main(argv + ["--resume", "--quiet"]) == 0
        assert "0 simulated" in capsys.readouterr().out


class TestProgressEta:
    """ETA estimation: executed cells only, effective-parallelism divisor."""

    class _Rec:
        def __init__(self, elapsed=2.0, ok=True, cached=False):
            self.ok = ok
            self.status = "ok" if ok else "error"
            self.elapsed = elapsed
            self.cached = cached
            self.workload = "HM1"
            self.scheme = "base"

    def _progress(self, total, jobs):
        from repro.campaign.progress import CampaignProgress

        return CampaignProgress(total=total, jobs=jobs)

    def test_no_estimate_until_one_cell_executed(self):
        p = self._progress(total=4, jobs=2)
        assert p.eta_seconds() is None
        p.cell_done(self._Rec(elapsed=0.0, cached=True), source="cached")
        assert p.eta_seconds() is None  # cache hits carry no signal

    def test_mean_over_executed_cells(self):
        p = self._progress(total=10, jobs=1)
        p.cell_done(self._Rec(elapsed=2.0))
        p.cell_done(self._Rec(elapsed=4.0))
        assert p.eta_seconds() == pytest.approx(8 * 3.0)

    def test_cached_cells_excluded_from_rate(self):
        # 50 instant cache hits must not drag an honest 2 s/cell mean down
        p = self._progress(total=100, jobs=1)
        for _ in range(50):
            p.cell_done(self._Rec(elapsed=0.0, cached=True), source="cached")
        p.cell_done(self._Rec(elapsed=2.0))
        p.cell_done(self._Rec(elapsed=2.0))
        assert p.eta_seconds() == pytest.approx((100 - 52) * 2.0)

    def test_cached_flag_honoured_regardless_of_source(self):
        # a mislabelled source must not leak a 0 s sample into the mean
        p = self._progress(total=4, jobs=1)
        p.cell_done(self._Rec(elapsed=0.0, cached=True), source="executed")
        assert p.cached == 1 and p.eta_seconds() is None
        p.cell_done(self._Rec(elapsed=3.0))
        assert p.eta_seconds() == pytest.approx(2 * 3.0)

    def test_resumed_cells_excluded_from_rate(self):
        p = self._progress(total=4, jobs=1)
        p.cell_done(self._Rec(elapsed=0.0), source="resumed")
        assert p.resumed == 1 and p.eta_seconds() is None

    def test_effective_parallelism_caps_divisor(self):
        # 8 workers with 3 cells left run at most 3 of them: dividing by 8
        # would promise a 3x-too-fast tail
        p = self._progress(total=4, jobs=8)
        p.cell_done(self._Rec(elapsed=6.0))
        assert p.eta_seconds() == pytest.approx(3 * 6.0 / 3)

    def test_full_pool_divides_by_jobs(self):
        p = self._progress(total=100, jobs=4)
        p.cell_done(self._Rec(elapsed=4.0))
        assert p.eta_seconds() == pytest.approx(99 * 4.0 / 4)

    def test_eta_zero_when_finished(self):
        p = self._progress(total=1, jobs=2)
        p.cell_done(self._Rec(elapsed=5.0))
        assert p.eta_seconds() == 0.0

    def test_status_is_json_ready(self):
        p = self._progress(total=2, jobs=2)
        p.cell_done(self._Rec(elapsed=1.0))
        st = p.status()
        assert st["total"] == 2 and st["done"] == 1 and st["executed"] == 1
        assert st["eta_seconds"] == pytest.approx(1.0)
        assert st["wall_seconds"] >= 0
        json.dumps(st)  # must serialize as-is for the driver spool
