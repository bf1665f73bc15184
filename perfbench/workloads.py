"""The four benchmark workloads and the rungs they are measured on.

A workload's main operation runs on one rung of the stack and gives the
end-to-end metrics:

* sim      - ``System.run`` in this process (``hm3-campsmod``, ``lm1-none``)
* campaign - ``run_campaign(jobs=2)`` over a fresh manifest (``grid-pool2``)
* serve    - a ``repro serve`` subprocess driven by ``ServeClient``
  (``serve-closed2``)

A traced run also measures the other two rungs on the workload's sample
cells (the simulation workloads' one cell, or a fixed 12-cell slice of the
grid), so every per-layer metric is measured on every workload.  Every run
checks results against an in-process ``execute_cell`` of the sample cells.

Everything is collected with raw ``perf_counter`` stamps while a
:class:`~speed.Speedometer` samples the machine's speed; host times are
scaled to the reference speed afterwards (``at_reference``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter as clock
from typing import Callable, Dict, List, Optional

from layers import LayerTimer, simulator_entry_points
from speed import Speedometer

SIM_REFS = 2000  # refs/core of one simulation-workload run (~0.6 s)
GRID_REFS = 200  # refs/core of one grid cell (~0.07 s in process)
GRID_SEEDS = 5  # 12 mixes x 2 schemes x 5 seeds = 120 cells
SERVE_SEEDS = 20  # 480 cells, so a 20 s service run never runs dry
GRID_SCHEMES = ("none", "camps-mod")
JOBS = 2  # pool and service workers
CLIENTS = 2  # closed-loop service clients
POLL_S = 0.02  # job poll interval, well below the ~0.13 s p50 job latency
WINDOW_S = 2.5  # service throughput is a median over windows this long
SERVE_LAUNCHES = 3  # service start-ups per run; setup_s is their median
IMPORT_RUNS = 3  # fresh-interpreter imports per run; setup_s takes the median
JOB_TIMEOUT_S = 60.0
SIM_LAYERS = ("cpu.core", "hmc.host", "vault", "core.prefetcher", "dram.bank")
STAGES = ("admit", "queue", "claim", "execute", "merge")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a result mismatch)."""


@dataclass
class Outcome:
    """What one run measured and what its correctness checks found."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def mismatch(self, ok: bool, message: str) -> None:
        """A wrong result: a failed operation as well as a failed check."""
        if not self.check(ok, message):
            self.failed += 1


@dataclass
class Context:
    root: Path  # checkout root
    work: Path  # scratch directory inside the checkout
    seed: int
    seconds: float
    traced: bool


@dataclass
class Timed:
    """``seconds`` of host time measured inside ``[t0, t1]``."""

    seconds: float
    t0: float
    t1: float

    def at_reference(self, speed: Speedometer) -> float:
        return self.seconds / speed.factor(self.t0, self.t1)


def since(t0: float) -> Timed:
    t1 = clock()
    return Timed(t1 - t0, t0, t1)


median = statistics.median


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; missing samples (inf) sort last."""
    from repro.serve.admission import nearest_rank

    ordered = sorted(values)
    return ordered[nearest_rank(q, len(ordered))]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Cells and set-up
# ----------------------------------------------------------------------
def grid_cells(seed: int, seeds: int = GRID_SEEDS) -> list:
    """The Fig. 5-style grid, seed-major so the sample is submitted first."""
    from repro.campaign import Cell
    from repro.experiments.runner import ExperimentConfig
    from repro.workloads.mixes import mix_names

    return [
        Cell(m, s, ExperimentConfig(refs_per_core=GRID_REFS, seed=seed * 1000 + j))
        for j in range(seeds)
        for m in mix_names()
        for s in GRID_SCHEMES
    ]


def grid_sample(cells: list) -> list:
    """Every mix once, schemes alternating, from the first seed block."""
    from repro.workloads.mixes import mix_names

    return [cells[2 * i + i % 2] for i in range(len(mix_names()))]


def cell_refs(cell) -> int:
    from repro.workloads.mixes import MIXES

    return len(MIXES[cell.workload]) * cell.config.refs_per_core


def import_runs(ctx: Context, modules: List[str]) -> List[Timed]:
    """Import ``modules`` in ``IMPORT_RUNS`` fresh interpreters."""
    code = "; ".join(["import time", "t0 = time.perf_counter()"]
                     + [f"import {m}" for m in modules]
                     + ["print(time.perf_counter() - t0)"])
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    runs = []
    for _ in range(IMPORT_RUNS):
        t0 = clock()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ctx.work,
                              capture_output=True, text=True, check=True,
                              timeout=JOB_TIMEOUT_S)
        runs.append(Timed(float(done.stdout), t0, clock()))
    return runs


# ----------------------------------------------------------------------
# Reference: in-process execute_cell
# ----------------------------------------------------------------------
def reference(cells: list) -> tuple:
    """``execute_cell`` summaries of ``cells`` and the time each took."""
    from repro.campaign import execute_cell

    summaries, times = {}, []
    for cell in cells:
        t0 = clock()
        summaries[cell.cell_id] = execute_cell(cell)
        times.append(since(t0))
    return summaries, times


def compare(out: Outcome, expected: Dict[str, dict], merged: Dict[str, dict], rung: str) -> None:
    """Each expected cell's merged summary equals the in-process one."""
    for cid, summary in expected.items():
        out.mismatch(merged.get(cid) == summary,
                     f"{rung}: summary of {cid} differs from in-process execute_cell")


# ----------------------------------------------------------------------
# Rung: in-process simulation
# ----------------------------------------------------------------------
@dataclass
class SimPass:
    """One generate-build-run pass over some cells."""

    t0: float
    t1: float
    gen_s: float = 0.0
    build_s: float = 0.0
    run_s: float = 0.0
    refs: int = 0
    events: int = 0
    results: list = field(default_factory=list)
    layer_s: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)

    @property
    def cell_s(self) -> float:
        return self.gen_s + self.build_s + self.run_s

    def at_reference(self, speed: Speedometer) -> "SimPass":
        f = speed.factor(self.t0, self.t1)
        return replace(self, gen_s=self.gen_s / f, build_s=self.build_s / f,
                       run_s=self.run_s / f,
                       layer_s={k: v / f for k, v in self.layer_s.items()})


def sim_pass(cells: list, timer: Optional[LayerTimer] = None) -> SimPass:
    """Generate, build and run each cell once; with ``timer``, traced."""
    from repro.system import System, SystemConfig
    from repro.workloads.mixes import mix

    out = SimPass(clock(), 0.0)
    if timer is not None:
        timer.reset()
    for cell in cells:
        cfg = cell.config
        t0 = clock()
        traces = mix(cell.workload, cfg.refs_per_core, seed=cfg.seed, config=cfg.hmc)
        t1 = clock()
        # Installed before the System is built, so its context packs and
        # engine callbacks bind the timing wrappers.
        with timer if timer is not None else contextlib.nullcontext():
            t2 = clock()
            system = System(
                traces, SystemConfig(hmc=cfg.hmc, scheme=cell.scheme), workload=cell.workload
            )
            t3 = clock()
            result = system.run()
            t4 = clock()
        out.gen_s += t1 - t0
        out.build_s += t3 - t2
        out.run_s += t4 - t3
        out.refs += sum(len(t.addrs) for t in traces)
        out.events += result.extra["events_fired"]
        out.results.append(result)
    out.t1 = clock()
    if timer is not None:
        out.layer_s = {k: v / 1e9 for k, v in timer.self_ns.items()}
        out.layer_calls = timer.calls
    return out


@functools.cache
def _hotpath():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_hotpath.py"
    spec = importlib.util.spec_from_file_location("bench_hotpath", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_digest(result) -> str:
    """``bench_hotpath.result_digest``: every cached field plus events_fired."""
    return _hotpath().result_digest(result)


def check_digests(out: Outcome, passes: List[SimPass]) -> tuple:
    """Every pass of the same cells, traced or not, gives the same results."""
    digests = {tuple(result_digest(r) for r in p.results) for p in passes}
    out.mismatch(len(digests) == 1, f"{len(digests)} distinct result digests across "
                 "passes of the same cells (traced passes included)")
    return next(iter(digests))


def sim_metrics(out: Outcome, plain: List[SimPass], traced: List[SimPass]) -> None:
    """Layer self times, work counts and modelled statistics of the sim rung."""
    digest = check_digests(out, plain + traced)
    m = out.per_layer
    for layer in SIM_LAYERS:
        m[f"{layer}.self_s"] = median([p.layer_s[layer] for p in traced])
        m[f"{layer}.calls"] = statistics.median_low([p.layer_calls[layer] for p in traced])
    # The engine is charged whatever no layer span covers, so the layers and
    # the engine add up to the traced wall by construction; a negative
    # remainder would mean overlapping spans.
    engine = [p.run_s - sum(p.layer_s.values()) for p in traced]
    out.check(min(engine) >= 0, "layer self times exceed the traced wall")
    m["sim.engine.self_s"] = median(engine)
    m["sim.engine.events"] = plain[0].events
    m["sim.engine.events_per_ref"] = plain[0].events / plain[0].refs
    m["workloads.gen_s"] = median([p.gen_s for p in plain])
    m["system.build_s"] = median([p.build_s for p in plain])
    m["trace.overhead_frac"] = (
        median([p.run_s for p in traced]) / median([p.run_s for p in plain]) - 1.0
    )
    results = plain[0].results
    n = len(results)
    bank = [r.extra["bank_outcomes"] for r in results]
    m["model.cycles"] = sum(r.cycles for r in results)
    m["model.ipc_geomean"] = sum(r.geomean_ipc for r in results) / n
    m["model.read_latency_cycles"] = sum(r.mean_read_latency for r in results) / n
    m["model.bank.hits"] = sum(b["hits"] for b in bank)
    m["model.bank.empties"] = sum(b["empties"] for b in bank)
    m["model.bank.conflicts"] = sum(b["conflicts"] for b in bank)
    m["model.buffer_hits"] = sum(r.buffer_hits for r in results)
    m["model.prefetches_issued"] = sum(r.prefetches_issued for r in results)
    m["model.prefetch_row_accuracy"] = sum(r.row_accuracy for r in results) / n
    m["model.link_utilization"] = sum(r.link_utilization for r in results) / n
    m["model.tsv_utilization"] = sum(r.extra["tsv_bus_utilization"] for r in results) / n
    shown = digest[0] if n == 1 else hashlib.sha256("".join(digest).encode()).hexdigest()
    out.notes.append(
        f"result digest {shown} over {n} cell(s), events_fired included; "
        f"{len(plain)} untraced and {len(traced)} traced passes agree"
    )


# ----------------------------------------------------------------------
# Rung: run_campaign over a worker pool
# ----------------------------------------------------------------------
@dataclass
class CampaignPass:
    """One ``run_campaign`` call over a fresh manifest."""

    t0: float
    t1: float
    setup_s: float
    wall_s: float
    result: object  # CampaignResult
    elapsed: List[float]  # per cell, from the manifest records
    append_s: float
    appends: int

    def at_reference(self, speed: Speedometer) -> "CampaignPass":
        f = speed.factor(self.t0, self.t1)
        return replace(self, setup_s=self.setup_s / f, wall_s=self.wall_s / f,
                       elapsed=[e / f for e in self.elapsed], append_s=self.append_s / f)


def campaign_passes(ctx: Context, cells: list, seconds: float,
                    traced: bool) -> List[CampaignPass]:
    """Run the whole cell set through ``run_campaign(jobs=2)`` until
    ``seconds`` have passed (at least once), each time with a fresh manifest
    and no result cache.  Traced passes time ``Manifest.append``."""
    from repro.campaign import CampaignOptions, Manifest, run_campaign

    timer = LayerTimer({"append": [(Manifest, "append")]})
    passes: List[CampaignPass] = []
    deadline = clock() + seconds
    while not passes or clock() < deadline:
        timer.reset()
        t0 = clock()
        manifest = Manifest(ctx.work / "campaign.jsonl")
        options = CampaignOptions(jobs=JOBS)
        t1 = clock()
        with timer if traced else contextlib.nullcontext():
            result = run_campaign(cells, options, cache=None, manifest=manifest)
        t2 = clock()
        passes.append(CampaignPass(
            t0, t2, t1 - t0, t2 - t1, result,
            [r.elapsed if r.ok else math.inf for r in result.records.values()],
            timer.self_ns["append"] / 1e9, timer.calls["append"],
        ))
    return passes


def check_campaign(out: Outcome, passes: List[CampaignPass], cells: list) -> Dict[str, dict]:
    """Every pass simulated every cell (nothing cached or resumed) and
    merged the same summaries; returns them."""
    merged: Dict[str, dict] = {}
    for p in passes:
        stats = p.result.stats
        out.attempted += len(cells)
        out.failed += stats["failed"]
        out.check(stats["failed"] == 0, f"campaign pass failed {stats['failed']} cell(s)")
        out.check(stats["executed"] == len(cells) and stats["cached"] == 0
                  and stats["resumed"] == 0,
                  f"campaign pass executed {stats['executed']} of {len(cells)} cells "
                  f"(cached {stats['cached']}, resumed {stats['resumed']})")
        summaries = {cid: r.summary for cid, r in p.result.records.items() if r.ok}
        if merged:
            out.check(summaries == merged, "campaign passes merged different summaries")
        merged = summaries
    return merged


def campaign_metrics(out: Outcome, passes: List[CampaignPass], exec_times: List[float]) -> None:
    m = out.per_layer
    m["campaign.cell_elapsed_p50_s"] = median([e for p in passes for e in p.elapsed])
    m["campaign.execute_cell_p50_s"] = median(exec_times)
    m["campaign.pool_efficiency"] = median(
        [sum(p.elapsed) / (JOBS * p.wall_s) for p in passes]
    )
    m["campaign.manifest_append_s"] = (
        sum(p.append_s for p in passes) / sum(p.appends for p in passes)
    )
    m["campaign.retried"] = sum(p.result.stats["retried"] for p in passes)


# ----------------------------------------------------------------------
# Rung: the `repro serve` service
# ----------------------------------------------------------------------
class Service:
    """``repro serve --jobs 2 --no-cache`` on an ephemeral port, otherwise at
    its defaults; ``ready`` is launch until ``/readyz`` answers 200."""

    def __init__(self, ctx: Context, name: str) -> None:
        from repro.serve import ServeClient, ServeError

        self.manifest = ctx.work / f"{name}.jsonl"
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self._log = open(ctx.work / f"{name}.log", "w")
        t0 = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", str(JOBS), "--no-cache",
             "--port", "0", "--manifest", str(self.manifest)],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env, cwd=ctx.work,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise BenchError(f"repro serve did not start: {line.strip()!r}")
            url = line.split("listening on http://", 1)[1].split()[0]
            self.client = ServeClient("127.0.0.1", int(url.rsplit(":", 1)[1]),
                                      timeout=JOB_TIMEOUT_S)
            while True:
                try:
                    if self.client.readyz()[0] == 200:
                        break
                except (OSError, ServeError):
                    pass
                if clock() - t0 > JOB_TIMEOUT_S:
                    raise BenchError("repro serve never became ready")
                time.sleep(0.005)
            self.ready = since(t0)
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = status.split("VmHWM:", 1)[1].split()[0]
        return int(kb) / 1024.0

    def close(self) -> None:
        """SIGTERM drains the service; wait for it (and kill if it hangs)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=JOB_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class Job:
    """One single-cell job as a closed-loop client saw it."""

    spec: dict
    t0: float = 0.0  # submit
    t1: float = math.inf  # first poll that saw it done
    job_id: str = ""
    rtt_s: float = math.inf
    latency_s: float = math.inf  # inf: shed, failed or timed out
    info: Optional[dict] = None
    error: str = ""
    stages: Dict[str, float] = field(default_factory=dict)

    def at_reference(self, speed: Speedometer) -> "Job":
        if self.info is None:
            return self
        f = speed.factor(self.t0, self.t1)
        return replace(self, rtt_s=self.rtt_s / f, latency_s=self.latency_s / f,
                       stages={k: v / f for k, v in self.stages.items()})


@dataclass
class ServeRun:
    jobs: List[Job]
    t0: float  # clients started
    t1: float  # clients done
    ready: Timed
    rss_mb: float
    completed_cells: int


def closed_loop(port: int, specs: List[dict], seconds: float) -> tuple:
    """``CLIENTS`` threads each submit one cell per job and poll every
    ``POLL_S`` until it is done before submitting the next, until
    ``seconds`` pass or ``specs`` run out.  Latency runs from submit to
    the first poll that sees the job done; a 429 is a failed job, not a
    retry."""
    from repro.serve import ServeClient, ServeError

    pending = iter(specs)
    lock = threading.Lock()
    jobs: List[Job] = []
    deadline = clock() + seconds

    def client() -> None:
        cl = ServeClient("127.0.0.1", port, timeout=JOB_TIMEOUT_S)
        while clock() < deadline:
            with lock:
                spec = next(pending, None)
                if spec is None:
                    return
                job = Job(spec)
                jobs.append(job)
            job.t0 = clock()
            try:
                job.job_id = cl.submit(cells=[spec])["job"]
                job.rtt_s = clock() - job.t0
                while True:
                    info = cl.job(job.job_id)
                    if info.get("status") not in ("queued", "running"):
                        break
                    if clock() - job.t0 > JOB_TIMEOUT_S:
                        raise ServeError(f"job {job.job_id} not done in {JOB_TIMEOUT_S:g}s")
                    time.sleep(POLL_S)
                job.t1 = clock()
                job.latency_s = job.t1 - job.t0
                job.info = info
                job.stages = dict(info.get("stages", {}))
            except (ServeError, OSError) as exc:
                job.error = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    t0 = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, t0, clock()


def serve_rung(ctx: Context, cells: list, seconds: float, name: str) -> ServeRun:
    """Serve ``cells`` one per job until ``seconds`` pass or they run out."""
    from repro.obs.spans import read_spans
    from repro.serve.jobs import cell_to_spec

    with Service(ctx, name) as service:
        jobs, t0, t1 = closed_loop(service.client.port, [cell_to_spec(c) for c in cells],
                                   seconds)
        completed = service.client.snapshot()["serve"]["completed_cells"]
        rss = service.peak_rss_mb()
    # admit spans belong to jobs, not cells, so they come from the manifest
    admit = {
        s.attrs["job"]: s.dur
        for s in read_spans(service.manifest)
        if s.name == "admit" and "job" in s.attrs
    }
    for job in jobs:
        if job.job_id in admit:
            job.stages["admit"] = admit[job.job_id]
    return ServeRun(jobs, t0, t1, service.ready, rss, completed)


def check_serve(out: Outcome, run: ServeRun) -> Dict[str, dict]:
    """Every job finished ok, simulated by the service (none cached);
    returns the merged summaries."""
    merged: Dict[str, dict] = {}
    out.attempted += len(run.jobs)
    for job in run.jobs:
        cells = (job.info or {}).get("cells", {})
        ok = (
            job.info is not None
            and job.info.get("status") == "done"
            and len(cells) == 1
            and all(e.get("status") == "ok" and not e.get("cached") and "summary" in e
                    for e in cells.values())
        )
        desc = f"{job.spec['workload']}/{job.spec['scheme']} seed {job.spec['seed']}"
        out.mismatch(ok, f"serve job {job.job_id or '-'} ({desc}) failed: "
                     f"{job.error or job.info}")
        if ok:
            merged.update((cid, e["summary"]) for cid, e in cells.items())
    out.check(run.completed_cells == len(merged),
              f"service executed {run.completed_cells} cells for {len(merged)} done jobs")
    return merged


def serve_windows(run: ServeRun, merged: Dict[str, dict], refs: Dict[str, int],
                  speed: Speedometer) -> tuple:
    """Done cells and trace records per second at reference speed, one pair
    per ``WINDOW_S`` window of the run, by when each job was seen done."""
    n = max(1, round((run.t1 - run.t0) / WINDOW_S))
    width = (run.t1 - run.t0) / n
    cells = [0] * n
    records = [0] * n
    for job in run.jobs:
        for cid in (job.info or {}).get("cells", {}):
            if cid in merged:
                w = min(n - 1, int((job.t1 - run.t0) / width))
                cells[w] += 1
                records[w] += refs[cid]
    walls = [width / speed.factor(run.t0 + i * width, run.t0 + (i + 1) * width)
             for i in range(n)]
    return ([c / w for c, w in zip(cells, walls)], [r / w for r, w in zip(records, walls)])


def serve_metrics(out: Outcome, jobs: List[Job]) -> None:
    m = out.per_layer
    done = [j for j in jobs if j.info is not None]
    m["serve.submit_rtt_p50_s"] = median([j.rtt_s for j in jobs])
    for stage in STAGES:
        m[f"serve.stage.{stage}_s"] = sum(j.stages.get(stage, 0.0) for j in done) / len(done)
    execute = sum(j.stages.get("execute", 0.0) for j in done)
    m["serve.overhead_frac"] = 1.0 - execute / sum(j.latency_s for j in done)


# ----------------------------------------------------------------------
# The rungs a workload's main operation skips
# ----------------------------------------------------------------------
@dataclass
class OtherRungs:
    """Data of the rungs a traced run measures on the workload's sample."""

    sim: Optional[tuple] = None  # (untraced pass, traced pass)
    campaign: Optional[List[CampaignPass]] = None
    serve: Optional[ServeRun] = None


def other_rungs(ctx: Context, sample: list, sim: bool = False, campaign: bool = False,
                serve: bool = False) -> OtherRungs:
    rungs = OtherRungs()
    if sim:
        rungs.sim = (sim_pass(sample), sim_pass(sample, LayerTimer(simulator_entry_points())))
    if campaign:
        rungs.campaign = campaign_passes(ctx, sample, 0.0, traced=True)
    if serve:
        rungs.serve = serve_rung(ctx, sample, math.inf, "sample")
    return rungs


def other_rung_metrics(out: Outcome, rungs: OtherRungs, speed: Speedometer, sample: list,
                       expected: Dict[str, dict], exec_times: List[float]) -> None:
    """Check the other rungs against ``expected`` and fill in their metrics."""
    if rungs.sim is not None:
        from repro.campaign import summarize

        plain, traced = (p.at_reference(speed) for p in rungs.sim)
        out.attempted += 2 * len(sample)
        compare(out, expected,
                {c.cell_id: summarize(r) for c, r in zip(sample, plain.results)},
                "System.run")
        sim_metrics(out, [plain], [traced])
    if rungs.campaign is not None:
        compare(out, expected, check_campaign(out, rungs.campaign, sample), "run_campaign")
        campaign_metrics(out, [p.at_reference(speed) for p in rungs.campaign], exec_times)
    if rungs.serve is not None:
        compare(out, expected, check_serve(out, rungs.serve), "repro serve")
        serve_metrics(out, [j.at_reference(speed) for j in rungs.serve.jobs])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def finish(out: Outcome, speed: Speedometer) -> Outcome:
    out.notes.append(
        f"host times at reference speed; this machine ran at {1 / speed.median():.3f}x "
        f"reference (median of {len(speed.samples)} samples)"
    )
    return out


def latency_metrics(out: Outcome, latencies: List[float], what: str) -> None:
    e = out.end_to_end
    e["job_latency_p50_s"] = quantile(latencies, 0.50)
    e["job_latency_p90_s"] = quantile(latencies, 0.90)
    out.notes.append(f"job latency: p50 and p90 over {len(latencies)} {what}")


def simulation(ctx: Context, workload: str, scheme: str) -> Outcome:
    """One Table II mix under one scheme, ``System.run`` in this process."""
    from repro.campaign import Cell, summarize
    from repro.experiments.runner import ExperimentConfig

    out = Outcome()
    cell = Cell(workload, scheme, ExperimentConfig(refs_per_core=SIM_REFS, seed=ctx.seed))
    timer = LayerTimer(simulator_entry_points()) if ctx.traced else None
    plain: List[SimPass] = []
    traced: List[SimPass] = []
    with Speedometer(ctx.work / "speed.log") as speed:
        imports = import_runs(ctx, ["repro.system", "repro.workloads.mixes"])
        deadline = clock() + ctx.seconds
        while not plain or clock() < deadline:
            plain.append(sim_pass([cell]))
            if timer is not None:
                traced.append(sim_pass([cell], timer))
        rss = self_rss_mb()
        expected, exec_runs = reference([cell])
        rungs = other_rungs(ctx, [cell], campaign=ctx.traced, serve=ctx.traced)
    plain = [p.at_reference(speed) for p in plain]
    traced = [p.at_reference(speed) for p in traced]
    exec_times = [t.at_reference(speed) for t in exec_runs]
    out.attempted += len(plain) + len(traced)
    compare(out, expected, {cell.cell_id: summarize(plain[0].results[0])}, "System.run")

    e = out.end_to_end
    e["refs_per_s"] = median([p.refs / p.run_s for p in plain])
    e["cells_per_s"] = median([1 / p.cell_s for p in plain])
    latency_metrics(out, [p.cell_s for p in plain], "in-process cells (generate+build+run)")
    e["setup_s"] = (median([t.at_reference(speed) for t in imports])
                    + median([p.gen_s + p.build_s for p in plain]))
    e["peak_rss_mb"] = rss
    if ctx.traced:
        sim_metrics(out, plain, traced)
        other_rung_metrics(out, rungs, speed, [cell], expected, exec_times)
    else:
        check_digests(out, plain)
    return finish(out, speed)


def grid(ctx: Context) -> Outcome:
    """The 120-cell grid through ``run_campaign(jobs=2)``."""
    out = Outcome()
    with Speedometer(ctx.work / "speed.log") as speed:
        imports = import_runs(ctx, ["repro.campaign"])
        t0 = clock()
        cells = grid_cells(ctx.seed)
        cell_list = since(t0)
        passes = campaign_passes(ctx, cells, ctx.seconds, ctx.traced)
        rss = self_rss_mb()
        sample = grid_sample(cells)
        expected, exec_runs = reference(sample)
        rungs = other_rungs(ctx, sample, sim=ctx.traced, serve=ctx.traced)
    merged = check_campaign(out, passes, cells)
    compare(out, expected, merged, "run_campaign")
    passes = [p.at_reference(speed) for p in passes]
    exec_times = [t.at_reference(speed) for t in exec_runs]

    e = out.end_to_end
    refs = sum(cell_refs(c) for c in cells)
    e["refs_per_s"] = median([refs / p.wall_s for p in passes])
    e["cells_per_s"] = median([p.result.stats["ok"] / p.wall_s for p in passes])
    latency_metrics(out, [x for p in passes for x in p.elapsed],
                    f"cells (manifest elapsed, {len(passes)} passes)")
    e["setup_s"] = (median([t.at_reference(speed) for t in imports])
                    + cell_list.at_reference(speed) + median([p.setup_s for p in passes]))
    e["peak_rss_mb"] = rss
    if ctx.traced:
        campaign_metrics(out, passes, exec_times)
        other_rung_metrics(out, rungs, speed, sample, expected, exec_times)
    return finish(out, speed)


def serve(ctx: Context) -> Outcome:
    """The grid's cells, then more seed blocks of the same shape so the
    clients never run dry, one cell per job through ``repro serve``."""
    out = Outcome()
    cells = grid_cells(ctx.seed, SERVE_SEEDS)
    sample = grid_sample(cells)
    with Speedometer(ctx.work / "speed.log") as speed:
        launches = []
        for i in range(SERVE_LAUNCHES - 1):
            with Service(ctx, f"launch{i}") as service:
                launches.append(service.ready)
        run = serve_rung(ctx, cells, ctx.seconds, "serve")
        launches.append(run.ready)
        expected, exec_runs = reference(sample)
        rungs = other_rungs(ctx, sample, sim=ctx.traced, campaign=ctx.traced)
    merged = check_serve(out, run)
    compare(out, expected, merged, "repro serve")
    jobs = [j.at_reference(speed) for j in run.jobs]

    e = out.end_to_end
    cells_per_s, refs_per_s = serve_windows(
        run, merged, {c.cell_id: cell_refs(c) for c in cells}, speed
    )
    e["refs_per_s"] = median(refs_per_s)
    e["cells_per_s"] = median(cells_per_s)
    latency_metrics(out, [j.latency_s for j in jobs],
                    f"jobs ({CLIENTS} closed-loop clients, poll {POLL_S * 1000:g} ms)")
    e["setup_s"] = median([t.at_reference(speed) for t in launches])
    e["peak_rss_mb"] = run.rss_mb
    out.notes.append(f"setup_s: median of {len(launches)} service launches to /readyz 200")
    if ctx.traced:
        serve_metrics(out, jobs)
        other_rung_metrics(out, rungs, speed, sample, expected,
                           [t.at_reference(speed) for t in exec_runs])
    return finish(out, speed)


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "hm3-campsmod": functools.partial(simulation, workload="HM3", scheme="camps-mod"),
    "lm1-none": functools.partial(simulation, workload="LM1", scheme="none"),
    "grid-pool2": grid,
    "serve-closed2": serve,
}
