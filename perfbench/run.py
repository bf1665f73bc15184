"""Benchmark of the CAMPS stack: simulator, campaign pool and service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hm3-campsmod --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer ones.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when a correctness check fails, and 2 when
the benchmark cannot run (for instance outside a checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "repro" / "__init__.py",
              ROOT / "benchmarks" / "bench_hotpath.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of the repository (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the child processes get stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)  # keep every temporary file in the checkout
    ctx = workloads.Context(ROOT, work, args.seed, args.seconds, bool(args.trace))
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    outcome.per_layer["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    absent = [m["name"] for m in declared if m["name"] not in measured]
    if absent:
        print(f"perfbench: {args.workload} measured no {', '.join(absent)}", file=sys.stderr)
        return 2
    # a percentile over failed jobs can be infinite; JSON has no infinity
    metrics = {
        m["name"]: {"value": measured[m["name"]] if math.isfinite(measured[m["name"]]) else None,
                    "unit": m["unit"]}
        for m in declared
    }

    print(f"{args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, m in metrics.items():
        print(f"  {name:34s} {measured[name]:>16.6g} {m['unit']}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
