"""Machine-speed reference for host-time metrics.

Small shared VMs change speed by up to about 20% within seconds as
neighbouring tenants come and go, so a run that falls into a slow stretch
would read as a regression.  While a workload runs, a child process runs a
short fixed pure-Python loop (heap churn plus integer arithmetic, the
simulator's own op mix) every ``INTERVAL_S`` and records its CPU time.  A
host time measured over an interval is divided by the loop's mean slowdown
against ``REFERENCE_S`` over that interval, so the benchmark reports
seconds at a fixed reference speed.  CPU time, not wall time, keeps the
benchmark's own processes competing for a core out of the reading.

On a 2-vCPU Xeon VM, over 90 s of back-to-back HM3 runs, the medians of
consecutive 15-run blocks varied with a CV of 0.12 raw and 0.036
normalised; per 120-cell ``run_campaign(jobs=2)`` pass, 0.073 and 0.042.

Run as a script, this module is the sampling child: it prints one
``<perf_counter> <slowdown>`` line per sample until it is terminated or
its parent exits.
"""

from __future__ import annotations

import heapq
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

LOOP_OPS = 50_000
#: loop CPU time that defines the reference speed (about this VM's typical)
REFERENCE_S = 0.010
INTERVAL_S = 0.2


def loop_cpu_s() -> float:
    """CPU seconds the fixed reference loop takes right now."""
    heap = [(i, 0, i) for i in range(64)]
    heapq.heapify(heap)
    pushpop = heapq.heappushpop
    acc = 0
    t0 = time.process_time()
    for i in range(LOOP_OPS):
        acc += pushpop(heap, ((i * 37) & 1023, 0, i))[0]
    return time.process_time() - t0


class Speedometer:
    """Runs the sampling child for the life of a ``with`` block.

    After the block, :meth:`factor` gives the slowdown (1.0 = reference
    speed) over any interval of ``time.perf_counter`` inside it; divide a
    host time measured over that interval by it.
    """

    def __init__(self, log: Path) -> None:
        self.log = log
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "Speedometer":
        self._out = open(self.log, "w")
        self._proc = subprocess.Popen([sys.executable, __file__], stdout=self._out)
        deadline = time.monotonic() + 30
        while not self.log.read_text().strip():  # first sample is in
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("speed sampler did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc: object) -> None:
        self._proc.terminate()
        self._proc.wait()
        self._out.close()
        self.samples = [
            (float(ts), float(slowdown))
            for ts, slowdown in (line.split() for line in self.log.read_text().splitlines())
        ]

    def factor(self, t0: float, t1: float) -> float:
        inside = [s for ts, s in self.samples if t0 <= ts <= t1]
        if inside:
            return statistics.fmean(inside)
        mid = (t0 + t1) / 2
        return min(self.samples, key=lambda sample: abs(sample[0] - mid))[1]

    def median(self) -> float:
        return statistics.median(s for _, s in self.samples)


def main() -> None:
    parent = os.getppid()
    while os.getppid() == parent:  # stop if the benchmark dies without us
        cpu = loop_cpu_s()
        print(f"{time.perf_counter() - cpu / 2:.6f} {cpu / REFERENCE_S:.6f}", flush=True)
        time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main()
