"""The service pool's pump reacts to a submit at once, even mid-cell.

``CellPool`` sleeps in one ``connection.wait`` over its busy workers'
pipes and a wake socket that ``submit()`` writes to.  A cell submitted while
another worker is busy must reach the free worker within a few
milliseconds, not when the pump's wait next times out.
"""

import sys
import threading
import time

from repro.serve import cell_from_spec
from repro.campaign.pool import CellPool

#: seconds the long cell keeps its worker busy
BUSY_S = 1.5


def _timed_runner(cell, attempt):
    """Record when the worker started the cell; the HM1 cell runs long."""
    started = time.time()
    if cell.workload == "HM1":
        time.sleep(BUSY_S)
    return {"started": started}


def _quick_runner(cell, attempt):
    return {"cell": cell.cell_id}


def _cell(workload, seed):
    return cell_from_spec(
        {"workload": workload, "scheme": "base", "refs": 100, "seed": seed}
    )


class _Results:
    def __init__(self):
        self.by_cell = {}
        self.emitted = 0
        self.cond = threading.Condition()

    def __call__(self, res):
        with self.cond:
            self.by_cell[res.cell.cell_id] = res
            self.emitted += 1
            self.cond.notify_all()

    def wait(self, cell, timeout=30.0):
        with self.cond:
            assert self.cond.wait_for(
                lambda: cell.cell_id in self.by_cell, timeout
            ), f"no result for {cell.cell_id}"
            return self.by_cell[cell.cell_id]


def test_submit_reaches_free_worker_while_another_is_busy():
    results = _Results()
    pool = CellPool(2, runner=_timed_runner).start(results)
    try:
        # spawn both workers first, so the probes time dispatch, not fork
        warm = [_cell("LM1", 100), _cell("LM2", 100)]
        for cell in warm:
            pool.submit(cell, 1)
        for cell in warm:
            assert results.wait(cell).status == "ok"
        busy = _cell("HM1", 1)
        pool.submit(busy, 1)
        time.sleep(0.2)  # the long cell holds its worker
        delays = []
        # several probes: the old pump's fixed 0.2 s wait would let one
        # slip through by luck, not five in a row
        for seed in range(5):
            probe = _cell("LM1", seed)
            submitted = time.time()
            pool.submit(probe, 1)
            res = results.wait(probe)
            assert res.status == "ok"
            delays.append(res.payload["started"] - submitted)
        assert busy.cell_id not in results.by_cell, "long cell ended early"
        assert max(delays) < 0.1, delays
        assert results.wait(busy).status == "ok"
    finally:
        pool.stop(drain=False, timeout=2.0)


def test_concurrent_submits_each_run_exactly_once():
    """More workers than cores, four submitting threads and a short switch
    interval: every cell runs once, and the pool ends idle."""
    results = _Results()
    pool = CellPool(3, runner=_quick_runner).start(results)
    cells = [_cell("LM1", seed) for seed in range(48)]

    def submit_all(chunk):
        for cell in chunk:
            pool.submit(cell, 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=submit_all, args=(cells[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        for cell in cells:
            assert results.wait(cell).payload == {"cell": cell.cell_id}
        assert pool.wait_idle(timeout=10)
        assert results.emitted == len(cells)
    finally:
        sys.setswitchinterval(interval)
        pool.stop(drain=False, timeout=2.0)
