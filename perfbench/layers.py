"""Outside-in layer timer: wall time per simulator layer without cProfile.

The timer replaces the methods each layer is entered through with a thin
timing wrapper, at class level, and restores them on exit.  A ``System``
built while the timer is installed binds the wrappers into its hot-path
context packs and engine callbacks, so every entry into a layer is timed;
nothing under ``src/`` is edited.  A layer's self time is its span minus
the spans of layers it called.  Time outside every span (the engine's heap
loop, and the wrapper cost that falls between spans) is left for the
caller to charge to the engine as ``wall - sum(self time)``.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns
from typing import Dict, List, Sequence, Tuple

EntryPoints = Dict[str, Sequence[Tuple[type, str]]]


def simulator_entry_points() -> EntryPoints:
    """The methods through which control enters each simulator layer.

    Every engine callback of a plain post-LLC run lands in one of these, so
    the engine remainder holds only dispatch.  Prefetcher hooks are taken
    from every subclass that defines its own, so each scheme is covered.
    """
    from repro.core.prefetcher import Prefetcher
    from repro.cpu.core import Core
    from repro.dram.bank import Bank
    from repro.hmc.device import HMCDevice
    from repro.hmc.host import HostController
    from repro.system import DirectPort
    from repro.vault.controller import VaultController

    prefetchers: List[Tuple[type, str]] = []
    todo = list(Prefetcher.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        for name in ("on_demand_access", "on_buffer_hit"):
            if name in vars(cls):
                prefetchers.append((cls, name))
    return {
        "cpu.core": [(Core, "_run"), (Core, "_fill")],
        "hmc.host": [
            (DirectPort, "load"),
            (DirectPort, "store"),
            (HostController, "send"),
            (HostController, "_deliver"),
            (HostController, "_tx_response"),
            (HostController, "_respond_from_cube"),
            (HMCDevice, "inject"),
        ],
        "vault": [
            (VaultController, "receive"),
            (VaultController, "_try_issue"),
            (VaultController, "_access_done"),
            (VaultController, "_wake_fired"),
            (VaultController, "_refresh_bank"),
            (VaultController, "_execute_prefetch"),
        ],
        "core.prefetcher": prefetchers,
        "dram.bank": [
            (Bank, "access"),
            (Bank, "fetch_row"),
            (Bank, "fetch_lines"),
            (Bank, "restore_row"),
            (Bank, "refresh"),
        ],
    }


class LayerTimer:
    """Context manager that times the given entry points per layer.

    ``self_ns[layer]`` and ``calls[layer]`` accumulate across every
    installation of one timer; :meth:`reset` zeroes them.
    """

    def __init__(self, entry_points: EntryPoints) -> None:
        self.entry_points = entry_points
        self._acc: Dict[str, List[int]] = {layer: [0, 0] for layer in entry_points}
        self._saved: List[Tuple[type, str, object]] = []

    @property
    def self_ns(self) -> Dict[str, int]:
        return {layer: acc[0] for layer, acc in self._acc.items()}

    @property
    def calls(self) -> Dict[str, int]:
        return {layer: acc[1] for layer, acc in self._acc.items()}

    def reset(self) -> None:
        for acc in self._acc.values():
            acc[0] = acc[1] = 0

    def __enter__(self) -> "LayerTimer":
        if self._saved:
            raise RuntimeError("LayerTimer is already installed")
        # One child-time accumulator per open span, shared by every wrapper.
        stack: List[int] = []
        for layer, points in self.entry_points.items():
            for cls, name in points:
                original = vars(cls)[name]
                self._saved.append((cls, name, original))
                setattr(cls, name, _timed(original, self._acc[layer], stack))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


def _timed(fn, acc: List[int], stack: List[int]):
    clock = perf_counter_ns

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        stack.append(0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span = clock() - t0
            acc[0] += span - stack.pop()
            acc[1] += 1
            if stack:
                stack[-1] += span

    return timed
