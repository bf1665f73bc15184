"""Serial link model: serialization delay + fixed SerDes/flight latency.

Each of the four links is full-duplex: an independent request direction
(host -> cube) and response direction (cube -> host).  A direction is a
serialization server: a packet occupies it for ``nbytes / bytes_per_cycle``
cycles (arithmetic busy-until, no events), then lands after a further fixed
``serdes_latency``.  Per-direction flit and byte counts feed the energy model
and the utilization report.

Fault injection (:mod:`repro.faults`) is opt-in: when a
:class:`~repro.faults.LinkFaultConfig` is attached, each direction carries a
:class:`~repro.faults.RetryBuffer` that resolves CRC/drop episodes at send
time - replayed packets occupy the wire again (plus a NAK round-trip), and
a retraining penalty applies after ``max_retries`` consecutive failures.
Delivery is still guaranteed; faults cost cycles and wire flits, never data.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.faults import LinkFaultConfig, LinkFaultInjector, RetryBuffer
from repro.obs.hooks import noop


class LinkDirection:
    """One direction of one serial link."""

    __slots__ = (
        "name",
        "bytes_per_cycle",
        "serdes_latency",
        "flit_bytes",
        "busy_until",
        "packets",
        "bytes_sent",
        "flits_sent",
        "busy_cycles",
        "retry",
        "_tracer",
        "_emit_retry",
        "_emit_retrain",
        "_ser_cache",
    )

    def __init__(
        self,
        name: str,
        bytes_per_cycle: float,
        serdes_latency: int,
        flit_bytes: int,
    ) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        if serdes_latency < 0:
            raise ValueError("serdes_latency must be non-negative")
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.serdes_latency = serdes_latency
        self.flit_bytes = flit_bytes
        self.busy_until = 0
        self.packets = 0
        self.bytes_sent = 0
        self.flits_sent = 0
        self.busy_cycles = 0
        self.retry: Optional[RetryBuffer] = None
        self._tracer = None
        self._emit_retry = noop
        self._emit_retrain = noop
        # packet sizes repeat (request/response are each one size), so the
        # ceil-division pair is memoised per nbytes
        self._ser_cache: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Instrumentation (see repro.obs.hooks)
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._emit_retry = tracer.link_retry if tracer is not None else noop
        self._emit_retrain = tracer.link_retrain if tracer is not None else noop

    def send(self, at: int, nbytes: int) -> Tuple[int, int]:
        """Serialize ``nbytes`` starting no earlier than ``at``.

        Returns ``(arrival_cycle, flits)``: when the packet is fully
        delivered at the far end, and how many flits crossed the wire
        (replays included - the energy model charges every wire crossing).
        """
        busy = self.busy_until
        start = at if at > busy else busy
        cached = self._ser_cache.get(nbytes)
        if cached is None:
            # Validation lives on the cache-miss path: every distinct nbytes
            # is checked exactly once, the steady state pays nothing.
            if nbytes < 1:
                raise ValueError("nbytes must be >= 1")
            cached = (
                max(1, math.ceil(nbytes / self.bytes_per_cycle)),
                max(1, math.ceil(nbytes / self.flit_bytes)),
            )
            self._ser_cache[nbytes] = cached
        ser, flits = cached
        occupancy = ser
        wire_flits = flits
        retry = self.retry
        if retry is not None and retry.active:
            replays, retrained = retry.transmit(nbytes, flits)
            if replays:
                cfg = retry.config
                occupancy += replays * (ser + cfg.retry_latency)
                wire_flits += replays * flits
                if retrained:
                    occupancy += cfg.retrain_latency
                self._emit_retry(self.name, replays, nbytes, start)
                if retrained:
                    self._emit_retrain(self.name, start)
        self.busy_until = start + occupancy
        self.busy_cycles += occupancy
        self.packets += 1
        self.bytes_sent += nbytes
        self.flits_sent += wire_flits
        return start + occupancy + self.serdes_latency, wire_flits

    def utilization(self, total_cycles: int) -> float:
        """Fraction of time this direction spent serializing.

        Clamped to 1.0: the last packet's serialization (and any retry
        episode) can extend past the measurement window, so raw
        ``busy_cycles`` may exceed ``total_cycles``.
        """
        if not total_cycles:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)

    def reset_statistics(self) -> None:
        """Warmup boundary: zero traffic and retry counters (busy_until and
        the injector RNG stream are simulation state and are preserved)."""
        self.packets = 0
        self.bytes_sent = 0
        self.flits_sent = 0
        self.busy_cycles = 0
        if self.retry is not None:
            self.retry.reset_counters()

    def take_statistics(self) -> tuple:
        """:meth:`reset_statistics`, returning the zeroed values for
        :meth:`put_statistics`."""
        retry = self.retry
        saved = (
            self.packets,
            self.bytes_sent,
            self.flits_sent,
            self.busy_cycles,
            retry.counters() if retry is not None else None,
        )
        self.reset_statistics()
        return saved

    def put_statistics(self, saved: tuple) -> None:
        """Restore the counters :meth:`take_statistics` zeroed."""
        self.packets, self.bytes_sent, self.flits_sent, self.busy_cycles, retry = saved
        if retry is not None:
            for name, value in retry.items():
                setattr(self.retry, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkDir {self.name} busy_until={self.busy_until} pkts={self.packets}>"


class SerialLink:
    """A full-duplex link: one request and one response direction."""

    def __init__(
        self,
        link_id: int,
        bytes_per_cycle: float,
        serdes_latency: int,
        flit_bytes: int,
        faults: Optional[LinkFaultConfig] = None,
    ) -> None:
        self.link_id = link_id
        self.request = LinkDirection(
            f"link{link_id}.req", bytes_per_cycle, serdes_latency, flit_bytes
        )
        self.response = LinkDirection(
            f"link{link_id}.resp", bytes_per_cycle, serdes_latency, flit_bytes
        )
        if faults is not None:
            self.attach_faults(faults)

    def attach_faults(self, config: LinkFaultConfig) -> None:
        """Enable fault injection on both directions.

        A no-op when the config models a healthy link (``enabled`` False),
        so the zero-fault path stays byte-identical to a link without the
        fault layer.  Each direction gets its own SHA-256-derived RNG
        stream, keyed by ``(seed, link_id, direction)``.
        """
        if not config.enabled:
            return
        for d, tag in ((self.request, "req"), (self.response, "resp")):
            injector = LinkFaultInjector(config, self.link_id, tag)
            d.retry = RetryBuffer(config, injector)

    def reset_statistics(self) -> None:
        """Warmup boundary for the whole link: both directions zero their
        traffic counters AND any attached retry/fault counters (see
        :meth:`LinkDirection.reset_statistics`), so a mid-run reset can
        never double-count replays already folded into earlier summaries."""
        self.request.reset_statistics()
        self.response.reset_statistics()

    @property
    def total_flits(self) -> int:
        return self.request.flits_sent + self.response.flits_sent

    @property
    def total_busy_cycles(self) -> int:
        """Combined serialization occupancy of both directions (the
        telemetry layer turns per-epoch deltas of this into utilization)."""
        return self.request.busy_cycles + self.response.busy_cycles

    def fault_counters(self) -> Optional[dict]:
        """Aggregated retry counters across both directions, or None when
        fault injection is not attached."""
        dirs = [d for d in (self.request, self.response) if d.retry is not None]
        if not dirs:
            return None
        agg: dict = {}
        for d in dirs:
            for key, value in d.retry.counters().items():
                if key == "max_episode_replays":
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        return agg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SerialLink {self.link_id}>"
