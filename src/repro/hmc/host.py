"""Host-side HMC controller: address decode, packetization, link selection.

Sits on the processor die (paper Figure 2).  Every LLC miss or writeback
becomes a request packet: the controller decodes the cube coordinates once,
chooses a serial link (static vault-interleaved assignment, which balances
load because consecutive rows interleave across vaults), serializes the
packet, and injects it into the cube.  Completions arrive on the paired
response direction; the controller timestamps them, feeds the AMAT histogram
(Figure 8's input) and wakes the issuing core via the request callback.
"""

from __future__ import annotations

from heapq import heappush
from typing import List

from repro.hmc.address import AddressMapping
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.interconnect.link import SerialLink
from repro.interconnect.packet import PacketKind, packet_bytes
from repro.obs.hooks import noop
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.sim.stats import StatGroup


class HostController:
    """The processor-side endpoint of the HMC serial links."""

    def __init__(
        self,
        config: HMCConfig,
        engine: Engine,
        device: HMCDevice,
        record_requests: bool = False,
    ) -> None:
        self.config = config
        self.engine = engine
        self.device = device
        self.record_requests = record_requests
        self.completed_requests = []  # populated only when recording
        self.mapping = AddressMapping(config)
        bpc = config.link_bytes_per_cycle
        self.links: List[SerialLink] = [
            SerialLink(i, bpc, config.serdes_latency, config.flit_bytes, config.faults)
            for i in range(config.links)
        ]
        device.set_deliver_fn(self._respond_from_cube)
        #: instrumentation site (repro.obs.hooks), rebound at wiring time
        self._tracer = None
        self._emit_link_tx = noop
        #: recycle delivered requests through the MemoryRequest pool; the
        #: System enables this only when it can prove single ownership
        #: (no request recording, no cache hierarchy holding MSHR refs)
        self.recycle_requests = False
        #: response-link counters saved (and zeroed) by begin_warmup_reset,
        #: awaiting the warmup boundary
        self._resp_saved = None
        # packet sizes depend only on (kind, line_bytes, header_bytes):
        # resolve the four combinations once instead of per packet
        line = config.line_bytes
        hdr = config.request_header_bytes
        self._req_bytes = (
            packet_bytes(PacketKind.READ_REQUEST, line, hdr),
            packet_bytes(PacketKind.WRITE_REQUEST, line, hdr),
        )
        self._resp_bytes = (
            packet_bytes(PacketKind.READ_RESPONSE, line, hdr),
            packet_bytes(PacketKind.WRITE_RESPONSE, line, hdr),
        )
        # Decode constants mirrored out of AddressMapping: send() runs the
        # shift/mask arithmetic inline rather than building a DecodedAddress
        # per request (mapping.decode stays the public/validating API).
        m = self.mapping
        self._v_shift, self._v_mask = m.vault_shift, m.vault_mask
        self._b_shift, self._b_mask = m.bank_shift, m.bank_mask
        self._c_shift, self._c_mask = m.column_shift, m.column_mask
        self._r_shift = m.row_shift
        self._nlinks = len(self.links)
        self._energy = device.energy
        # Hot-path mirrors for the inlined crossbar traversal (the same
        # arithmetic as Crossbar.route, which HMCDevice.inject calls on the
        # fabric path) and the response-side crossbar charge (vaults respond
        # with bank-side ready cycles, see HMCDevice.set_deliver_fn).
        self._xbar = device.crossbar
        self._vault_receive = [vc.receive for vc in device.vaults]
        self._resp_xbar = config.crossbar_latency
        self.stats = StatGroup("host")
        self._c_reads = self.stats.counter("reads_sent")
        self._c_writes = self.stats.counter("writes_sent")
        self._c_done = self.stats.counter("completions")
        # 64 bins x 32 cycles covers latencies up to ~2k cycles before overflow
        self.latency_hist = self.stats.histogram("mem_latency", nbins=64, bin_width=32)
        self.read_latency_hist = self.stats.histogram(
            "read_latency", nbins=64, bin_width=32
        )
        # send() context pack: every object here is bound once and mutated
        # only in place, so the tuple stays current; one attribute read + a
        # C-level unpack replaces the dozen attribute chains that used to
        # open every packetization.
        self._send_ctx = (
            engine,
            self._v_shift,
            self._v_mask,
            self._b_shift,
            self._b_mask,
            self._r_shift,
            self._c_shift,
            self._c_mask,
            self._req_bytes,
            self.links,
            self._nlinks,
            self._energy,
            self._xbar,
            self._vault_receive,
            self._c_reads,
            self._c_writes,
        )
        self._tx_ctx = (
            engine,
            self._resp_xbar,
            self._resp_bytes,
            self.links,
            self._nlinks,
            self._energy,
            self._deliver,
        )
        self._deliver_ctx = (
            engine,
            self.latency_hist,
            self.read_latency_hist,
            self._c_done,
        )

    # ------------------------------------------------------------------
    # Instrumentation (see repro.obs.hooks)
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._emit_link_tx = tracer.link_tx if tracer is not None else noop

    def release(self) -> None:
        """End of life: drop the context packs and the vault receive fns,
        which tie the host to the cube that holds its deliver fn (see
        VaultController.release and HMCDevice.release)."""
        self._send_ctx = self._tx_ctx = self._deliver_ctx = None
        self._vault_receive = None

    # ------------------------------------------------------------------
    # Request path (core -> cube)
    # ------------------------------------------------------------------
    def _link_for(self, vault: int) -> SerialLink:
        return self.links[vault % len(self.links)]

    def send(self, req: MemoryRequest) -> None:
        """Packetize and transmit one request at ``engine.now``."""
        (
            engine,
            v_shift,
            v_mask,
            b_shift,
            b_mask,
            r_shift,
            c_shift,
            c_mask,
            req_bytes,
            links,
            nlinks,
            energy,
            xbar,
            vault_receive,
            c_reads,
            c_writes,
        ) = self._send_ctx
        now = engine.now
        req.host_cycle = now
        addr = req.addr
        req.vault = vault = (addr >> v_shift) & v_mask
        req.bank = (addr >> b_shift) & b_mask
        req.row = addr >> r_shift
        req.column = (addr >> c_shift) & c_mask
        is_write = req.is_write
        nbytes = req_bytes[is_write]
        link = links[vault % nlinks]
        d = link.request
        # Fault-free serialization inlined (LinkDirection.send holds the
        # reference semantics and remains the retry/cache-miss slow path).
        cached = d._ser_cache.get(nbytes) if d.retry is None else None
        if cached is not None:
            busy = d.busy_until
            start = now if now > busy else busy
            ser, flits = cached
            d.busy_until = end = start + ser
            d.busy_cycles += ser
            d.packets += 1
            d.bytes_sent += nbytes
            d.flits_sent += flits
            arrival = end + d.serdes_latency
        else:
            arrival, flits = d.send(now, nbytes)
        emit = self._emit_link_tx
        if emit is not noop:
            emit(link.link_id, "req", nbytes, now, arrival)
        energy.link_flits += flits
        if is_write:
            c_writes.value += 1
        else:
            c_reads.value += 1
        # Crossbar traversal inlined the same way (see __init__ mirrors).
        port_busy = xbar._port_busy
        start = port_busy[vault]
        if start > arrival:
            xbar.port_conflicts += 1
        else:
            start = arrival
        port_busy[vault] = start + xbar.port_cycle
        xbar.traversals += 1
        # Engine.call_at inlined (the method stays the reference): the
        # arrival cycle is structurally >= now, so the past-check is free to
        # skip; seq draws from the engine counter, keeping order identical.
        engine._seq = seq = engine._seq + 1
        heappush(
            engine._heap,
            (start + xbar.latency, 0, seq, vault_receive[vault], (req,)),
        )
        engine._strong += 1

    # ------------------------------------------------------------------
    # Response path (cube -> core)
    # ------------------------------------------------------------------
    def _respond_from_cube(self, req: MemoryRequest, ready: int) -> None:
        # ``ready`` is the bank-side cycle; the response then crosses the
        # crossbar and leaves on the link at tx = ready + crossbar_latency.
        # Serialization is reserved in (tx, seq) order, but
        # ``crossbar_latency`` cycles ahead, at ``ready``: the crossing
        # itself is not an event.  A bank completion is ready now (the
        # common case) and reserves synchronously.  A buffer hit is ready
        # later and reserves from one event at ``ready`` with priority -2:
        # it was handed over before any bank completion of that cycle, so
        # it must reserve before them (they fire at -1).  Reserving at call
        # time instead would let far-future hits block earlier responses.
        engine = self.engine
        if ready <= engine.now:
            self._tx_response(req)
            return
        # Engine.call_at inlined (ready > now).
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (ready, -2, seq, self._tx_response, (req,)))
        engine._strong += 1

    def _tx_response(self, req: MemoryRequest) -> None:
        """Reserve the response link for the packet that leaves at
        ``engine.now + crossbar_latency`` (see _respond_from_cube)."""
        engine, resp_xbar, resp_bytes, links, nlinks, energy, deliver = self._tx_ctx
        tx = engine.now + resp_xbar
        nbytes = resp_bytes[req.is_write]
        link = links[req.vault % nlinks]
        d = link.response
        # Fault-free serialization inlined; same shape as send().
        cached = d._ser_cache.get(nbytes) if d.retry is None else None
        if cached is not None:
            busy = d.busy_until
            start = tx if tx > busy else busy
            ser, flits = cached
            d.busy_until = end = start + ser
            d.busy_cycles += ser
            d.packets += 1
            d.bytes_sent += nbytes
            d.flits_sent += flits
            arrival = end + d.serdes_latency
        else:
            arrival, flits = d.send(tx, nbytes)
        emit = self._emit_link_tx
        if emit is not noop:
            emit(link.link_id, "resp", nbytes, tx, arrival)
        energy.link_flits += flits
        # Engine.call_at inlined (arrival is structurally >= now).
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (arrival, 0, seq, deliver, (req,)))
        engine._strong += 1

    def _deliver(self, req: MemoryRequest) -> None:
        engine, lat_hist, read_hist, c_done = self._deliver_ctx
        now = engine.now
        req.complete_cycle = now
        c_done.value += 1
        lat = now - req.issue_cycle
        # Histogram.add inlined for the per-delivery samples (Histogram.add
        # holds the reference semantics; identical operation order keeps the
        # Welford running moments bit-identical to the method path).
        h = lat_hist
        idx = lat // h.bin_width
        nb = h.nbins
        if idx >= nb:
            idx = nb - 1
            h._overflow += 1
        elif idx < 0:
            idx = 0
        h._counts[idx] += 1
        h._n = n = h._n + 1
        delta = lat - h._mean
        h._mean = mean = h._mean + delta / n
        h._m2 += delta * (lat - mean)
        if h._min is None or lat < h._min:
            h._min = float(lat)
        if h._max is None or lat > h._max:
            h._max = float(lat)
        if not req.is_write:
            h = read_hist
            idx = lat // h.bin_width
            nb = h.nbins
            if idx >= nb:
                idx = nb - 1
                h._overflow += 1
            elif idx < 0:
                idx = 0
            h._counts[idx] += 1
            h._n = n = h._n + 1
            delta = lat - h._mean
            h._mean = mean = h._mean + delta / n
            h._m2 += delta * (lat - mean)
            if h._min is None or lat < h._min:
                h._min = float(lat)
            if h._max is None or lat > h._max:
                h._max = float(lat)
        if self.record_requests:
            self.completed_requests.append(req)
        cb = req.callback
        if cb is not None:
            cb(req)
        if self.recycle_requests:
            # MemoryRequest.release inlined (the classmethod remains the
            # reference for non-hot callers).
            req.callback = None
            req.meta = None
            MemoryRequest._pool.append(req)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def begin_warmup_reset(self) -> None:
        """Response half of the warmup reset, run ``crossbar_latency``
        cycles before :meth:`reset_statistics`.

        Responses reserve their link that far ahead of transmitting (see
        _respond_from_cube), so zeroing the response directions here counts
        exactly the responses that transmit from the boundary on.  The
        zeroed values are kept until :meth:`reset_statistics` commits them.
        """
        self._resp_saved = [link.response.take_statistics() for link in self.links]

    def abandon_warmup_reset(self) -> None:
        """Undo :meth:`begin_warmup_reset` when the run ended before the
        boundary.  No response was reserved in between: its delivery would
        still be pending at the boundary and keep the run alive until then."""
        if self._resp_saved is not None:
            for link, saved in zip(self.links, self._resp_saved):
                link.response.put_statistics(saved)
            self._resp_saved = None

    def reset_statistics(self) -> None:
        """Warmup boundary: zero latency histograms and link activity.  The
        sent/completed counters are preserved (outstanding tracking).

        After :meth:`begin_warmup_reset` the response directions keep what
        they counted since, and the device energy, which
        ``HMCDevice.reset_statistics`` zeroed just before, gets their flits
        back."""
        self.latency_hist.reset()
        self.read_latency_hist.reset()
        saved, self._resp_saved = self._resp_saved, None
        for link in self.links:
            if saved is None:
                link.reset_statistics()
            else:
                link.request.reset_statistics()
                self._energy.link_flits += link.response.flits_sent

    @property
    def outstanding(self) -> int:
        sent = self._c_reads.value + self._c_writes.value
        return sent - self._c_done.value

    def mean_memory_latency(self) -> float:
        """Mean round-trip latency of all completed requests (cycles)."""
        return self.latency_hist.mean

    def mean_read_latency(self) -> float:
        """Mean round-trip latency of completed reads (AMAT numerator)."""
        return self.read_latency_hist.mean

    @property
    def faults_enabled(self) -> bool:
        """True when any link direction carries a retry buffer."""
        return any(
            d.retry is not None
            for link in self.links
            for d in (link.request, link.response)
        )

    def link_fault_summary(self) -> dict:
        """Aggregated retry-buffer counters across all links.

        Empty dict when fault injection is not attached (the common case),
        so callers can splice it into reports without an enabled check.
        """
        per_link = {}
        totals: dict = {}
        for link in self.links:
            counters = link.fault_counters()
            if counters is None:
                continue
            per_link[f"link{link.link_id}"] = counters
            for key, value in counters.items():
                if key == "max_episode_replays":
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        if not per_link:
            return {}
        totals["per_link"] = per_link
        return totals

    def link_utilization(self) -> float:
        """Average request+response serialization utilization across links."""
        cycles = self.engine.now
        if not cycles:
            return 0.0
        dirs = [d for l in self.links for d in (l.request, l.response)]
        return sum(d.utilization(cycles) for d in dirs) / len(dirs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostController links={len(self.links)} outstanding={self.outstanding}>"
