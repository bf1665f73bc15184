"""Fabric-side host controller: N request streams onto 1-8 routed cubes.

:class:`FabricHost` generalizes :class:`~repro.hmc.host.HostController` to a
multi-cube fabric.  Every request is decoded once (cube + vault + bank + row
+ column, mirroring :class:`~repro.fabric.address.FabricAddressMapping`),
serialized onto a host serial link, and either injected straight into its
home cube (the link's far end under star fan-out, or cube 0 when the home
cube IS cube 0 under chain/ring) or handed to the entry cube's
:class:`~repro.fabric.router.Router` for hop-by-hop forwarding.  Responses
retrace the path and land in the same latency histograms the single-cube
host feeds.

**Single-cube parity contract.**  With one cube every topology degenerates
to exactly the single-cube controller: vault-interleaved link selection,
direct crossbar injection, identical event shape (one engine event per
request leg) and identical arithmetic - the fabric path calls the reference
``LinkDirection.send`` / ``HMCDevice.inject`` / ``Histogram.add`` methods,
which the single-cube hot path's inlined copies are documented to be
bit-identical to.  ``tests/test_fabric_system.py`` pins a one-cube
``FabricSystem`` against ``System`` field for field, including the event
count.
"""

from __future__ import annotations

from typing import Callable, List

from repro.fabric.address import FabricAddressMapping
from repro.fabric.router import FABRIC_LINK_ID_BASE, FabricLink, Router
from repro.fabric.topology import FabricConfig, Topology
from repro.hmc.device import HMCDevice
from repro.interconnect.link import SerialLink
from repro.interconnect.packet import PacketKind, packet_bytes
from repro.obs.hooks import noop
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.sim.stats import StatGroup


class FabricHost:
    """The processor-side endpoint of a routed multi-cube fabric."""

    def __init__(
        self,
        fabric: FabricConfig,
        engine: Engine,
        devices: List[HMCDevice],
        topology: Topology,
        record_requests: bool = False,
    ) -> None:
        if len(devices) != fabric.cubes:
            raise ValueError(
                f"fabric declares {fabric.cubes} cubes but got {len(devices)} devices"
            )
        cfg = fabric.hmc
        self.fabric = fabric
        self.config = cfg
        self.engine = engine
        self.devices = devices
        self.topology = topology
        self.record_requests = record_requests
        self.completed_requests = []  # populated only when recording
        self.mapping = FabricAddressMapping(cfg, fabric.cubes)
        bpc = cfg.link_bytes_per_cycle
        self.links: List[SerialLink] = [
            SerialLink(i, bpc, cfg.serdes_latency, cfg.flit_bytes, cfg.faults)
            for i in range(cfg.links)
        ]
        self._tracer = None
        self._emit_link_tx = noop
        #: see HostController.recycle_requests; FabricSystem enables this
        #: under the same single-ownership proof
        self.recycle_requests = False
        #: response-link counters saved (and zeroed) by begin_warmup_reset,
        #: and the response flits charged per cube since, awaiting the
        #: warmup boundary
        self._resp_saved = None
        self._resp_flits = None
        line = cfg.line_bytes
        hdr = cfg.request_header_bytes
        self._req_bytes = (
            packet_bytes(PacketKind.READ_REQUEST, line, hdr),
            packet_bytes(PacketKind.WRITE_REQUEST, line, hdr),
        )
        self._resp_bytes = (
            packet_bytes(PacketKind.READ_RESPONSE, line, hdr),
            packet_bytes(PacketKind.WRITE_RESPONSE, line, hdr),
        )
        # Decode constants mirrored out of the fabric mapping (send() runs
        # the shift/mask arithmetic inline, same shape as HostController).
        m = self.mapping
        self._q_shift, self._q_mask, self._q_cubes = m.cube_shift, m.cube_mask, m.cubes
        self._v_shift, self._v_mask = m.vault_shift, m.vault_mask
        self._b_shift, self._b_mask = m.bank_shift, m.bank_mask
        self._c_shift, self._c_mask = m.column_shift, m.column_mask
        self._r_shift = m.row_shift
        self._nlinks = len(self.links)
        self._resp_xbar = cfg.crossbar_latency
        #: star fan-out selects links by cube; every other shape (and any
        #: one-cube fabric) keeps the vault-interleaved assignment so a
        #: degenerate fabric is link-for-link identical to HostController
        self._link_by_cube = fabric.topology == "star" and fabric.cubes > 1
        self._energy = [dev.energy for dev in devices]
        self._entry = [topology.entry_cube(c) for c in range(fabric.cubes)]
        self._host_hops = topology.host_hops

        # ---- inter-cube plumbing -------------------------------------
        self.fabric_links: List[FabricLink] = [
            FabricLink(
                FABRIC_LINK_ID_BASE + k,
                a,
                b,
                bpc,
                cfg.serdes_latency,
                cfg.flit_bytes,
                cfg.faults,
            )
            for k, (a, b) in enumerate(topology.edges)
        ]
        self.routers: List[Router] = [
            Router(
                c,
                engine,
                devices[c],
                topology.next_hop[c],
                fabric.hop_latency,
                self._req_bytes,
                self._resp_bytes,
                exit_cube=0,
            )
            for c in range(fabric.cubes)
        ]
        for link in self.fabric_links:
            a, b = link.cube_a, link.cube_b
            self.routers[a].ports[b] = link.direction_to(b)
            self.routers[a].peers[b] = self.routers[b]
            self.routers[b].ports[a] = link.direction_to(a)
            self.routers[b].peers[a] = self.routers[a]
        for router in self.routers:
            router.host_tx = self._tx_response
            router.resp_lead = self._resp_xbar
        for c, dev in enumerate(devices):
            dev.set_deliver_fn(self._make_responder(c))

        self.stats = StatGroup("host")
        self._c_reads = self.stats.counter("reads_sent")
        self._c_writes = self.stats.counter("writes_sent")
        self._c_done = self.stats.counter("completions")
        self.latency_hist = self.stats.histogram("mem_latency", nbins=64, bin_width=32)
        self.read_latency_hist = self.stats.histogram(
            "read_latency", nbins=64, bin_width=32
        )
        #: link traversals per request (host link + inter-cube forwards);
        #: 16 one-cycle bins cover the deepest 8-cube chain (9 hops)
        self.hop_hist = self.stats.histogram("host_hops", nbins=16, bin_width=1)

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
        """End of life: unlink the routers, which point at each other and
        at the host (see HostController.release)."""
        for router in self.routers:
            router.peers.clear()
            router.host_tx = None

    # ------------------------------------------------------------------
    # Request path (core -> fabric)
    # ------------------------------------------------------------------
    def send(self, req: MemoryRequest) -> None:
        """Decode, packetize and transmit one request at ``engine.now``."""
        engine = self.engine
        now = engine.now
        req.host_cycle = now
        addr = req.addr
        req.cube = cube = ((addr >> self._q_shift) & self._q_mask) % self._q_cubes
        req.vault = vault = (addr >> self._v_shift) & self._v_mask
        req.bank = (addr >> self._b_shift) & self._b_mask
        req.row = addr >> self._r_shift
        req.column = (addr >> self._c_shift) & self._c_mask
        is_write = req.is_write
        nbytes = self._req_bytes[is_write]
        if self._link_by_cube:
            link = self.links[cube % self._nlinks]
        else:
            link = self.links[vault % self._nlinks]
        arrival, flits = link.request.send(now, nbytes)
        emit = self._emit_link_tx
        if emit is not noop:
            emit(link.link_id, "req", nbytes, now, arrival)
        entry = self._entry[cube]
        self._energy[entry].link_flits += flits
        self.hop_hist.add(self._host_hops[cube])
        if is_write:
            self._c_writes.value += 1
        else:
            self._c_reads.value += 1
        if cube == entry:
            # The far end of the host link is the home cube: inject straight
            # into its crossbar (identical event shape to the one-cube host).
            self.devices[cube].inject(req, arrival)
        else:
            engine.call_at(arrival, self.routers[entry].receive_request, req)

    # ------------------------------------------------------------------
    # Response path (fabric -> core)
    # ------------------------------------------------------------------
    def _make_responder(self, cube: int) -> Callable[[MemoryRequest, int], None]:
        """Build cube ``cube``'s deliver fn.

        A cube that is its own fabric exit reserves the host link
        ``crossbar_latency`` cycles before transmitting, at ``ready``, with
        the same lead as HostController._respond_from_cube.  Any other cube
        charges the response crossbar and hands the packet to its router,
        which schedules the last hop with the same lead (Router.receive_response).
        """
        engine = self.engine
        if self._entry[cube] != cube:
            resp_xbar = self._resp_xbar
            target = self.routers[cube].receive_response

            def respond(req: MemoryRequest, ready: int) -> None:
                now = engine.now
                t = ready + resp_xbar
                engine.call_at(t if t > now else now, target, req)

            return respond
        tx_response = self._tx_response

        def respond(req: MemoryRequest, ready: int) -> None:
            if ready <= engine.now:
                tx_response(req)
            else:
                engine.call_at(ready, tx_response, req, priority=-2)

        return respond

    def _tx_response(self, req: MemoryRequest) -> None:
        """Reserve the host response link for the packet that leaves at
        ``engine.now + crossbar_latency``."""
        engine = self.engine
        tx = engine.now + self._resp_xbar
        nbytes = self._resp_bytes[req.is_write]
        if self._link_by_cube:
            link = self.links[req.cube % self._nlinks]
        else:
            link = self.links[req.vault % self._nlinks]
        d = link.response
        arrival, flits = d.send(tx, nbytes)
        emit = self._emit_link_tx
        if emit is not noop:
            emit(link.link_id, "resp", nbytes, tx, arrival)
        entry = self._entry[req.cube]
        self._energy[entry].link_flits += flits
        resp_flits = self._resp_flits
        if resp_flits is not None:
            resp_flits[entry] += flits
        engine.call_at(arrival, self._deliver, req)

    def _deliver(self, req: MemoryRequest) -> None:
        now = self.engine.now
        req.complete_cycle = now
        self._c_done.value += 1
        lat = now - req.issue_cycle
        self.latency_hist.add(lat)
        if not req.is_write:
            self.read_latency_hist.add(lat)
        if self.record_requests:
            self.completed_requests.append(req)
        cb = req.callback
        if cb is not None:
            cb(req)
        if self.recycle_requests:
            req.callback = None
            req.meta = None
            MemoryRequest._pool.append(req)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def begin_warmup_reset(self) -> None:
        """Response half of the warmup reset, run ``crossbar_latency``
        cycles before :meth:`reset_statistics`; see
        HostController.begin_warmup_reset.  Host-link response flits
        reserved from here on are also tallied per charged cube."""
        self._resp_saved = [link.response.take_statistics() for link in self.links]
        self._resp_flits = [0] * len(self.devices)

    def abandon_warmup_reset(self) -> None:
        """Undo :meth:`begin_warmup_reset` when the run ended before the
        boundary (see HostController.abandon_warmup_reset)."""
        if self._resp_saved is not None:
            for link, saved in zip(self.links, self._resp_saved):
                link.response.put_statistics(saved)
            self._resp_saved = self._resp_flits = None

    def reset_statistics(self) -> None:
        """Warmup boundary: zero latency/hop histograms, link activity
        (traffic + retry counters, see SerialLink.reset_statistics) and
        router forwarding counters.  After :meth:`begin_warmup_reset` the
        host response directions keep what they counted since, and each
        cube's energy gets those flits back."""
        self.latency_hist.reset()
        self.read_latency_hist.reset()
        self.hop_hist.reset()
        saved, self._resp_saved = self._resp_saved, None
        for link in self.links:
            if saved is None:
                link.reset_statistics()
            else:
                link.request.reset_statistics()
        if saved is not None:
            for energy, flits in zip(self._energy, self._resp_flits):
                energy.link_flits += flits
            self._resp_flits = None
        for link in self.fabric_links:
            link.reset_statistics()
        for router in self.routers:
            router.reset_statistics()

    @property
    def outstanding(self) -> int:
        sent = self._c_reads.value + self._c_writes.value
        return sent - self._c_done.value

    def mean_memory_latency(self) -> float:
        return self.latency_hist.mean

    def mean_read_latency(self) -> float:
        return self.read_latency_hist.mean

    def mean_hops(self) -> float:
        """Mean link traversals per request (1.0 in a one-cube fabric)."""
        return self.hop_hist.mean

    def hop_histogram(self) -> dict:
        """``{hops: requests}`` over the populated bins."""
        return {
            h: int(n)
            for h, n in enumerate(self.hop_hist.counts.tolist())
            if n
        }

    @property
    def faults_enabled(self) -> bool:
        """True when any host or fabric link direction carries a retry buffer."""
        return any(
            d.retry is not None
            for link in (*self.links, *self.fabric_links)
            for d in (link.request, link.response)
        )

    def link_fault_summary(self) -> dict:
        """Aggregated retry-buffer counters across host AND fabric links
        (same shape as HostController.link_fault_summary; fabric links
        appear as ``link100`` upward)."""
        per_link = {}
        totals: dict = {}
        for link in (*self.links, *self.fabric_links):
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
        """Average serialization utilization across the HOST links (the
        single-cube-comparable metric; fabric links report separately)."""
        cycles = self.engine.now
        if not cycles:
            return 0.0
        dirs = [d for l in self.links for d in (l.request, l.response)]
        return sum(d.utilization(cycles) for d in dirs) / len(dirs)

    def fabric_link_utilization(self) -> float:
        """Average serialization utilization across inter-cube links
        (0.0 when the topology has none)."""
        cycles = self.engine.now
        dirs = [d for l in self.fabric_links for d in (l.request, l.response)]
        if not cycles or not dirs:
            return 0.0
        return sum(d.utilization(cycles) for d in dirs) / len(dirs)

    def hop_flits(self) -> int:
        """Total flits carried by inter-cube links (pass-through included)."""
        return sum(r.hop_flits for r in self.routers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FabricHost {self.fabric.spec} links={len(self.links)}"
            f"+{len(self.fabric_links)} outstanding={self.outstanding}>"
        )
