"""Per-cube packet routing over inter-cube serial links.

Each cube carries a :class:`Router`: packets whose home cube is elsewhere
are relayed over an inter-cube :class:`FabricLink` toward their next hop,
paying the per-hop forwarding latency (SerDes re-serialization + switch
traversal), the link's serialization occupancy (so inter-cube links are a
real contention point), and per-flit hop energy.  Responses retrace the
request path back to the fabric's host attach point.

Inter-cube links reuse :class:`~repro.interconnect.link.SerialLink`
wholesale, including the fault/retry machinery: the same
:class:`~repro.faults.LinkFaultConfig` that drives ``--ber/--drop`` on the
host links is attached per fabric link, and because fault RNG streams are
keyed by ``(seed, link_id, direction)``, fabric links get their own id
namespace (:data:`FABRIC_LINK_ID_BASE` upward) so every hop draws an
independent error stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults import LinkFaultConfig
from repro.interconnect.link import LinkDirection, SerialLink
from repro.request import MemoryRequest
from repro.sim.engine import Engine

#: inter-cube link ids start here; host links use 0..links-1, and the fault
#: injector keys its RNG streams by link id, so the namespaces must not
#: collide or a fabric hop would replay the host link's error sequence
FABRIC_LINK_ID_BASE = 100


class FabricLink(SerialLink):
    """A full-duplex inter-cube link between cubes ``cube_a`` and ``cube_b``.

    The ``request`` direction carries ``a -> b`` traffic and ``response``
    carries ``b -> a`` - the directions are symmetric serialization servers,
    the names just reuse the base class's pair.
    """

    def __init__(
        self,
        link_id: int,
        cube_a: int,
        cube_b: int,
        bytes_per_cycle: float,
        serdes_latency: int,
        flit_bytes: int,
        faults: Optional[LinkFaultConfig] = None,
    ) -> None:
        super().__init__(link_id, bytes_per_cycle, serdes_latency, flit_bytes, faults)
        self.cube_a = cube_a
        self.cube_b = cube_b

    def direction_to(self, cube: int) -> LinkDirection:
        """The outgoing direction for traffic headed to endpoint ``cube``."""
        if cube == self.cube_b:
            return self.request
        if cube == self.cube_a:
            return self.response
        raise ValueError(f"cube {cube} is not an endpoint of {self!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FabricLink {self.link_id} q{self.cube_a}<->q{self.cube_b}>"


class Router:
    """One cube's packet switch.

    Local packets are injected into the cube's device; everything else is
    relayed one hop toward its destination.  Forwarding charges
    ``hop_latency`` before the outgoing link's serialization starts, so a
    relayed packet pays (hop latency + wire occupancy + SerDes flight) per
    hop - and contends with every other packet crossing that link.
    """

    __slots__ = (
        "cube_id",
        "engine",
        "device",
        "next_hop",
        "exit_cube",
        "hop_latency",
        "ports",
        "peers",
        "host_tx",
        "resp_lead",
        "_req_bytes",
        "_resp_bytes",
        "local_requests",
        "forwarded_requests",
        "forwarded_responses",
        "hop_flits",
    )

    def __init__(
        self,
        cube_id: int,
        engine: Engine,
        device,
        next_hop: List[int],
        hop_latency: int,
        req_bytes: Tuple[int, int],
        resp_bytes: Tuple[int, int],
        exit_cube: int = 0,
    ) -> None:
        self.cube_id = cube_id
        self.engine = engine
        self.device = device
        #: next_hop[dst] = neighbor toward dst (this cube's row of the table)
        self.next_hop = next_hop
        #: where responses leave the fabric (the host attach point)
        self.exit_cube = exit_cube
        self.hop_latency = hop_latency
        #: outgoing LinkDirection per neighbor cube
        self.ports: Dict[int, LinkDirection] = {}
        #: neighbor Router per neighbor cube
        self.peers: Dict[int, "Router"] = {}
        #: the host-side response transmitter, and how many cycles before a
        #: packet transmits it is called (the host's crossbar latency)
        self.host_tx = None
        self.resp_lead = 0
        self._req_bytes = req_bytes
        self._resp_bytes = resp_bytes
        self.local_requests = 0
        self.forwarded_requests = 0
        self.forwarded_responses = 0
        #: flits this router placed onto inter-cube links (replays included);
        #: the fabric energy model charges each at hop_energy_pj
        self.hop_flits = 0

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def receive_request(self, req: MemoryRequest) -> None:
        """A request packet materializes at this cube at ``engine.now``."""
        if req.cube == self.cube_id:
            self.local_requests += 1
            self.device.inject(req, self.engine.now)
            return
        nxt = self.next_hop[req.cube]
        arrival, flits = self.ports[nxt].send(
            self.engine.now + self.hop_latency, self._req_bytes[req.is_write]
        )
        self.forwarded_requests += 1
        self.hop_flits += flits
        self.engine.call_at(arrival, self.peers[nxt].receive_request, req)

    def receive_response(self, req: MemoryRequest) -> None:
        """A response packet materializes at this cube at ``engine.now``
        and is relayed one hop toward the exit cube.

        The hop into the exit cube lands straight in the host transmitter,
        ``resp_lead`` cycles before the packet arrives: the host reserves
        its response link that far ahead of transmitting (see
        HostController._respond_from_cube), and priority -2 puts the
        reservation where the exit cube's own responses reserve.  The order
        of host-link reservations is the arrival order as long as a hop
        takes at least ``resp_lead`` cycles (hop_latency + serdes_latency >=
        crossbar_latency, true for the defaults); a shorter hop reserves
        when it is forwarded."""
        engine = self.engine
        nxt = self.next_hop[self.exit_cube]
        arrival, flits = self.ports[nxt].send(
            engine.now + self.hop_latency, self._resp_bytes[req.is_write]
        )
        self.forwarded_responses += 1
        self.hop_flits += flits
        if nxt == self.exit_cube:
            t = arrival - self.resp_lead
            now = engine.now
            engine.call_at(t if t > now else now, self.host_tx, req, priority=-2)
        else:
            engine.call_at(arrival, self.peers[nxt].receive_response, req)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "local_requests": self.local_requests,
            "forwarded_requests": self.forwarded_requests,
            "forwarded_responses": self.forwarded_responses,
            "hop_flits": self.hop_flits,
        }

    def reset_statistics(self) -> None:
        self.local_requests = 0
        self.forwarded_requests = 0
        self.forwarded_responses = 0
        self.hop_flits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Router q{self.cube_id} fwd={self.forwarded_requests}"
            f"/{self.forwarded_responses}>"
        )
