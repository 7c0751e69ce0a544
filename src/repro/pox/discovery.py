"""LLDP topology discovery (POX's ``openflow.discovery``), on demand.

:meth:`Discovery.discover` sends one LLDP probe out of each switch port
it is given and waits until every probe has come back as a PacketIn at
the far switch, or :data:`Discovery.ROUND_TIMEOUT` has passed.  The
adjacency is rebuilt from that round alone: a probe that does not come
back is a missing link.  Nothing is sent between rounds, and the caller
passes only switch-to-switch ports, so no probe reaches a host or a VNF.
"""

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.openflow import Output, PacketOut
from repro.packet import Ethernet, LLDP
from repro.pox.events import PacketInEvent
from repro.pox.nexus import OpenFlowNexus

LLDP_DST = "01:80:c2:00:00:0e"


class Discovery:
    """Holds ``adjacency``: (dpid1, port1) -> (dpid2, port2), as the
    last round found it."""

    ROUND_TIMEOUT = 1.0  # simulated seconds a round waits for its probes

    def __init__(self, nexus: OpenFlowNexus):
        self.nexus = nexus
        self.sim = nexus.core.sim
        self.adjacency: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.probes_sent = 0
        self._outstanding: Set[Tuple[int, int]] = set()
        nexus.add_listener(PacketInEvent, self._handle_packet_in)

    def discover(self, ports: Iterable[Tuple[int, int]]
                 ) -> Set[Tuple[int, int, int, int]]:
        """One probe round out of ``ports`` (``(dpid, port_no)``
        pairs); returns :meth:`links` as that round found them."""
        self.adjacency = {}
        self._probe_round(ports)
        self.sim.wait(lambda: not self._outstanding, self.ROUND_TIMEOUT)
        self._outstanding.clear()  # a probe still out is a missing link
        return self.links()

    def _probe_round(self, ports: Iterable[Tuple[int, int]]) -> None:
        wanted = set(ports)
        for dpid, connection in list(self.nexus.connections.items()):
            for desc in connection.ports:
                if (dpid, desc.port_no) not in wanted:
                    continue
                frame = Ethernet(
                    src=desc.hw_addr, dst=LLDP_DST,
                    type=Ethernet.LLDP_TYPE,
                    payload=LLDP.discovery_frame(dpid, desc.port_no))
                connection.send(PacketOut(actions=[Output(desc.port_no)],
                                          data=frame.pack()))
                self._outstanding.add((dpid, desc.port_no))
                self.probes_sent += 1

    def _handle_packet_in(self, event: PacketInEvent) -> None:
        frame = event.parsed
        if frame is None or frame.type != Ethernet.LLDP_TYPE:
            return
        lldp = frame.find(LLDP)
        origin = lldp.discovery_origin() if lldp is not None else None
        if origin is None:
            return
        event.halt = True  # LLDP is consumed here, like POX's discovery
        if origin in self._outstanding:  # a late probe belongs to no round
            self._outstanding.discard(origin)
            self.adjacency[origin] = (event.dpid, event.port)

    # -- queries -----------------------------------------------------------

    def links(self) -> Set[Tuple[int, int, int, int]]:
        """Canonical (dpid1, port1, dpid2, port2) tuples, deduplicated
        across directions."""
        seen = set()
        for (dpid1, port1), (dpid2, port2) in self.adjacency.items():
            if (dpid2, port2, dpid1, port1) not in seen:
                seen.add((dpid1, port1, dpid2, port2))
        return seen

    def peer_of(self, dpid: int, port: int) -> Optional[Tuple[int, int]]:
        return self.adjacency.get((dpid, port))

    def __repr__(self) -> str:
        return "Discovery(%d adjacencies, %d probes)" % (
            len(self.adjacency), self.probes_sent)
