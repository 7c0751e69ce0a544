"""LLDP topology discovery (POX's ``openflow.discovery``).

Periodically floods LLDP probes out every switch port; probes arriving
at another switch produce adjacency entries, which together form the
switch-level topology graph the orchestrator's resource view consumes.
"""

from typing import Dict, Optional, Set, Tuple

from repro.openflow import Output, PacketOut
from repro.packet import Ethernet, LLDP
from repro.pox.events import (ConnectionUp, Event, EventMixin,
                              PacketInEvent)
from repro.pox.nexus import OpenFlowNexus

LLDP_DST = "01:80:c2:00:00:0e"


class LinkEvent(Event):
    """An inter-switch link was discovered or timed out."""

    def __init__(self, added: bool, dpid1: int, port1: int,
                 dpid2: int, port2: int):
        super().__init__()
        self.added = added
        self.dpid1 = dpid1
        self.port1 = port1
        self.dpid2 = dpid2
        self.port2 = port2

    def __repr__(self) -> str:
        sign = "+" if self.added else "-"
        return "LinkEvent(%s %d.%d <-> %d.%d)" % (sign, self.dpid1,
                                                  self.port1, self.dpid2,
                                                  self.port2)


class Discovery(EventMixin):
    """Maintains ``adjacency``: (dpid1, port1) -> (dpid2, port2)."""

    def __init__(self, nexus: OpenFlowNexus, send_interval: float = 1.0,
                 link_timeout: float = 6.0):
        super().__init__()
        self.nexus = nexus
        self.sim = nexus.core.sim
        self.send_interval = send_interval
        self.link_timeout = link_timeout
        self.adjacency: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._last_seen: Dict[Tuple[int, int], float] = {}
        self.probes_sent = 0
        self._started = False
        self._task = None
        nexus.add_listener(ConnectionUp, self._handle_connection_up)
        nexus.add_listener(PacketInEvent, self._handle_packet_in)

    def _handle_connection_up(self, event: ConnectionUp) -> None:
        if not self._started:
            self._started = True
            self._task = self.sim.schedule(0.0, self._probe_round)

    def stop(self) -> None:
        """Cancel the LLDP heartbeat (the next ConnectionUp restarts
        it), as :meth:`StatsCollector.stop` does for the stats poll."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self._started = False

    def _probe_round(self) -> None:
        for dpid, connection in list(self.nexus.connections.items()):
            for desc in connection.ports:
                frame = Ethernet(
                    src=desc.hw_addr, dst=LLDP_DST,
                    type=Ethernet.LLDP_TYPE,
                    payload=LLDP.discovery_frame(dpid, desc.port_no))
                connection.send(PacketOut(actions=[Output(desc.port_no)],
                                          data=frame.pack()))
                self.probes_sent += 1
        self._expire_links()
        self._task = self.sim.schedule(self.send_interval,
                                       self._probe_round)

    def _expire_links(self) -> None:
        now = self.sim.now
        for key, seen in list(self._last_seen.items()):
            if now - seen > self.link_timeout:
                peer = self.adjacency.pop(key, None)
                del self._last_seen[key]
                if peer is not None:
                    self.raise_event(LinkEvent(False, key[0], key[1],
                                               peer[0], peer[1]))

    def _handle_packet_in(self, event: PacketInEvent) -> None:
        frame = event.parsed
        if frame is None or frame.type != Ethernet.LLDP_TYPE:
            return
        lldp = frame.find(LLDP)
        origin = lldp.discovery_origin() if lldp is not None else None
        if origin is None:
            return
        event.halt = True  # LLDP is consumed here, like POX's discovery
        src_dpid, src_port = origin
        key = (src_dpid, src_port)
        value = (event.dpid, event.port)
        self._last_seen[key] = self.sim.now
        if self.adjacency.get(key) != value:
            self.adjacency[key] = value
            self.raise_event(LinkEvent(True, src_dpid, src_port,
                                       event.dpid, event.port))

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
