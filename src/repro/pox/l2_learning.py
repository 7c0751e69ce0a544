"""The stock L2 learning switch component (POX's ``l2_learning``).

Non-steered traffic in ESCAPE falls back to plain learning-switch
behaviour; the steering module installs its entries at a higher
priority, so chains win where they apply.
"""

from typing import Dict, Tuple

from repro.openflow import FlowMod, Match, Output, PacketOut, OFPP_FLOOD
from repro.packet import Ethernet
from repro.pox.events import ConnectionUp, PacketInEvent
from repro.pox.nexus import OpenFlowNexus

LEARNING_PRIORITY = 0x1000  # below steering entries
IDLE_TIMEOUT = 10.0   # seconds a learned forward may sit unused
HARD_TIMEOUT = 30.0   # seconds a learned forward lives at most


class L2LearningSwitch:
    """Learn source MACs per switch; install exact dl_dst forwards."""

    def __init__(self, nexus: OpenFlowNexus):
        self.nexus = nexus
        # (dpid, mac string) -> port
        self.mac_table: Dict[Tuple[int, str], int] = {}
        self.flows_installed = 0
        self.floods = 0
        nexus.add_listener(PacketInEvent, self._handle_packet_in)
        nexus.add_listener(ConnectionUp, self._handle_connection_up)

    def _handle_connection_up(self, event: ConnectionUp) -> None:
        # nothing to pre-install; the table-miss default (PacketIn) is
        # the OF 1.0 behaviour already.
        pass

    def _handle_packet_in(self, event: PacketInEvent) -> None:
        frame = event.parsed
        if frame is None:
            return
        if frame.type == Ethernet.LLDP_TYPE:
            return  # discovery's business
        self.mac_table[(event.dpid, str(frame.src))] = event.port
        out_port = self.mac_table.get((event.dpid, str(frame.dst)))
        if out_port is None or frame.dst.is_multicast \
                or frame.dst.is_broadcast:
            self.floods += 1
            event.connection.send(PacketOut(
                actions=[Output(OFPP_FLOOD)],
                buffer_id=event.ofp.buffer_id,
                data=None if event.ofp.buffer_id is not None else event.data,
                in_port=event.port))
            return
        self.flows_installed += 1
        event.connection.send(FlowMod(
            Match(dl_dst=frame.dst), [Output(out_port)],
            priority=LEARNING_PRIORITY,
            idle_timeout=IDLE_TIMEOUT, hard_timeout=HARD_TIMEOUT,
            buffer_id=event.ofp.buffer_id))
        if event.ofp.buffer_id is None:
            event.connection.send(PacketOut(
                actions=[Output(out_port)], data=event.data,
                in_port=event.port))

    def __repr__(self) -> str:
        return "L2LearningSwitch(%d MACs, %d flows, %d floods)" % (
            len(self.mac_table), self.flows_installed, self.floods)
