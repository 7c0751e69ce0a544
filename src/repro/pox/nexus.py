"""The OpenFlow nexus: switch connections and event fan-out."""

from typing import Dict, Optional

from repro.openflow import (ControllerChannel, FeaturesReply,
                            FeaturesRequest, FlowMod, FlowRemoved,
                            FlowStatsReply, Hello, Match,
                            BarrierReply, PacketIn, PacketOut,
                            PortStatsReply, PortStatus)
from repro.packet import Ethernet
from repro.packet.base import PacketError
from repro.pox.core import Core
from repro.pox.events import (BarrierIn, ConnectionDown, ConnectionUp,
                              EventMixin, FlowRemovedEvent,
                              FlowStatsReceived, PacketInEvent,
                              PortStatsReceived, PortStatusEvent)


class Connection:
    """Controller-side view of one switch's control channel."""

    def __init__(self, nexus: "OpenFlowNexus", channel: ControllerChannel):
        self.nexus = nexus
        self.channel = channel
        self.dpid: Optional[int] = None
        self.ports = []  # PortDescription list from the FeaturesReply
        self.connected = False
        channel.set_controller_receiver(self._receive)

    def send(self, message) -> None:
        self.channel.send_to_controller  # attribute access keeps mypy honest
        self.channel.send_to_switch(message)

    def _receive(self, message) -> None:
        self.nexus._dispatch(self, message)

    def __repr__(self) -> str:
        return "Connection(dpid=%s, %s)" % (
            self.dpid, "up" if self.connected else "handshaking")


class OpenFlowNexus(EventMixin):
    """Accepts switch channels, performs the handshake, raises events.

    Components subscribe with ``add_listener(PacketInEvent, fn)`` or the
    ``add_listeners(self)`` naming convention.
    """

    def __init__(self, core: Core):
        super().__init__()
        self.core = core
        self.connections: Dict[int, Connection] = {}
        metrics = core.telemetry.metrics
        self._m_packet_in = metrics.counter(
            "pox.nexus.packet_in", "PacketIn messages received")
        self._m_messages = metrics.counter(
            "pox.nexus.messages", "control messages dispatched")

    # Network.add_controller calls this for each switch.
    def accept_connection(self, channel: ControllerChannel) -> Connection:
        return Connection(self, channel)

    def connection(self, dpid: int) -> Connection:
        connection = self.connections.get(dpid)
        if connection is None:
            raise KeyError("no connection for dpid %d" % dpid)
        return connection

    def send(self, dpid: int, message) -> None:
        self.connection(dpid).send(message)

    def disconnect(self, dpid: int) -> None:
        connection = self.connections.pop(dpid, None)
        if connection is not None:
            connection.connected = False
            connection.channel.disconnect()
            self.raise_event(ConnectionDown(connection))

    # -- message dispatch ---------------------------------------------------

    def _dispatch(self, connection: Connection, message) -> None:
        self._m_messages.inc()
        if isinstance(message, PacketIn):
            self._m_packet_in.inc()
        if isinstance(message, Hello):
            connection.send(Hello())
            connection.send(FeaturesRequest())
        elif isinstance(message, FeaturesReply):
            connection.dpid = message.dpid
            connection.ports = message.ports
            connection.connected = True
            self.connections[message.dpid] = connection
            self.raise_event(ConnectionUp(connection))
        elif isinstance(message, PacketIn):
            try:
                parsed = Ethernet.unpack(message.data)
            except PacketError:
                parsed = None
            self.raise_event(PacketInEvent(connection, message, parsed))
        elif isinstance(message, FlowRemoved):
            self.raise_event(FlowRemovedEvent(connection, message))
        elif isinstance(message, PortStatus):
            self.raise_event(PortStatusEvent(connection, message))
        elif isinstance(message, FlowStatsReply):
            self.raise_event(FlowStatsReceived(connection, message.stats))
        elif isinstance(message, PortStatsReply):
            self.raise_event(PortStatsReceived(connection, message.stats))
        elif isinstance(message, BarrierReply):
            self.raise_event(BarrierIn(connection, message))
        # EchoReply and unknown messages are ignored, like POX does.

    def __repr__(self) -> str:
        return "OpenFlowNexus(%d connections)" % len(self.connections)
