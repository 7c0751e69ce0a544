"""NETCONF transport over raw Ethernet frames (the in-band control
network).

Duck-type compatible with :class:`~repro.netconf.transport.
InMemoryTransport`: ``send`` / ``set_receiver`` / ``close`` / ``sim``.
Byte streams are chunked into frames of a locally-administered
EtherType on an emulated interface; links preserve ordering, so the
receive side simply concatenates — the RFC 6242 framers on top recover
message boundaries exactly as they do over TCP.  A data frame carries
at least one byte, so an empty one is the close signal: closing one end
closes the other one management-network hop later.
"""

from typing import Callable, Optional, Union

from repro.netem.interface import Interface
from repro.packet import EthAddr, Ethernet
from repro.packet.base import PacketError

ETHERTYPE_MGMT = 0x88B5  # IEEE 802 local experimental
MTU = 1400  # payload bytes per management frame


class EthTransport:
    """One endpoint of a management session riding an interface."""

    def __init__(self, intf: Interface, peer_mac: Union[str, EthAddr]):
        self.intf = intf
        self.sim = intf.node.sim
        self.peer_mac = EthAddr(peer_mac)
        self.closed = False
        self.receiver: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.tx_bytes = 0
        self.rx_bytes = 0
        # fault-injection hooks (repro.chaos), as on InMemoryTransport:
        # a blackholed endpoint silently eats writes; ``fault_latency``
        # holds each write back before it goes on the wire
        self.blackhole = False
        self.fault_latency = 0.0
        self.blackholed_bytes = 0
        intf.receive = self._receive_frame

    def set_receiver(self, callback: Callable[[bytes], None]) -> None:
        self.receiver = callback

    def send(self, data: bytes) -> None:
        if self.closed:
            return
        if self.blackhole:
            self.blackholed_bytes += len(data)
            return
        self.tx_bytes += len(data)
        if self.fault_latency:
            self.sim.schedule(self.fault_latency, self._transmit, data)
        else:
            self._transmit(data)

    def _transmit(self, data: bytes) -> None:
        for start in range(0, len(data), MTU):
            self._send_frame(data[start:start + MTU])

    def _send_frame(self, payload: bytes) -> None:
        self.intf.send(Ethernet(src=self.intf.mac, dst=self.peer_mac,
                                type=ETHERTYPE_MGMT,
                                payload=payload).pack())

    def _receive_frame(self, wire: bytes) -> None:
        if self.closed:
            return
        try:
            frame = Ethernet.unpack(wire)
        except PacketError:
            return
        if frame.type != ETHERTYPE_MGMT:
            return
        if frame.dst != self.intf.mac:
            return  # hub traffic for another agent
        if frame.src != self.peer_mac:
            return  # not our session peer
        payload = frame.raw_payload()
        if not payload:  # the peer closed the session
            self._shut()
            return
        self.rx_bytes += len(payload)
        if self.receiver is not None:
            self.receiver(payload)

    def hang_up(self) -> None:
        """Close without telling the peer, and forget the receiver."""
        self.closed = True
        self.receiver = self.on_close = None

    def close(self) -> None:
        if self.closed:
            return
        self._shut()
        self._send_frame(b"")

    def _shut(self) -> None:
        self.closed = True
        if self.on_close is not None:
            self.on_close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return "EthTransport(%s via %s, %s)" % (self.peer_mac,
                                                self.intf.name, state)
