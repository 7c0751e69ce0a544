"""Network interfaces (the veth endpoints of the emulation)."""

import functools
from typing import Optional

from repro.packet import EthAddr, IPAddr


class Interface:
    """One attachment point of a node.

    A frame crosses an interface without a call of its own: attaching a
    link rebinds :meth:`send` to that link's transmit, and the owning
    node rebinds :meth:`receive` to its handler.  As defined here they
    are what a loose end does - count a named drop.  The rx/tx counters
    are written by the link, and ``Link.delivered`` is derived from them.
    """

    def __init__(self, name: str, node, mac: EthAddr,
                 ip: Optional[IPAddr] = None, prefix_len: int = 8):
        self.name = name
        self.node = node
        self.mac = EthAddr(mac)
        self.ip = IPAddr(ip) if ip is not None else None
        self.prefix_len = prefix_len
        self.link = None
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.rx_dropped = 0
        self.tx_dropped = 0

    def attach(self, link) -> None:
        """Called by ``link`` when it takes this interface as an end."""
        self.link = link
        self.send = functools.partial(link.transmit, self)
        if self.node is not None:
            self.node.link_attached(self)

    def unbind(self) -> None:
        """Drop what building the network bound here (the link, the
        node and their per-hop callables): a stopped network is freed
        by reference counting.  The counters stay readable."""
        self.__dict__.pop("send", None)
        self.__dict__.pop("receive", None)
        self.node = self.link = None

    def send(self, data: bytes) -> None:
        """Transmit a frame: onto the link once one is attached."""
        self.tx_dropped += 1

    def receive(self, data: bytes) -> None:
        """A frame arrived from the link: for the node's handler once
        one is bound."""
        self.rx_dropped += 1

    @property
    def connected(self) -> bool:
        return self.link is not None

    def __repr__(self) -> str:
        ip_text = "%s/%d" % (self.ip, self.prefix_len) if self.ip else "-"
        return "Interface(%s, %s, %s)" % (self.name, self.mac, ip_text)
