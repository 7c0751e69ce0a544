"""The packet object flowing between Click elements.

Click elements operate on raw frame bytes (``StringMatcher`` scans
them, ``ToDevice`` transmits them) but frequently need parsed header
views.  :class:`ClickPacket` wraps the bytes with a lazily-parsed
header cache.
"""

from typing import Optional

from repro.packet import Ethernet, IPv4, TCP, UDP
from repro.packet.base import Header, PacketError


class ClickPacket:
    """Raw bytes with cached parsed views.

    Mutating :attr:`data` invalidates the cache automatically because the
    cache is keyed on the bytes object identity.
    """

    __slots__ = ("_data", "_parsed", "_parsed_for")

    def __init__(self, data: bytes = b""):
        self._data = bytes(data)
        self._parsed: Optional[Header] = None
        self._parsed_for: Optional[bytes] = None

    @classmethod
    def from_header(cls, header: Header) -> "ClickPacket":
        return cls(header.pack())

    @property
    def data(self) -> bytes:
        return self._data

    @data.setter
    def data(self, value: bytes) -> None:
        self._data = bytes(value)

    def __len__(self) -> int:
        return len(self._data)

    # -- parsed views ------------------------------------------------------

    def parsed(self) -> Optional[Header]:
        """The frame parsed as Ethernet, or None when unparseable."""
        if self._parsed_for is not self._data:
            try:
                self._parsed = Ethernet.unpack(self._data)
            except PacketError:
                self._parsed = None
            self._parsed_for = self._data
        return self._parsed

    def eth(self) -> Optional[Ethernet]:
        parsed = self.parsed()
        return parsed if isinstance(parsed, Ethernet) else None

    def ip(self) -> Optional[IPv4]:
        parsed = self.parsed()
        return parsed.find(IPv4) if parsed is not None else None

    def udp(self) -> Optional[UDP]:
        parsed = self.parsed()
        return parsed.find(UDP) if parsed is not None else None

    def tcp(self) -> Optional[TCP]:
        parsed = self.parsed()
        return parsed.find(TCP) if parsed is not None else None

    def replace_header(self, header: Header) -> None:
        """Re-serialize ``header`` into this packet's bytes."""
        self._data = header.pack()

    def clone(self) -> "ClickPacket":
        """Copy for Tee-style fan-out."""
        return ClickPacket(self._data)

    def __repr__(self) -> str:
        return "ClickPacket(%d bytes)" % len(self._data)
