"""UDP header (RFC 768).

The checksum is computed without the IPv4 pseudo-header: packets here
never cross a real kernel, and omitting it keeps headers self-contained
(packing does not need to know the enclosing IP addresses).  Parsers
accept any checksum value for the same reason.
"""

import struct
from typing import Optional

from repro.packet.base import Header, PacketError, checksum

# One plain datagram on the wire: Ethernet II, IPv4 without options
# (ttl 64, nothing else set), UDP - and the fields a receiver checks.
_FRAME = struct.Struct("!6s6sHBBHHHBBHIIHHHH")
_CHECKED = struct.Struct("!6s6xHBxH5xB2xIIHHH2x")


class UDP(Header):
    MIN_LEN = 8

    def __init__(self, srcport: int = 0, dstport: int = 0, payload=None):
        for port in (srcport, dstport):
            if not 0 <= port <= 0xFFFF:
                raise ValueError("UDP port out of range: %d" % port)
        self.srcport = srcport
        self.dstport = dstport
        self.payload = payload
        self.csum = 0

    def pack(self) -> bytes:
        payload = self.pack_payload()
        length = self.MIN_LEN + len(payload)
        head = struct.pack("!HHHH", self.srcport, self.dstport, length, 0)
        self.csum = checksum(head + payload)
        return head[:6] + struct.pack("!H", self.csum) + payload

    def pack_header(self) -> bytes:
        return self.pack()[: self.MIN_LEN]

    @classmethod
    def unpack(cls, data: bytes) -> "UDP":
        if len(data) < cls.MIN_LEN:
            raise PacketError("UDP too short: %d bytes" % len(data))
        srcport, dstport, length, csum = struct.unpack("!HHHH", data[:8])
        if length < cls.MIN_LEN or length > len(data):
            raise PacketError("bad UDP length %d (have %d bytes)"
                              % (length, len(data)))
        datagram = cls(srcport=srcport, dstport=dstport,
                       payload=data[8:length])
        datagram.csum = csum
        return datagram

    def __repr__(self) -> str:
        return "UDP(%d > %d, %d bytes)" % (self.srcport, self.dstport,
                                           len(self.raw_payload()))


def pack_udp_frame(dl_dst: bytes, dl_src: bytes, srcip: int, dstip: int,
                   srcport: int, dstport: int, payload: bytes) -> bytes:
    """``Ethernet(IPv4(UDP(payload))).pack()`` in one ``struct`` pack:
    both checksums come from their word sums (see :func:`checksum`).
    The header classes remain the reference this is tested against."""
    if not (0 <= srcport <= 0xFFFF and 0 <= dstport <= 0xFFFF):
        raise ValueError("UDP port out of range: %d" % (
            dstport if 0 <= srcport <= 0xFFFF else srcport))
    size = len(payload)
    ip_sum = (0x4500 + 28 + size + 0x4011 + (srcip >> 16) + (srcip & 0xFFFF)
              + (dstip >> 16) + (dstip & 0xFFFF))
    udp_sum = (srcport + dstport + 8 + size
               + (int.from_bytes(payload, "big") << 8 * (size & 1)))
    return _FRAME.pack(dl_dst, dl_src, 0x0800, 0x45, 0, 28 + size, 0, 0, 64,
                       17, -ip_sum % 0xFFFF, srcip, dstip, srcport, dstport,
                       8 + size, -udp_sum % 0xFFFF) + payload


def unpack_udp_frame(data: bytes, mac: bytes, ip: int) -> Optional[tuple]:
    """``(srcip, srcport, dstport, payload)`` of an untagged, option-free
    IPv4/UDP frame addressed to unicast ``mac`` and ``ip``, checked as
    the header classes check it (lengths, IPv4 header checksum), in one
    ``struct`` pass; ``None`` for every other frame, which says nothing
    about it - the header classes decide those."""
    if len(data) < _CHECKED.size:
        return None
    (dl_dst, dl_type, ver_ihl, total_len, proto, srcip, dstip, srcport,
     dstport, length) = _CHECKED.unpack_from(data)
    if (dl_dst != mac or dl_type != 0x0800 or ver_ihl != 0x45
            or proto != 17 or dstip != ip or 14 + total_len > len(data)
            or not 8 <= length <= total_len - 20
            or checksum(data[14:34])):
        return None
    return srcip, srcport, dstport, data[42:34 + length]
