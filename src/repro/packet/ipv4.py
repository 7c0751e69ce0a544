"""IPv4 header (RFC 791), no options support."""

import struct
from typing import Optional, Union

from repro.packet.addresses import IPAddr
from repro.packet.base import Header, PacketError, checksum


class IPv4(Header):
    """IPv4 header.  The total length and checksum fields are computed at
    pack time; a parsed header keeps the values from the wire."""

    MIN_LEN = 20

    ICMP_PROTOCOL = 1
    TCP_PROTOCOL = 6
    UDP_PROTOCOL = 17

    def __init__(self, srcip: Union[str, int, IPAddr] = "0.0.0.0",
                 dstip: Union[str, int, IPAddr] = "0.0.0.0",
                 protocol: int = 0, ttl: int = 64, tos: int = 0,
                 id: int = 0, flags: int = 0, frag: int = 0,
                 payload=None):
        self.srcip = IPAddr(srcip)
        self.dstip = IPAddr(dstip)
        self.protocol = protocol
        self.ttl = ttl
        self.tos = tos
        self.id = id
        self.flags = flags
        self.frag = frag
        self.payload = payload
        self.csum = 0  # filled in by pack / kept from the wire by unpack

    def pack_header(self, payload_len: Optional[int] = None) -> bytes:
        if payload_len is None:
            payload_len = len(self.pack_payload())
        flags_frag = (self.flags & 7) << 13 | (self.frag & 0x1FFF)
        head = struct.pack("!BBHHHBBH", (4 << 4) | 5, self.tos,
                           self.MIN_LEN + payload_len, self.id, flags_frag,
                           self.ttl, self.protocol, 0)
        head += self.srcip.raw + self.dstip.raw
        self.csum = checksum(head)
        return head[:10] + struct.pack("!H", self.csum) + head[12:]

    def pack(self) -> bytes:
        # the length field needs the serialized payload: pack it once
        payload = self.pack_payload()
        return self.pack_header(len(payload)) + payload

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4":
        if len(data) < cls.MIN_LEN:
            raise PacketError("IPv4 too short: %d bytes" % len(data))
        (ver_ihl, tos, total_len, ident, flags_frag,
         ttl, protocol, csum) = struct.unpack("!BBHHHBBH", data[:12])
        version = ver_ihl >> 4
        ihl = ver_ihl & 0xF
        if version != 4:
            raise PacketError("not IPv4 (version=%d)" % version)
        if ihl < 5:
            raise PacketError("bad IHL %d" % ihl)
        header_len = ihl * 4
        if len(data) < header_len or len(data) < total_len:
            raise PacketError("IPv4 truncated (%d < %d)"
                              % (len(data), max(header_len, total_len)))
        if checksum(data[:header_len]) != 0:
            raise PacketError("IPv4 header checksum mismatch")
        pkt = cls(srcip=IPAddr(data[12:16]), dstip=IPAddr(data[16:20]),
                  protocol=protocol, ttl=ttl, tos=tos, id=ident,
                  flags=flags_frag >> 13, frag=flags_frag & 0x1FFF)
        pkt.csum = csum
        pkt.payload = _parse_protocol(pkt, data[header_len:total_len])
        return pkt

    def decremented(self) -> "IPv4":
        """A copy with TTL decremented (router forwarding helper)."""
        if self.ttl <= 0:
            raise PacketError("TTL already zero")
        clone = IPv4(srcip=self.srcip, dstip=self.dstip,
                     protocol=self.protocol, ttl=self.ttl - 1, tos=self.tos,
                     id=self.id, flags=self.flags, frag=self.frag,
                     payload=self.payload)
        return clone

    def __repr__(self) -> str:
        return "IPv4(%s > %s, proto=%d, ttl=%d)" % (self.srcip, self.dstip,
                                                    self.protocol, self.ttl)


def _parse_protocol(ip: "IPv4", data: bytes):
    from repro.packet.icmp import ICMP
    from repro.packet.tcp import TCP
    from repro.packet.udp import UDP

    parsers = {
        IPv4.ICMP_PROTOCOL: ICMP.unpack,
        IPv4.TCP_PROTOCOL: TCP.unpack,
        IPv4.UDP_PROTOCOL: UDP.unpack,
    }
    parser = parsers.get(ip.protocol)
    if parser is None:
        return data
    try:
        return parser(data)
    except PacketError:
        return data
