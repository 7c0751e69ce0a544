"""OpenFlow 1.0 12-tuple match with per-field wildcards."""

import struct
from typing import Optional, Union

from repro.packet import EthAddr, Ethernet, IPAddr
from repro.packet.base import PacketError, checksum

# Fields of the OF 1.0 match, in spec order.
MATCH_FIELDS = ("in_port", "dl_src", "dl_dst", "dl_vlan", "dl_type",
                "nw_tos", "nw_proto", "nw_src", "nw_dst",
                "tp_src", "tp_dst")

NO_VLAN = 0xFFFF  # OFP_VLAN_NONE

_ETHERNET = struct.Struct("!6s6sH")
_VLAN = struct.Struct("!HH")
_IPV4 = struct.Struct("!BBH5xB2xII")  # ver/ihl tos length proto src dst
_ARP = struct.Struct("!HHBBH6xI6xI")  # types, lengths, opcode, spa, tpa
_UDP = struct.Struct("!HHH")  # ports, length
_TCP = struct.Struct("!HH8xH")  # ports, data offset / flags
_ICMP = struct.Struct("!BB")  # type, code


def flow_key(data: bytes) -> tuple:
    """The OF 1.0 fields of a frame, ``MATCH_FIELDS[1:]`` in order, read
    in one ``struct`` pass: MACs as 6 raw bytes, addresses as ints.

    This is the single definition of what the datapath can see, run once
    per frame object: ``Simulator.frames`` keeps the result.  It accepts
    exactly what the :mod:`repro.packet` classes parse: a layer they
    would leave as raw bytes (truncated, bad IPv4 version / IHL / length
    / header checksum, bad UDP or TCP length, bad ICMP checksum,
    non-Ethernet/IPv4 ARP) leaves its fields ``None``.  As there, only
    the outermost 802.1Q tag sets ``dl_vlan``/``dl_type`` while stacked
    tags are still skipped to reach the network layer.  Raises
    :class:`PacketError` for a frame shorter than an Ethernet header.
    """
    size = len(data)
    if size < 14:
        raise PacketError("Ethernet frame too short: %d bytes" % size)
    dl_dst, dl_src, dl_type = _ETHERNET.unpack_from(data)
    dl_vlan = NO_VLAN
    nw_tos = nw_proto = nw_src = nw_dst = tp_src = tp_dst = None
    start = 14
    if dl_type == 0x8100 and size >= 18:  # 802.1Q
        tci, dl_type = _VLAN.unpack_from(data, 14)
        dl_vlan = tci & 0xFFF
        start = 18
    ethertype = dl_type
    while ethertype == 0x8100 and size >= start + 4:
        ethertype = _VLAN.unpack_from(data, start)[1]
        start += 4
    if ethertype == 0x0800 and size >= start + 20:  # IPv4
        ver_ihl, tos, total_len, proto, src, dst = \
            _IPV4.unpack_from(data, start)
        l4 = start + (ver_ihl & 0xF) * 4
        end = start + total_len
        if (ver_ihl >> 4 == 4 and l4 >= start + 20 and l4 <= size
                and end <= size and checksum(data[start:l4]) == 0):
            nw_tos, nw_proto, nw_src, nw_dst = tos, proto, src, dst
            if proto == 17 and end - l4 >= 8:  # UDP
                sport, dport, length = _UDP.unpack_from(data, l4)
                if 8 <= length <= end - l4:
                    tp_src, tp_dst = sport, dport
            elif proto == 6 and end - l4 >= 20:  # TCP
                sport, dport, offset = _TCP.unpack_from(data, l4)
                if 20 <= (offset >> 12) * 4 <= end - l4:
                    tp_src, tp_dst = sport, dport
            elif proto == 1 and end - l4 >= 8 \
                    and checksum(data[l4:end]) == 0:
                # ICMP: OF 1.0 reuses tp_src/tp_dst for type/code.
                tp_src, tp_dst = _ICMP.unpack_from(data, l4)
    elif ethertype == 0x0806 and size >= start + 28:  # ARP
        hw_type, proto_type, hw_len, proto_len, opcode, src, dst = \
            _ARP.unpack_from(data, start)
        if (hw_type, proto_type, hw_len, proto_len) == (1, 0x0800, 6, 4):
            nw_proto, nw_src, nw_dst = opcode, src, dst
    return (dl_src, dl_dst, dl_vlan, dl_type, nw_tos, nw_proto,
            nw_src, nw_dst, tp_src, tp_dst)


class Match:
    """A match pattern; ``None`` fields are wildcarded.

    ``nw_src``/``nw_dst`` accept either an :class:`IPAddr` (exact) or a
    ``(IPAddr, prefix_len)`` tuple for CIDR matching, mirroring OF 1.0's
    nw-address wildcard bits.
    """

    __slots__ = MATCH_FIELDS

    def __init__(self, in_port: Optional[int] = None,
                 dl_src: Optional[Union[str, EthAddr]] = None,
                 dl_dst: Optional[Union[str, EthAddr]] = None,
                 dl_vlan: Optional[int] = None,
                 dl_type: Optional[int] = None,
                 nw_tos: Optional[int] = None,
                 nw_proto: Optional[int] = None,
                 nw_src=None, nw_dst=None,
                 tp_src: Optional[int] = None,
                 tp_dst: Optional[int] = None):
        self.in_port = in_port
        self.dl_src = EthAddr(dl_src) if dl_src is not None else None
        self.dl_dst = EthAddr(dl_dst) if dl_dst is not None else None
        self.dl_vlan = dl_vlan
        self.dl_type = dl_type
        self.nw_tos = nw_tos
        self.nw_proto = nw_proto
        self.nw_src = self._normalize_nw(nw_src)
        self.nw_dst = self._normalize_nw(nw_dst)
        self.tp_src = tp_src
        self.tp_dst = tp_dst

    @staticmethod
    def _normalize_nw(value):
        if value is None:
            return None
        if isinstance(value, str) and "/" in value:
            addr, prefix = value.split("/", 1)
            value = (IPAddr(addr), int(prefix))
        if isinstance(value, tuple):
            addr, prefix = IPAddr(value[0]), int(value[1])
            if prefix >= 32:
                return addr   # /32 is an exact match
            if prefix <= 0:
                return None   # /0 is a wildcard
            return (addr, prefix)
        return IPAddr(value)

    # -- construction from a packet -------------------------------------

    @classmethod
    def from_packet(cls, packet: Union[Ethernet, bytes],
                    in_port: Optional[int] = None) -> "Match":
        """Exact-match fields extracted from ``packet`` (OF 1.0 style):
        :func:`flow_key` of its wire bytes."""
        if isinstance(packet, Ethernet):
            packet = packet.pack()
        return cls(in_port, *flow_key(packet))

    # -- matching ---------------------------------------------------------

    @staticmethod
    def _nw_matches(pattern, value: Optional[IPAddr]) -> bool:
        if pattern is None:
            return True
        if value is None:
            return False
        if isinstance(pattern, tuple):
            addr, prefix = pattern
            return value.in_network(addr, prefix)
        return value == pattern

    def matches_packet(self, packet: Union[Ethernet, bytes],
                       in_port: Optional[int] = None) -> bool:
        """Does this pattern match the concrete packet?"""
        concrete = Match.from_packet(packet, in_port)
        return self.matches(concrete)

    def matches(self, concrete: "Match") -> bool:
        """Does this (possibly wildcarded) pattern cover ``concrete``?

        ``concrete`` is normally an exact match built by
        :meth:`from_packet`; any field it leaves as None only matches a
        wildcard in the pattern.
        """
        for field in ("in_port", "dl_src", "dl_dst", "dl_vlan", "dl_type",
                      "nw_tos", "nw_proto", "tp_src", "tp_dst"):
            pattern_value = getattr(self, field)
            if pattern_value is None:
                continue
            if getattr(concrete, field) != pattern_value:
                return False
        if not self._nw_matches(self.nw_src, self._exact_nw(concrete.nw_src)):
            return False
        if not self._nw_matches(self.nw_dst, self._exact_nw(concrete.nw_dst)):
            return False
        return True

    @staticmethod
    def _exact_nw(value) -> Optional[IPAddr]:
        if isinstance(value, tuple):
            return value[0]
        return value

    def is_subset_of(self, other: "Match") -> bool:
        """True when every packet this matches is also matched by
        ``other`` (used for OFPFC_DELETE semantics)."""
        for field in MATCH_FIELDS:
            other_value = getattr(other, field)
            if other_value is None:
                continue
            if getattr(self, field) != other_value:
                return False
        return True

    @property
    def wildcard_count(self) -> int:
        return sum(1 for field in MATCH_FIELDS
                   if getattr(self, field) is None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return all(getattr(self, field) == getattr(other, field)
                   for field in MATCH_FIELDS)

    def __hash__(self) -> int:
        return hash(tuple(str(getattr(self, field))
                          for field in MATCH_FIELDS))

    def __repr__(self) -> str:
        set_fields = ", ".join(
            "%s=%s" % (field, getattr(self, field))
            for field in MATCH_FIELDS if getattr(self, field) is not None)
        return "Match(%s)" % (set_fields or "*")
