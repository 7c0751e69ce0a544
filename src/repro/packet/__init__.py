"""Packet header codec.

Pure-Python encode/decode for the protocols the rest of the stack needs:
Ethernet (+ 802.1Q VLAN), ARP, IPv4, ICMP, UDP, TCP and LLDP.  These are
the wire formats the emulated hosts generate ("use standard tools to send
and inspect live traffic", demo step 4), the Click elements classify and
rewrite, and the OpenFlow datapath matches on.

Headers are chained through the ``payload`` attribute::

    pkt = Ethernet(src="00:00:00:00:00:01", dst="00:00:00:00:00:02",
                   type=Ethernet.IP_TYPE,
                   payload=IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                                protocol=IPv4.UDP_PROTOCOL,
                                payload=UDP(srcport=1234, dstport=53,
                                            payload=b"hello")))
    wire = pkt.pack()
    again = Ethernet.unpack(wire)
"""

from repro.packet.addresses import (BROADCAST, EthAddr, IPAddr,
                                    is_multicast)
from repro.packet.arp import ARP
from repro.packet.base import Header, PacketError
from repro.packet.ethernet import Ethernet, Vlan
from repro.packet.icmp import ICMP
from repro.packet.ipv4 import IPv4
from repro.packet.lldp import LLDP, ChassisTLV, PortTLV, TTLTLV
from repro.packet.probe import Probe, frame_probe, pack_probe, parse_probe
from repro.packet.tcp import TCP
from repro.packet.udp import UDP, pack_udp_frame, unpack_udp_frame

__all__ = [
    "ARP",
    "BROADCAST",
    "ChassisTLV",
    "EthAddr",
    "Ethernet",
    "Header",
    "ICMP",
    "IPAddr",
    "IPv4",
    "LLDP",
    "PacketError",
    "PortTLV",
    "Probe",
    "TCP",
    "TTLTLV",
    "UDP",
    "Vlan",
    "frame_probe",
    "is_multicast",
    "pack_probe",
    "pack_udp_frame",
    "parse_probe",
    "unpack_udp_frame",
]
