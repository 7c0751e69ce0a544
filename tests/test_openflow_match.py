"""Tests for the OF 1.0 match structure and actions."""

from repro.openflow import Group, Match, OpenFlowSwitch, Output
from repro.openflow.match import NO_VLAN
from repro.packet import ARP, Ethernet, ICMP, IPv4, TCP, UDP, Vlan
from repro.sim import Simulator


def udp_frame(srcip="10.0.0.1", dstip="10.0.0.2", sport=1000, dport=2000,
              src="00:00:00:00:00:01", dst="00:00:00:00:00:02"):
    return Ethernet(src=src, dst=dst, type=Ethernet.IP_TYPE,
                    payload=IPv4(srcip=srcip, dstip=dstip,
                                 protocol=IPv4.UDP_PROTOCOL,
                                 payload=UDP(srcport=sport, dstport=dport)))


class TestFromPacket:
    def test_udp_fields_extracted(self):
        match = Match.from_packet(udp_frame(), in_port=3)
        assert match.in_port == 3
        assert match.dl_type == Ethernet.IP_TYPE
        assert match.nw_proto == IPv4.UDP_PROTOCOL
        assert str(match.nw_src) == "10.0.0.1"
        assert match.tp_src == 1000
        assert match.tp_dst == 2000
        assert match.dl_vlan == NO_VLAN

    def test_vlan_tagged(self):
        frame = Ethernet(type=Ethernet.VLAN_TYPE,
                         payload=Vlan(vid=55, type=Ethernet.IP_TYPE,
                                      payload=IPv4()))
        match = Match.from_packet(frame)
        assert match.dl_vlan == 55
        assert match.dl_type == Ethernet.IP_TYPE  # effective type

    def test_arp_uses_nw_fields(self):
        frame = Ethernet(type=Ethernet.ARP_TYPE,
                         payload=ARP(opcode=ARP.REQUEST,
                                     protosrc="10.0.0.1",
                                     protodst="10.0.0.2"))
        match = Match.from_packet(frame)
        assert match.nw_proto == ARP.REQUEST
        assert str(match.nw_dst) == "10.0.0.2"

    def test_icmp_type_code_in_tp_fields(self):
        frame = Ethernet(type=Ethernet.IP_TYPE,
                         payload=IPv4(protocol=IPv4.ICMP_PROTOCOL,
                                      payload=ICMP(type=8, code=0)))
        match = Match.from_packet(frame)
        assert match.tp_src == 8
        assert match.tp_dst == 0

    def test_accepts_raw_bytes(self):
        match = Match.from_packet(udp_frame().pack(), in_port=1)
        assert match.tp_dst == 2000


class TestMatching:
    def test_empty_match_is_wildcard(self):
        assert Match().matches_packet(udp_frame(), in_port=9)

    def test_exact_field(self):
        pattern = Match(nw_dst="10.0.0.2")
        assert pattern.matches_packet(udp_frame())
        assert not pattern.matches_packet(udp_frame(dstip="10.0.0.3"))

    def test_in_port_constrains(self):
        pattern = Match(in_port=1)
        assert pattern.matches_packet(udp_frame(), in_port=1)
        assert not pattern.matches_packet(udp_frame(), in_port=2)

    def test_cidr_nw_match(self):
        pattern = Match(nw_src=("10.0.0.0", 24))
        assert pattern.matches_packet(udp_frame(srcip="10.0.0.77"))
        assert not pattern.matches_packet(udp_frame(srcip="10.0.1.77"))

    def test_cidr_string_form(self):
        pattern = Match(nw_src="10.0.0.0/24")
        assert pattern.matches_packet(udp_frame(srcip="10.0.0.5"))

    def test_dl_fields(self):
        pattern = Match(dl_src="00:00:00:00:00:01",
                        dl_dst="00:00:00:00:00:02")
        assert pattern.matches_packet(udp_frame())
        assert not pattern.matches_packet(
            udp_frame(src="00:00:00:00:00:09"))

    def test_vlan_none_vs_tagged(self):
        untagged = Match(dl_vlan=NO_VLAN)
        assert untagged.matches_packet(udp_frame())
        tagged_frame = Ethernet(type=Ethernet.VLAN_TYPE,
                                payload=Vlan(vid=5,
                                             type=Ethernet.IP_TYPE,
                                             payload=IPv4()))
        assert not untagged.matches_packet(tagged_frame)
        assert Match(dl_vlan=5).matches_packet(tagged_frame)

    def test_nw_proto_mismatch(self):
        pattern = Match(nw_proto=IPv4.TCP_PROTOCOL)
        assert not pattern.matches_packet(udp_frame())

    def test_tp_fields_absent_on_non_l4(self):
        pattern = Match(tp_dst=80)
        frame = Ethernet(type=Ethernet.IP_TYPE, payload=IPv4(protocol=99))
        assert not pattern.matches_packet(frame)

    def test_equality_and_hash(self):
        a = Match(in_port=1, nw_src="10.0.0.1")
        b = Match(in_port=1, nw_src="10.0.0.1")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Match(in_port=2, nw_src="10.0.0.1")

    def test_is_subset_of(self):
        specific = Match(in_port=1, nw_src="10.0.0.1", tp_dst=80)
        broad = Match(nw_src="10.0.0.1")
        assert specific.is_subset_of(broad)
        assert not broad.is_subset_of(specific)
        assert specific.is_subset_of(Match())

    def test_wildcard_count(self):
        assert Match().wildcard_count == 11
        assert Match(in_port=1).wildcard_count == 10


class TestActions:
    def test_output_collected_not_applied(self):
        switch = OpenFlowSwitch(Simulator(), 1)
        assert switch._compile([Output(3), Output(7)]) == (3, 7)

    def test_action_equality(self):
        assert Output(1) == Output(1)
        assert Output(1) != Output(2)
        assert Group(5) == Group(5)
        assert Group(1) != Output(1)

