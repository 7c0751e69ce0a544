"""Tests for the packet header codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.packet import (ARP, Ethernet, ICMP, IPv4, LLDP, TCP, UDP, Vlan)
from repro.packet.base import PacketError, checksum


class TestChecksum:
    def test_rfc1071_example(self):
        # validate the fold: sum of data plus checksum is 0xFFFF
        data = b"\x45\x00\x00\x3c\x1c\x46\x40\x00\x40\x06" \
               b"\x00\x00\xac\x10\x0a\x63\xac\x10\x0a\x0c"
        value = checksum(data)
        patched = data[:10] + value.to_bytes(2, "big") + data[12:]
        assert checksum(patched) == 0

    def test_odd_length_padded(self):
        assert checksum(b"\x01") == checksum(b"\x01\x00")


class TestEthernet:
    def test_roundtrip_with_raw_payload(self):
        frame = Ethernet(dst="00:00:00:00:00:02", src="00:00:00:00:00:01",
                         type=0x1234, payload=b"hello")
        decoded = Ethernet.unpack(frame.pack())
        assert str(decoded.src) == "00:00:00:00:00:01"
        assert str(decoded.dst) == "00:00:00:00:00:02"
        assert decoded.type == 0x1234
        assert decoded.payload == b"hello"

    def test_too_short_rejected(self):
        with pytest.raises(PacketError):
            Ethernet.unpack(b"\x00" * 13)

    def test_ip_payload_parsed(self):
        frame = Ethernet(type=Ethernet.IP_TYPE,
                         payload=IPv4(srcip="1.1.1.1", dstip="2.2.2.2"))
        decoded = Ethernet.unpack(frame.pack())
        assert isinstance(decoded.payload, IPv4)

    def test_unknown_ethertype_stays_raw(self):
        frame = Ethernet(type=0x9999, payload=b"\x01\x02")
        decoded = Ethernet.unpack(frame.pack())
        assert decoded.payload == b"\x01\x02"

    def test_find_traverses_chain(self):
        frame = Ethernet(type=Ethernet.IP_TYPE,
                         payload=IPv4(protocol=IPv4.UDP_PROTOCOL,
                                      payload=UDP(srcport=1, dstport=2,
                                                  payload=b"x")))
        assert frame.find(UDP) is not None
        assert frame.find(TCP) is None

    def test_raw_payload_innermost_bytes(self):
        frame = Ethernet(type=Ethernet.IP_TYPE,
                         payload=IPv4(protocol=IPv4.UDP_PROTOCOL,
                                      payload=UDP(payload=b"inner")))
        assert frame.raw_payload() == b"inner"


class TestVlan:
    def test_roundtrip(self):
        frame = Ethernet(type=Ethernet.VLAN_TYPE,
                         payload=Vlan(vid=42, pcp=3,
                                      type=Ethernet.IP_TYPE,
                                      payload=IPv4()))
        decoded = Ethernet.unpack(frame.pack())
        tag = decoded.find(Vlan)
        assert tag.vid == 42
        assert tag.pcp == 3
        assert isinstance(tag.payload, IPv4)

    def test_effective_type_skips_tag(self):
        frame = Ethernet(type=Ethernet.VLAN_TYPE,
                         payload=Vlan(vid=1, type=Ethernet.ARP_TYPE))
        assert frame.effective_type() == Ethernet.ARP_TYPE

    def test_vid_out_of_range(self):
        with pytest.raises(ValueError):
            Vlan(vid=4096)


class TestARP:
    def test_roundtrip(self):
        arp = ARP(opcode=ARP.REQUEST, hwsrc="00:00:00:00:00:01",
                  protosrc="10.0.0.1", protodst="10.0.0.2")
        decoded = ARP.unpack(arp.pack())
        assert decoded.opcode == ARP.REQUEST
        assert decoded.protodst == "10.0.0.2"
        assert decoded.hwsrc == "00:00:00:00:00:01"

    def test_within_ethernet(self):
        frame = Ethernet(type=Ethernet.ARP_TYPE,
                         payload=ARP(opcode=ARP.REPLY))
        assert Ethernet.unpack(frame.pack()).find(ARP).opcode == ARP.REPLY

    def test_short_buffer_rejected(self):
        with pytest.raises(PacketError):
            ARP.unpack(b"\x00" * 27)


class TestIPv4:
    def test_roundtrip_fields(self):
        packet = IPv4(srcip="10.0.0.1", dstip="10.0.0.2", protocol=17,
                      ttl=33, tos=0x10, id=777, payload=UDP(payload=b"p"))
        decoded = IPv4.unpack(packet.pack())
        assert decoded.srcip == "10.0.0.1"
        assert decoded.dstip == "10.0.0.2"
        assert decoded.protocol == 17
        assert decoded.ttl == 33
        assert decoded.tos == 0x10
        assert decoded.id == 777

    def test_checksum_verified_on_unpack(self):
        wire = bytearray(IPv4(srcip="1.1.1.1", dstip="2.2.2.2").pack())
        wire[8] ^= 0xFF  # corrupt the TTL
        with pytest.raises(PacketError):
            IPv4.unpack(bytes(wire))

    def test_total_length_respected(self):
        packet = IPv4(payload=b"abc")
        wire = packet.pack() + b"trailing-garbage"
        decoded = IPv4.unpack(wire)
        assert decoded.payload == b"abc"

    def test_truncated_rejected(self):
        wire = IPv4(payload=b"abcdef").pack()
        with pytest.raises(PacketError):
            IPv4.unpack(wire[:-3])

    def test_non_v4_rejected(self):
        wire = bytearray(IPv4().pack())
        wire[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            IPv4.unpack(bytes(wire))

    def test_decremented(self):
        packet = IPv4(ttl=2)
        assert packet.decremented().ttl == 1

    def test_decrement_zero_ttl_rejected(self):
        with pytest.raises(PacketError):
            IPv4(ttl=0).decremented()

    def test_payload_is_packed_once(self, monkeypatch):
        # pack() used to serialize the payload a second time inside
        # pack_header(), so every IP send checksummed its L4 twice
        calls = []
        pack = UDP.pack
        monkeypatch.setattr(
            UDP, "pack", lambda self: calls.append(self) or pack(self))
        frame = Ethernet(
            dst="00:00:00:00:00:02", src="00:00:00:00:00:01",
            type=Ethernet.IP_TYPE,
            payload=IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                         protocol=IPv4.UDP_PROTOCOL, id=7,
                         payload=UDP(1234, 53, payload=b"hello")))
        wire = frame.pack()
        assert len(calls) == 1
        assert wire.hex() == (
            "000000000002000000000001" "0800"
            "45000021000700004011" "66c3" "0a000001" "0a000002"
            "04d20035000d" "b719" "68656c6c6f")  # the parent's bytes
        assert frame.payload.pack_header() == wire[14:34]

    def test_icmp_payload_parsed(self):
        packet = IPv4(protocol=IPv4.ICMP_PROTOCOL, payload=ICMP())
        assert isinstance(IPv4.unpack(packet.pack()).payload, ICMP)


class TestICMP:
    def test_echo_roundtrip(self):
        echo = ICMP(type=ICMP.TYPE_ECHO_REQUEST, id=7, seq=3,
                    payload=b"ping-data")
        decoded = ICMP.unpack(echo.pack())
        assert decoded.is_echo_request
        assert decoded.id == 7
        assert decoded.seq == 3
        assert decoded.raw_payload() == b"ping-data"

    def test_checksum_verified(self):
        wire = bytearray(ICMP(id=1, seq=1).pack())
        wire[4] ^= 0x55
        with pytest.raises(PacketError):
            ICMP.unpack(bytes(wire))

    def test_make_reply_swaps_type_keeps_id_seq(self):
        request = ICMP(type=ICMP.TYPE_ECHO_REQUEST, id=9, seq=4,
                       payload=b"x")
        reply = request.make_reply()
        assert reply.is_echo_reply
        assert (reply.id, reply.seq) == (9, 4)
        assert reply.payload == b"x"

    def test_reply_to_non_request_rejected(self):
        with pytest.raises(PacketError):
            ICMP(type=ICMP.TYPE_ECHO_REPLY).make_reply()


class TestUDP:
    def test_roundtrip(self):
        datagram = UDP(srcport=1234, dstport=53, payload=b"query")
        decoded = UDP.unpack(datagram.pack())
        assert decoded.srcport == 1234
        assert decoded.dstport == 53
        assert decoded.raw_payload() == b"query"

    def test_length_field_trims_trailing_bytes(self):
        wire = UDP(payload=b"abc").pack() + b"junk"
        assert UDP.unpack(wire).raw_payload() == b"abc"

    def test_bad_length_rejected(self):
        wire = bytearray(UDP(payload=b"abc").pack())
        wire[4:6] = (3).to_bytes(2, "big")  # below minimum
        with pytest.raises(PacketError):
            UDP.unpack(bytes(wire))

    def test_port_range_validated(self):
        with pytest.raises(ValueError):
            UDP(srcport=70000)

    @given(st.binary(max_size=64),
           st.integers(min_value=0, max_value=65535),
           st.integers(min_value=0, max_value=65535))
    def test_roundtrip_property(self, payload, sport, dport):
        decoded = UDP.unpack(UDP(srcport=sport, dstport=dport,
                                 payload=payload).pack())
        assert decoded.srcport == sport
        assert decoded.dstport == dport
        assert decoded.raw_payload() == payload


class TestTCP:
    def test_roundtrip(self):
        segment = TCP(srcport=80, dstport=4321, seq=1000, ack=2000,
                      flags=TCP.SYN | TCP.ACK, window=512,
                      payload=b"data")
        decoded = TCP.unpack(segment.pack())
        assert decoded.srcport == 80
        assert decoded.seq == 1000
        assert decoded.ack == 2000
        assert decoded.flags == TCP.SYN | TCP.ACK
        assert decoded.window == 512
        assert decoded.raw_payload() == b"data"

    def test_flag_names(self):
        assert TCP(flags=TCP.SYN | TCP.ACK).flag_names() == "SYN|ACK"
        assert TCP(flags=0).flag_names() == "none"

    def test_short_buffer_rejected(self):
        with pytest.raises(PacketError):
            TCP.unpack(b"\x00" * 19)


class TestLLDP:
    def test_discovery_roundtrip(self):
        frame = Ethernet(type=Ethernet.LLDP_TYPE,
                         payload=LLDP.discovery_frame(17, 4, ttl=99))
        lldp = Ethernet.unpack(frame.pack()).find(LLDP)
        assert lldp.discovery_origin() == (17, 4)

    def test_non_discovery_returns_none(self):
        from repro.packet import ChassisTLV, PortTLV, TTLTLV
        pdu = LLDP([ChassisTLV("not-a-dpid"), PortTLV("1"), TTLTLV(120)])
        decoded = LLDP.unpack(pdu.pack())
        assert decoded.discovery_origin() is None

    def test_truncated_rejected(self):
        wire = LLDP.discovery_frame(1, 1).pack()
        with pytest.raises(PacketError):
            LLDP.unpack(wire[:3])

    def test_full_stack_roundtrip(self):
        inner = Ethernet(
            src="00:00:00:00:00:0a", dst="00:00:00:00:00:0b",
            type=Ethernet.IP_TYPE,
            payload=IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                         protocol=IPv4.TCP_PROTOCOL,
                         payload=TCP(srcport=1, dstport=80,
                                     flags=TCP.SYN, payload=b"GET /")))
        decoded = Ethernet.unpack(inner.pack())
        assert decoded.find(TCP).raw_payload() == b"GET /"
