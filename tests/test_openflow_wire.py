"""Tests for the OF 1.0 wire codec, including end-to-end operation of
the framework over serialized control channels."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph, load_topology
from repro.openflow import (BarrierReply, BarrierRequest, EchoReply,
                            EchoRequest, FeaturesReply, FeaturesRequest,
                            FlowMod, FlowRemoved, FlowStatsReply,
                            FlowStatsRequest, Group, Hello, Match, Output,
                            PacketIn, PacketOut, PortDescription,
                            PortStatsReply, PortStatsRequest, PortStatus)
from repro.openflow.match import MATCH_FIELDS
from repro.openflow.messages import FlowStats, PortStats
from repro.openflow.wire import (WireError, pack_actions, pack_match,
                                 pack_message, unpack_actions,
                                 unpack_match, unpack_message)


def match_equal(a: Match, b: Match) -> bool:
    return all(getattr(a, field) == getattr(b, field)
               for field in MATCH_FIELDS)


class TestMatchCodec:
    def test_empty_match(self):
        wire = pack_match(Match())
        assert len(wire) == 40
        assert match_equal(unpack_match(wire), Match())

    def test_full_match(self):
        match = Match(in_port=3, dl_src="00:00:00:00:00:01",
                      dl_dst="00:00:00:00:00:02", dl_vlan=7,
                      dl_type=0x0800, nw_tos=0x10, nw_proto=6,
                      nw_src="10.0.0.1", nw_dst="10.0.0.2",
                      tp_src=1000, tp_dst=80)
        assert match_equal(unpack_match(pack_match(match)), match)

    def test_cidr_nw_match(self):
        match = Match(nw_src=("10.1.0.0", 16), nw_dst=("10.2.3.0", 24))
        again = unpack_match(pack_match(match))
        assert again.nw_src == (match.nw_src[0], 16)
        assert again.nw_dst == (match.nw_dst[0], 24)

    def test_truncated_rejected(self):
        with pytest.raises(WireError):
            unpack_match(b"\x00" * 39)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50)
    def test_random_match_roundtrip(self, seed):
        rng = random.Random(seed)
        kwargs = {}
        if rng.random() < 0.5:
            kwargs["in_port"] = rng.randint(0, 0xFFF0)
        if rng.random() < 0.5:
            kwargs["dl_type"] = rng.choice([0x0800, 0x0806])
        if rng.random() < 0.5:
            kwargs["nw_proto"] = rng.randint(0, 255)
        if rng.random() < 0.5:
            kwargs["nw_src"] = ("10.0.0.0", rng.randint(1, 32)) \
                if rng.random() < 0.5 else "10.%d.0.1" % rng.randint(0, 255)
        if rng.random() < 0.5:
            kwargs["tp_dst"] = rng.randint(0, 65535)
        if rng.random() < 0.5:
            kwargs["dl_vlan"] = rng.randint(0, 4095)
        match = Match(**kwargs)
        assert match_equal(unpack_match(pack_match(match)), match)


class TestActionCodec:
    ALL_ACTIONS = [Output(7), Group(42)]

    def test_every_action_roundtrips(self):
        wire = pack_actions(self.ALL_ACTIONS)
        again = unpack_actions(wire)
        assert again == self.ALL_ACTIONS

    def test_lengths_are_multiples_of_eight(self):
        for action in self.ALL_ACTIONS:
            from repro.openflow.wire import pack_action
            assert len(pack_action(action)) % 8 == 0

    def test_truncated_rejected(self):
        wire = pack_actions([Output(1)])
        with pytest.raises(WireError):
            unpack_actions(wire[:-2])


class TestMessageCodec:
    def roundtrip(self, message):
        wire = pack_message(message)
        again = unpack_message(wire)
        assert type(again) is type(message)
        assert again.xid == message.xid
        return again

    def test_hello(self):
        self.roundtrip(Hello())

    def test_echo(self):
        again = self.roundtrip(EchoRequest(b"probe"))
        assert again.data == b"probe"
        self.roundtrip(EchoReply(b"probe"))

    def test_features(self):
        self.roundtrip(FeaturesRequest())
        reply = FeaturesReply(
            dpid=0x00AABBCCDDEEFF11,
            ports=[PortDescription(1, "s1-eth1", "02:00:00:00:00:01"),
                   PortDescription(2, "s1-eth2", "02:00:00:00:00:02")],
            n_buffers=128, n_tables=2)
        again = self.roundtrip(reply)
        assert again.dpid == reply.dpid
        assert again.n_buffers == 128
        assert [(p.port_no, p.name) for p in again.ports] \
            == [(1, "s1-eth1"), (2, "s1-eth2")]

    def test_packet_in(self):
        message = PacketIn(buffer_id=55, in_port=3, data=b"\xaa" * 60,
                           reason=PacketIn.REASON_NO_MATCH, total_len=90)
        again = self.roundtrip(message)
        assert again.buffer_id == 55
        assert again.in_port == 3
        assert again.total_len == 90
        assert again.data == b"\xaa" * 60

    def test_packet_in_without_buffer(self):
        again = self.roundtrip(PacketIn(None, 1, b"x"))
        assert again.buffer_id is None

    def test_packet_out(self):
        message = PacketOut(actions=[Group(5), Output(2)],
                            data=b"\xbb" * 30, in_port=4)
        again = self.roundtrip(message)
        assert again.actions == message.actions
        assert again.data == message.data
        assert again.in_port == 4

    def test_packet_out_buffered(self):
        again = self.roundtrip(PacketOut(actions=[Output(1)],
                                         buffer_id=9))
        assert again.buffer_id == 9
        assert again.data is None

    def test_flow_mod(self):
        message = FlowMod(Match(in_port=1, nw_dst="10.0.0.2"),
                          [Output(2)], command=FlowMod.ADD,
                          priority=1234, idle_timeout=10.0,
                          hard_timeout=60.0, cookie=0xDEADBEEF,
                          flags=FlowMod.SEND_FLOW_REM, buffer_id=77)
        again = self.roundtrip(message)
        assert match_equal(again.match, message.match)
        assert again.actions == message.actions
        assert again.priority == 1234
        assert again.idle_timeout == 10.0
        assert again.cookie == 0xDEADBEEF
        assert again.flags == FlowMod.SEND_FLOW_REM
        assert again.buffer_id == 77

    def test_flow_removed(self):
        message = FlowRemoved(Match(nw_src="10.0.0.1"), cookie=5,
                              priority=100,
                              reason=FlowRemoved.REASON_IDLE_TIMEOUT,
                              duration=12.5, packet_count=42,
                              byte_count=4200)
        again = self.roundtrip(message)
        assert again.packet_count == 42
        assert again.duration == pytest.approx(12.5, abs=1e-6)

    def test_port_status(self):
        message = PortStatus(PortStatus.REASON_ADD,
                             PortDescription(9, "s1-eth9",
                                             "02:00:00:00:00:09"))
        again = self.roundtrip(message)
        assert again.desc.port_no == 9

    def test_barrier(self):
        self.roundtrip(BarrierRequest())
        self.roundtrip(BarrierReply())

    def test_stats_requests(self):
        again = self.roundtrip(FlowStatsRequest(Match(in_port=2)))
        assert again.match.in_port == 2
        again = self.roundtrip(PortStatsRequest(port_no=None))
        assert again.port_no is None
        again = self.roundtrip(PortStatsRequest(port_no=3))
        assert again.port_no == 3

    def test_flow_stats_reply(self):
        stats = [FlowStats(Match(in_port=1), 100, 7, 3.25, 10, 1000,
                           [Output(2)]),
                 FlowStats(Match(), 50, 8, 1.0, 5, 500,
                           [Group(3), Output(4)])]
        again = self.roundtrip(FlowStatsReply(stats))
        assert len(again.stats) == 2
        assert again.stats[0].packet_count == 10
        assert again.stats[1].actions == [Group(3), Output(4)]

    def test_port_stats_reply(self):
        stats = [PortStats(1, 10, 20, 1000, 2000, 1, 2)]
        again = self.roundtrip(PortStatsReply(stats))
        assert again.stats[0].tx_bytes == 2000
        assert again.stats[0].rx_dropped == 1

    def test_bad_version_rejected(self):
        wire = bytearray(pack_message(Hello()))
        wire[0] = 0x04
        with pytest.raises(WireError):
            unpack_message(bytes(wire))

    def test_length_mismatch_rejected(self):
        wire = pack_message(Hello()) + b"trailing"
        with pytest.raises(WireError):
            unpack_message(wire)


class TestEndToEndOverWire:
    """The entire ESCAPE demo with serialize=True control channels —
    every OF message transits the real wire format."""

    TOPOLOGY = {
        "nodes": [
            {"name": "h1", "role": "host"},
            {"name": "h2", "role": "host"},
            {"name": "s1", "role": "switch"},
            {"name": "nc1", "role": "vnf_container", "cpu": 4,
             "mem": 2048},
        ],
        "links": [
            {"from": "h1", "to": "s1", "delay": 0.001},
            {"from": "h2", "to": "s1", "delay": 0.001},
            {"from": "nc1", "to": "s1", "delay": 0.0005},
            {"from": "nc1", "to": "s1", "delay": 0.0005},
        ],
    }

    SG = {
        "name": "wire-chain",
        "saps": ["h1", "h2"],
        "vnfs": [{"name": "fw", "type": "firewall",
                  "params": {"rules": "allow icmp, drop all"}}],
        "chain": ["h1", "fw", "h2"],
    }

    def test_full_demo_over_serialized_channels(self):
        escape = ESCAPE.from_topology(load_topology(self.TOPOLOGY),
                                      of_wire=True)
        escape.start()
        chain = escape.deploy_service(load_service_graph(self.SG))
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=5, interval=0.2)
        escape.run(3.0)
        assert result.received == 5
        assert int(chain.read_handler("fw", "fw.passed")) >= 5
        h1.send_udp(h2.ip, 9999, b"nope")
        escape.run(0.5)
        assert h2.udp_rx_count == 0
        # wire bytes actually flowed
        switch = escape.net.get("s1")
        assert switch.datapath.channel.wire_bytes > 0
        chain.undeploy()
