"""Tests for the flow table and the OpenFlow switch datapath."""

import random

import pytest

from repro.openflow import (BarrierReply, BarrierRequest, ControllerChannel,
                            EchoReply, EchoRequest, FeaturesReply, FlowEntry,
                            FlowMod, FlowRemoved, FlowStatsReply,
                            FlowStatsRequest, FlowTable, Hello, Match,
                            OpenFlowSwitch, Output, PacketIn, PacketOut,
                            PortStatsReply, PortStatsRequest, PortStatus,
                            OFPP_CONTROLLER, OFPP_FLOOD, OFPP_IN_PORT)
from repro.openflow import match as match_module, switch as switch_module
from repro.openflow.match import flow_key
from repro.packet import Ethernet, IPv4, UDP
from repro.sim import KnownFrames, Simulator


def frame_bytes(dst="00:00:00:00:00:02", src="00:00:00:00:00:01",
                dstip="10.0.0.2", payload=None):
    return Ethernet(src=src, dst=dst, type=Ethernet.IP_TYPE,
                    payload=IPv4(srcip="10.0.0.1", dstip=dstip,
                                 protocol=IPv4.UDP_PROTOCOL,
                                 payload=UDP(srcport=1, dstport=2,
                                             payload=payload))).pack()


class TestFlowTable:
    def test_priority_order(self):
        table = FlowTable()
        table.add(FlowEntry(Match(), [Output(1)], priority=10))
        table.add(FlowEntry(Match(nw_dst="10.0.0.2"), [Output(2)],
                            priority=100))
        entry = table.lookup(frame_bytes(), in_port=1, now=0.0)
        assert entry.actions == [Output(2)]

    def test_add_replaces_same_match_and_priority(self):
        table = FlowTable()
        table.add(FlowEntry(Match(in_port=1), [Output(1)], priority=5))
        table.add(FlowEntry(Match(in_port=1), [Output(9)], priority=5))
        assert len(table) == 1
        assert table.entries[0].actions == [Output(9)]

    def test_hard_timeout_expires(self):
        table = FlowTable()
        table.add(FlowEntry(Match(), [Output(1)], hard_timeout=5.0,
                            installed_at=0.0))
        assert table.lookup(frame_bytes(), 1, now=4.9) is not None
        assert table.lookup(frame_bytes(), 1, now=5.1) is None

    def test_idle_timeout_refreshed_by_hits(self):
        table = FlowTable()
        entry = FlowEntry(Match(), [Output(1)], idle_timeout=2.0,
                          installed_at=0.0)
        table.add(entry)
        hit = table.lookup(frame_bytes(), 1, now=1.5)
        hit.note_hit(100, 1.5)
        assert table.lookup(frame_bytes(), 1, now=3.0) is not None
        assert table.lookup(frame_bytes(), 1, now=6.0) is None

    def test_expiry_callback(self):
        removed = []
        table = FlowTable(on_removed=lambda e, r: removed.append((e, r)))
        table.add(FlowEntry(Match(), [Output(1)], hard_timeout=1.0))
        table.expire(now=2.0)
        assert len(removed) == 1
        assert removed[0][1] == FlowRemoved.REASON_HARD_TIMEOUT

    @pytest.mark.parametrize("timeout", ["hard_timeout", "idle_timeout"])
    def test_expiry_agrees_with_the_deadline(self, timeout):
        """Installed at 0.2 s with a 0.5 s timeout, the entry's deadline
        is 0.2 + 0.5 == 0.7, though 0.7 - 0.2 == 0.49999999999999994:
        expire(0.7) must remove it, or a sweep armed for the deadline
        finds nothing to do and is armed for the same instant again."""
        table = FlowTable()
        table.add(FlowEntry(Match(), [Output(1)], installed_at=0.2,
                            **{timeout: 0.5}))
        assert table._next_expiry == 0.7
        assert table.expire(0.7) == 1
        assert len(table) == 0

    def test_delete_loose(self):
        table = FlowTable()
        table.add(FlowEntry(Match(in_port=1, nw_dst="10.0.0.2"),
                            [Output(1)]))
        table.add(FlowEntry(Match(in_port=2), [Output(2)]))
        removed = table.delete(Match(nw_dst="10.0.0.2"))
        assert removed == 1
        assert len(table) == 1

    def test_delete_strict_requires_exact(self):
        table = FlowTable()
        table.add(FlowEntry(Match(in_port=1), [Output(1)], priority=7))
        assert table.delete(Match(in_port=1), strict=True, priority=8) == 0
        assert table.delete(Match(in_port=1), strict=True, priority=7) == 1

    def test_modify_updates_actions(self):
        table = FlowTable()
        table.add(FlowEntry(Match(in_port=1), [Output(1)]))
        updated = table.modify(Match(), [Output(5)])
        assert updated == 1
        assert table.entries[0].actions == [Output(5)]

    def test_stats_filtering(self):
        table = FlowTable()
        table.add(FlowEntry(Match(in_port=1), [Output(1)]))
        table.add(FlowEntry(Match(in_port=2), [Output(2)]))
        assert len(table.stats()) == 2
        assert len(table.stats(Match(in_port=1))) == 1


class HarnessedSwitch:
    """A switch with a recording controller and capture ports."""

    def __init__(self, ports=2):
        self.sim = Simulator()
        self.switch = OpenFlowSwitch(self.sim, dpid=1)
        self.sent = {n: [] for n in range(1, ports + 1)}
        for n in range(1, ports + 1):
            port = self.switch.add_port(n)
            port.transmit = self.sent[n].append
        self.channel = ControllerChannel(self.sim)
        self.received = []
        self.channel.set_controller_receiver(self.received.append)
        self.switch.connect_controller(self.channel)
        self.sim.run(until=0.01)

    def run(self, duration=0.01):
        self.sim.run(until=self.sim.now + duration)

    def messages(self, kind):
        return [m for m in self.received if isinstance(m, kind)]


class TestHandshake:
    def test_hello_sent_on_connect(self):
        harness = HarnessedSwitch()
        assert harness.messages(Hello)

    def test_features_reply(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(
            __import__("repro.openflow.messages", fromlist=["x"]
                       ).FeaturesRequest())
        harness.run()
        replies = harness.messages(FeaturesReply)
        assert replies and replies[0].dpid == 1
        assert len(replies[0].ports) == 2

    def test_echo(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(EchoRequest(b"ping-me"))
        harness.run()
        replies = harness.messages(EchoReply)
        assert replies and replies[0].data == b"ping-me"

    def test_barrier(self):
        harness = HarnessedSwitch()
        request = BarrierRequest()
        harness.channel.send_to_switch(request)
        harness.run()
        replies = harness.messages(BarrierReply)
        assert replies and replies[0].xid == request.xid

    def test_port_add_notification_when_connected(self):
        harness = HarnessedSwitch()
        harness.switch.add_port(9)
        harness.run()
        notices = harness.messages(PortStatus)
        assert any(n.desc.port_no == 9 for n in notices)


class TestDatapath:
    def test_miss_generates_packet_in_with_buffer(self):
        harness = HarnessedSwitch()
        harness.switch.ports[1].receive(frame_bytes())
        harness.run()
        packet_ins = harness.messages(PacketIn)
        assert len(packet_ins) == 1
        assert packet_ins[0].in_port == 1
        assert packet_ins[0].buffer_id is not None

    def test_miss_without_controller_drops(self):
        sim = Simulator()
        switch = OpenFlowSwitch(sim, dpid=2)
        switch.add_port(1).transmit = lambda d: None
        switch.ports[1].receive(frame_bytes())
        assert switch.dropped_count == 1

    def test_flow_mod_installs_and_forwards(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(
            Match(dl_dst="00:00:00:00:00:02"), [Output(2)]))
        harness.run()
        harness.switch.ports[1].receive(frame_bytes())
        assert len(harness.sent[2]) == 1
        assert harness.switch.packet_in_count == 0

    def test_flow_mod_with_buffer_releases_packet(self):
        harness = HarnessedSwitch()
        harness.switch.ports[1].receive(frame_bytes())
        harness.run()
        packet_in = harness.messages(PacketIn)[0]
        harness.channel.send_to_switch(FlowMod(
            Match(), [Output(2)], buffer_id=packet_in.buffer_id))
        harness.run()
        assert len(harness.sent[2]) == 1

    def test_packet_out_with_data(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(PacketOut(
            actions=[Output(1)], data=frame_bytes()))
        harness.run()
        assert len(harness.sent[1]) == 1

    def test_packet_out_flood_excludes_in_port(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(PacketOut(
            actions=[Output(OFPP_FLOOD)], data=frame_bytes(), in_port=1))
        harness.run()
        assert len(harness.sent[1]) == 0
        assert len(harness.sent[2]) == 1

    def test_output_in_port(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(
            Match(), [Output(OFPP_IN_PORT)]))
        harness.run()
        harness.switch.ports[1].receive(frame_bytes())
        assert len(harness.sent[1]) == 1

    def test_output_controller_action(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(
            Match(), [Output(OFPP_CONTROLLER)]))
        harness.run()
        harness.switch.ports[1].receive(frame_bytes())
        harness.run()
        assert any(p.reason == PacketIn.REASON_ACTION
                   for p in harness.messages(PacketIn))

    def test_empty_action_list_drops(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(Match(), []))
        harness.run()
        before = harness.switch.dropped_count
        harness.switch.ports[1].receive(frame_bytes())
        assert harness.switch.dropped_count == before + 1

    def test_flow_removed_notification(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(
            Match(in_port=1), [Output(2)], hard_timeout=0.2,
            flags=FlowMod.SEND_FLOW_REM))
        harness.run()
        harness.run(1.0)  # let the expiry sweep fire
        removed = harness.messages(FlowRemoved)
        assert removed
        assert removed[0].reason == FlowRemoved.REASON_HARD_TIMEOUT

    def test_timed_entry_leaves_at_its_deadline(self):
        """The sweep is armed for the table's next deadline, not run on
        a fixed period: the entry goes, and its FlowRemoved is sent, at
        install time + hard_timeout."""
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(
            Match(in_port=1), [Output(2)], hard_timeout=0.2,
            flags=FlowMod.SEND_FLOW_REM))
        harness.run()
        installed_at = harness.switch.table.entries[0].installed_at
        harness.sim.run(until=installed_at + 0.2)
        assert len(harness.switch.table) == 0
        harness.run()
        [removed] = harness.messages(FlowRemoved)
        assert removed.duration == pytest.approx(0.2)

    def test_untimed_table_schedules_nothing(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(
            Match(in_port=1), [Output(2)]))
        harness.run()
        assert len(harness.switch.table) == 1
        assert harness.sim.pending == 0

    def test_delete_command(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(
            Match(in_port=1), [Output(2)]))
        harness.run()
        assert len(harness.switch.table) == 1
        harness.channel.send_to_switch(FlowMod(
            Match(), command=FlowMod.DELETE))
        harness.run()
        assert len(harness.switch.table) == 0

    def test_flow_stats(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(
            Match(dl_dst="00:00:00:00:00:02"), [Output(2)]))
        harness.run()
        harness.switch.ports[1].receive(frame_bytes())
        harness.switch.ports[1].receive(frame_bytes())
        harness.channel.send_to_switch(FlowStatsRequest())
        harness.run()
        stats = harness.messages(FlowStatsReply)[0].stats
        assert stats[0].packet_count == 2
        assert stats[0].byte_count > 0

    def test_port_stats(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(Match(), [Output(2)]))
        harness.run()
        harness.switch.ports[1].receive(frame_bytes())
        harness.channel.send_to_switch(PortStatsRequest())
        harness.run()
        stats = {s.port_no: s
                 for s in harness.messages(PortStatsReply)[0].stats}
        assert stats[1].rx_packets == 1
        assert stats[2].tx_packets == 1

    def test_down_port_drops(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(Match(), [Output(2)]))
        harness.run()
        harness.switch.ports[2].up = False
        harness.switch.ports[1].receive(frame_bytes())
        assert len(harness.sent[2]) == 0

    def test_duplicate_port_number_rejected(self):
        harness = HarnessedSwitch()
        with pytest.raises(ValueError):
            harness.switch.add_port(1)

    def test_runt_frame_is_dropped_not_raised(self):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(Match(), [Output(2)]))
        harness.run()
        before = harness.switch.dropped_count
        harness.switch.process_packet(1, b"\x00" * 10)
        harness.switch.ports[1].receive(b"\x00" * 13)
        assert harness.switch.dropped_count == before + 2
        assert harness.sent[2] == []
        assert harness.switch.packet_in_count == 0


class TestForwardUnchanged:
    """A verdict forwards the received bytes themselves."""

    def forward(self, actions, frames):
        harness = HarnessedSwitch()
        harness.channel.send_to_switch(FlowMod(Match(in_port=1), actions))
        harness.run()
        for frame in frames:
            harness.switch.ports[1].receive(frame)
        return harness.sent[2]

    def test_padded_frame_keeps_its_padding(self):
        padded = frame_bytes().ljust(60, b"\x00")
        assert len(frame_bytes()) < 60
        # full miss, header-cache hit, exact-frame hit
        assert self.forward([Output(2)], [padded] * 3) == [padded] * 3

    def test_foreign_udp_checksum_survives(self):
        frame = bytearray(frame_bytes(payload=b"abcd"))
        frame[40:42] = b"\xbe\xef"  # a pseudo-header checksum, not ours
        frame = bytes(frame)
        assert Ethernet.unpack(frame).pack() != frame
        assert self.forward([Output(2)], [frame] * 3) == [frame] * 3


class TestFlowCache:
    def harness(self, *flow_mods):
        harness = HarnessedSwitch(ports=3)
        for flow_mod in flow_mods:
            harness.channel.send_to_switch(flow_mod)
        harness.run()
        return harness

    def test_distinct_payloads_hit_the_header_tier(self):
        harness = self.harness(FlowMod(Match(nw_dst="10.0.0.2"), [Output(2)]))
        for index in range(10):
            harness.switch.ports[1].receive(
                frame_bytes(payload=b"payload %d" % index))
        switch = harness.switch
        assert len(harness.sent[2]) == 10
        assert switch.table_hit_count == 10
        assert switch.microflow_hit_count == 9
        assert switch.table.entries[0].packet_count == 10

    def test_key_covers_every_examined_field(self):
        harness = self.harness(
            FlowMod(Match(nw_dst="10.0.0.2"), [Output(2)], priority=10),
            FlowMod(Match(dl_dst="00:00:00:00:00:07"), [Output(3)],
                    priority=20))
        port = harness.switch.ports[1]
        port.receive(frame_bytes())
        port.receive(frame_bytes(dst="00:00:00:00:00:07"))
        port.receive(frame_bytes(dstip="10.0.0.3"))  # table miss
        assert [len(harness.sent[n]) for n in (2, 3)] == [1, 1]
        assert harness.switch.microflow_hit_count == 0
        assert harness.switch.table_miss_count == 1

    def test_flow_mod_invalidates_cached_verdicts(self):
        harness = self.harness(FlowMod(Match(), [Output(2)], priority=1))
        harness.switch.ports[1].receive(frame_bytes())
        harness.channel.send_to_switch(FlowMod(
            Match(nw_dst="10.0.0.2"), [Output(3)], priority=9))
        harness.run()
        harness.switch.ports[1].receive(frame_bytes())
        harness.channel.send_to_switch(FlowMod(
            Match(nw_dst="10.0.0.2"), command=FlowMod.DELETE))
        harness.run()
        harness.switch.ports[1].receive(frame_bytes())
        assert [len(harness.sent[n]) for n in (2, 3)] == [2, 1]

    def test_tiers_are_capped(self):
        harness = self.harness(FlowMod(Match(nw_dst="10.0.0.0/24"),
                                       [Output(2)]))
        switch = harness.switch
        switch.MICROFLOW_CAP = 4
        for index in range(10):
            switch.ports[1].receive(frame_bytes(dstip="10.0.0.%d" % index))
            assert 1 <= len(switch._flows) <= 4
        assert switch.microflow_hit_count == 0
        assert len(harness.sent[2]) == 10


@pytest.fixture
def parses(monkeypatch):
    """Every frame ``flow_key`` is run on, wherever the datapath reaches
    it from (the switch pass, ``Match.from_packet``)."""
    seen = []

    def counted(data):
        seen.append(data)
        return flow_key(data)

    monkeypatch.setattr(switch_module, "flow_key", counted)
    monkeypatch.setattr(match_module, "flow_key", counted)
    return seen


class TestKnownFrames:
    """``Simulator.frames``: a frame object is parsed by the first hop
    that needs its fields and by nobody after it."""

    def pair(self):
        """Two 3-port switches on one simulator; the first forwards
        in_port 1 -> 2 and 2 -> 3, the second everything -> 1."""
        first = HarnessedSwitch(ports=3)
        second = OpenFlowSwitch(first.sim, dpid=2)
        arrived = []
        for number in (1, 2, 3):
            second.add_port(number).transmit = arrived.append
        for switch, flow_mod in (
                (first.switch, FlowMod(Match(in_port=1), [Output(2)])),
                (first.switch, FlowMod(Match(in_port=2), [Output(3)])),
                (second, FlowMod(Match(dl_type=0x0800), [Output(1)]))):
            switch._handle_controller_message(flow_mod)
        return first, second, arrived

    def test_a_header_tier_miss_parses_the_frame_once(self, parses):
        harness = HarnessedSwitch(ports=3)
        harness.channel.send_to_switch(
            FlowMod(Match(nw_dst="10.0.0.2"), [Output(2)]))
        harness.run()
        hit, missed, other = (frame_bytes(dstip="10.0.0.%d" % host)
                              for host in (2, 3, 4))
        for frame in (hit, missed, missed, other):
            harness.switch.ports[1].receive(frame)
        harness.run()
        # a table hit, two misses of one object, a miss of another: each
        # object was parsed once, by the pass, not again by the look-up
        assert [id(frame) for frame in parses] \
            == [id(hit), id(missed), id(other)]
        switch = harness.switch
        assert (switch.table_hit_count, switch.table_miss_count,
                switch.microflow_hit_count) == (1, 3, 0)
        assert len(harness.messages(PacketIn)) == 3
        assert harness.sent[2] == [hit]
        entry, = switch.table.entries
        assert (entry.packet_count, entry.byte_count) == (1, len(hit))

    def test_equal_content_in_distinct_objects(self, parses):
        first, _second, _arrived = self.pair()
        frame = frame_bytes()
        copy = bytes(bytearray(frame))
        assert copy == frame and copy is not frame
        for data in (frame, copy, frame):
            first.switch.ports[1].receive(data)
        # identity, not content: the copy is parsed for itself (and then
        # finds the verdict its header fields share)
        assert [id(data) for data in parses] == [id(frame), id(copy)]
        assert first.switch.microflow_hit_count == 2
        assert [id(data) for data in first.sent[2]] \
            == [id(frame), id(copy), id(frame)]
        frames = first.sim.frames
        assert (frames.parsed, frames.known, len(frames)) == (2, 1, 2)

    def test_one_object_at_two_ports_and_two_switches(self, parses):
        first, second, arrived = self.pair()
        frame = frame_bytes()
        first.switch.ports[1].receive(frame)
        first.switch.ports[2].receive(frame)
        second.ports[3].receive(frame)
        # one parse, three verdicts: what is remembered is the frame's
        # fields, never what a switch decided about them
        assert len(parses) == 1
        assert (first.sent[2], first.sent[3], arrived) == ([frame],) * 3
        assert first.sim.frames.known == 2

    def test_only_parsed_bytes_are_remembered(self, parses):
        first, _second, _arrived = self.pair()
        port, frames = first.switch.ports[1], first.sim.frames
        runt = b"\x00" * 10
        port.receive(runt)
        port.receive(runt)
        # a runt is known as a frame, never as parsed
        assert len(parses) == 2 and first.switch.dropped_count == 2
        assert frames[id(runt)][1] is None
        # a mutable buffer is parsed every time and never kept: what it
        # holds when it comes back is what gets matched
        held = len(frames)
        buffer = bytearray(frame_bytes())
        port.receive(buffer)
        buffer[12:14] = b"\x08\x06"  # no longer IPv4
        port.receive(buffer)
        assert len(frames) == held and len(parses) == 4
        assert flow_key(parses[-1])[3] == 0x0806
        assert len(first.sent[2]) == 2

    def test_frames_forgotten_mid_path_are_parsed_again(self, parses,
                                                        monkeypatch):
        sent = {}
        for cap in (KnownFrames.CAP, 4):
            monkeypatch.setattr(KnownFrames, "CAP", cap)
            del parses[:]
            first, second, arrived = self.pair()
            offered = [frame_bytes(payload=b"%d" % index)
                       for index in range(10)]
            for frame in offered:  # all ten in flight between the two
                first.switch.ports[1].receive(frame)
            for frame in first.sent[2]:
                second.ports[2].receive(frame)
            sent[cap] = (first.sent[2], arrived)
            frames = first.sim.frames
            assert len(frames) <= cap and len(frames.old) <= cap
            if cap == 4:
                # two generations turned under every frame before its
                # second hop: twenty parses for ten frames, nothing else
                # differs
                assert len(parses) == 20 and frames.resets == 4
            else:
                assert len(parses) == 10 and frames.resets == 0
            assert [id(frame) for frame in arrived] \
                == [id(frame) for frame in offered]
        assert sent[4] == sent[KnownFrames.CAP]

    def test_a_frame_touched_every_generation_is_never_forgotten(
            self, parses, monkeypatch):
        monkeypatch.setattr(KnownFrames, "CAP", 4)
        first, _second, _arrived = self.pair()
        port, frames = first.switch.ports[1], first.sim.frames
        kept = frame_bytes(payload=b"kept")
        port.receive(kept)
        for index in range(100):
            # fewer than a generation's admissions between two touches
            for other in range(KnownFrames.CAP - 1):
                port.receive(frame_bytes(payload=b"%d.%d" % (index, other)))
            port.receive(kept)
        assert frames.resets >= 99
        assert len([data for data in parses if data is kept]) == 1
        assert len(parses) == 1 + 100 * (KnownFrames.CAP - 1)
        assert frames.known == 100

    def test_records_held_never_exceed_two_generations(self, monkeypatch):
        monkeypatch.setattr(KnownFrames, "CAP", 8)
        first, second, _arrived = self.pair()
        frames, rng = first.sim.frames, random.Random(38)
        ports = (first.switch.ports[1], first.switch.ports[2],
                 second.ports[3])
        sent, held = [], []
        for index in range(2000):
            roll = rng.random()
            if roll < 0.5 or not sent:
                data = frame_bytes(payload=b"%d" % index)
                sent.append(data)
            elif roll < 0.85:  # a frame sent before, maybe long before
                data = rng.choice(sent)
            elif roll < 0.95:
                data = bytearray(frame_bytes(payload=b"%d" % index))
            else:
                data = b"\x00" * 10  # a runt
            rng.choice(ports).receive(data)
            held.append(len(frames) + len(frames.old))
        assert max(held) == 2 * KnownFrames.CAP
        assert frames.resets > 100


class TestChannel:
    def test_latency_delays_delivery(self):
        sim = Simulator()
        channel = ControllerChannel(sim, latency=0.5)
        channel.connect()
        received = []
        channel.set_controller_receiver(
            lambda m: received.append((sim.now, m)))
        channel.send_to_controller("msg")
        sim.run(until=0.4)
        assert received == []
        sim.run(until=0.6)
        assert received[0][0] == pytest.approx(0.5)

    def test_disconnected_channel_drops(self):
        sim = Simulator()
        channel = ControllerChannel(sim)
        received = []
        channel.set_controller_receiver(received.append)
        channel.send_to_controller("lost")
        sim.run()
        assert received == []

    def test_ordering_preserved(self):
        sim = Simulator()
        channel = ControllerChannel(sim, latency=0.1)
        channel.connect()
        received = []
        channel.set_switch_receiver(received.append)
        for index in range(5):
            channel.send_to_switch(index)
        sim.run()
        assert received == [0, 1, 2, 3, 4]
