"""Tests for link jitter and pcap export."""

import struct
from types import SimpleNamespace

import pytest

from repro.netem import FlightRecorder, Interface, Link, Network
from repro.netem.traffic import write_pcap
from repro.packet import EthAddr, Ethernet, pack_udp_frame
from repro.pox import Core, L2LearningSwitch, OpenFlowNexus
from repro.sim import Simulator


def make_pair(sim, **link_opts):
    intf1 = Interface("a-eth0", None, EthAddr(1))
    intf2 = Interface("b-eth0", None, EthAddr(2))
    link = Link(sim, intf1, intf2, **link_opts)
    return intf1, intf2, link


class TestJitter:
    def test_jitter_varies_latency(self):
        sim = Simulator()
        intf1, intf2, _link = make_pair(sim, delay=0.01, jitter=0.005)
        times = []
        intf2.receive = lambda data: times.append(sim.now)
        for index in range(20):
            sim.schedule(index * 0.1, intf1.send, b"x")
        sim.run()
        latencies = [t - index * 0.1 for index, t in enumerate(times)]
        assert min(latencies) >= 0.01 - 1e-9
        assert max(latencies) <= 0.015 + 1e-9
        assert max(latencies) - min(latencies) > 0.001  # actually varies

    def test_zero_jitter_is_deterministic_delay(self):
        sim = Simulator()
        intf1, intf2, _link = make_pair(sim, delay=0.01)
        times = []
        intf2.receive = lambda data: times.append(sim.now)
        intf1.send(b"x")
        sim.run()
        assert times == [pytest.approx(0.01)]

    def test_jitter_is_seeded_deterministic(self):
        def run_once():
            sim = Simulator()
            intf1, intf2, _link = make_pair(sim, delay=0.01,
                                            jitter=0.01)
            times = []
            intf2.receive = lambda data: times.append(sim.now)
            for _ in range(5):
                intf1.send(b"x")
            sim.run()
            return times
        assert run_once() == run_once()

    def test_negative_jitter_rejected(self):
        sim = Simulator()
        intf1 = Interface("a", None, EthAddr(1))
        intf2 = Interface("b", None, EthAddr(2))
        with pytest.raises(ValueError):
            Link(sim, intf1, intf2, jitter=-0.1)


def port_tap(net, host):
    """``tcpdump -i`` on the host's interface: a flight-recorder tap
    narrowed to the host's end of its link."""
    intf = host.default_interface()
    return FlightRecorder(net).attach(intf.link, port=intf.name)


class TestPcapExport:
    def _capture_some_traffic(self):
        net = Network()
        nexus = OpenFlowNexus(Core(net.sim))
        L2LearningSwitch(nexus)
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1)
        net.add_link(h2, s1)
        net.add_controller(nexus)
        net.start()
        net.static_arp()
        tap = port_tap(net, h2)
        h1.send_udp(h2.ip, 5001, b"payload-for-pcap")
        net.run(1.0)
        return tap

    def test_pcap_global_header(self, tmp_path):
        tap = self._capture_some_traffic()
        path = tmp_path / "trace.pcap"
        written = write_pcap(str(path), tap.records)
        assert written == len(tap.records) > 0
        blob = path.read_bytes()
        magic, major, minor, _tz, _sig, snaplen, linktype = \
            struct.unpack("!IHHiIII", blob[:24])
        assert magic == 0xA1B2C3D4
        assert (major, minor) == (2, 4)
        assert linktype == 1  # Ethernet

    def test_records_parse_back_to_frames(self, tmp_path):
        tap = self._capture_some_traffic()
        path = tmp_path / "trace.pcap"
        write_pcap(str(path), tap.records)
        blob = path.read_bytes()
        offset = 24
        frames = []
        while offset < len(blob):
            _sec, _usec, incl_len, orig_len = struct.unpack_from(
                "!IIII", blob, offset)
            assert incl_len == orig_len
            offset += 16
            frames.append(Ethernet.unpack(blob[offset:offset + incl_len]))
            offset += incl_len
        assert len(frames) == len(tap.records)
        payloads = [frame.raw_payload() for frame in frames]
        assert any(b"payload-for-pcap" in payload
                   for payload in payloads)

    def test_timestamps_monotonic(self, tmp_path):
        tap = self._capture_some_traffic()
        path = tmp_path / "trace.pcap"
        write_pcap(str(path), tap.records)
        blob = path.read_bytes()
        offset = 24
        stamps = []
        while offset < len(blob):
            sec, usec, incl_len, _orig = struct.unpack_from("!IIII",
                                                            blob, offset)
            stamps.append(sec + usec * 1e-6)
            offset += 16 + incl_len
        assert stamps == sorted(stamps)

    def test_snaplen_truncates(self, tmp_path):
        tap = self._capture_some_traffic()
        path = tmp_path / "short.pcap"
        write_pcap(str(path), tap.records, snaplen=20)
        blob = path.read_bytes()
        _sec, _usec, incl_len, orig_len = struct.unpack_from(
            "!IIII", blob, 24)
        assert incl_len == 20
        assert orig_len > 20


def padded_udp_frame(src, dst):
    """A 2-byte datagram with no UDP checksum (0), padded to Ethernet's
    60-byte minimum: re-serializing it gives different bytes."""
    wire = bytearray(pack_udp_frame(dst.mac.raw, src.mac.raw,
                                    src.ip.to_int(), dst.ip.to_int(),
                                    40000, 5001, b"hi"))
    wire[40:42] = b"\x00\x00"
    return bytes(wire.ljust(60, b"\x00"))


def pcap_records(path):
    blob = path.read_bytes()
    offset, records = 24, []
    while offset < len(blob):
        sec, usec, incl_len, _orig = struct.unpack_from("!IIII", blob,
                                                        offset)
        offset += 16
        records.append((sec, usec, blob[offset:offset + incl_len]))
        offset += incl_len
    return records


class TestPcapFidelity:
    def test_capture_writes_the_received_bytes(self, tmp_path):
        net = Network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        net.add_link(h1, h2, delay=0.001)
        net.static_arp()
        net.start()
        tap = port_tap(net, h2)
        wire = padded_udp_frame(h1, h2)
        h1._primary.send(wire)
        net.run(0.5)
        assert h2.udp_rx_count == 1
        path = tmp_path / "rx.pcap"
        write_pcap(str(path), tap.records)
        assert [data for _s, _u, data in pcap_records(path)] == [wire]

    def test_capture_timestamps_round_to_the_microsecond(self, tmp_path):
        net = Network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        net.add_link(h1, h2)
        net.static_arp()
        net.start()
        tap = port_tap(net, h1)
        net.sim.schedule(0.0157, h1.send_udp, h2.ip, 5001, b"x")
        net.run(0.5)
        path = tmp_path / "tx.pcap"
        write_pcap(str(path), tap.records)
        assert [(sec, usec) for sec, usec, _d in pcap_records(path)] == [
            (0, 15700)]

    def test_rounding_carries_into_the_seconds(self, tmp_path):
        path = tmp_path / "carry.pcap"
        write_pcap(str(path), [SimpleNamespace(time=1.9999996,
                                               data=b"\x00" * 60)])
        assert [(sec, usec) for sec, usec, _d in pcap_records(path)] == [
            (2, 0)]
