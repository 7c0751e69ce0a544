"""Tests for the per-link flight recorder (repro.netem.recorder)."""

import struct

import pytest

from repro.core import ESCAPE
from repro.core.sgfile import load_topology
from repro.netem import FlightRecorder, Network, RecorderError
from repro.packet import Ethernet, IPv4, UDP, frame_probe
from repro.sim import Simulator

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "s1", "to": "s2", "delay": 0.001},
        {"from": "s2", "to": "h2", "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
    ],
}

SG = {
    "name": "rec-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow all"}}],
    "chain": ["h1", "fw", "h2"],
    "requirements": [{"from": "h1", "to": "h2", "max_delay": 0.05}],
}


def small_net():
    """Two hosts on one link, no controller needed."""
    sim = Simulator()
    net = Network(sim)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.add_link(h1, h2, delay=0.001)
    net.static_arp()
    net.start()
    return sim, net, h1, h2


@pytest.fixture
def escape():
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
    framework.start()
    return framework


class TestLinkTap:
    def test_tap_records_both_directions(self):
        sim, net, h1, h2 = small_net()
        recorder = FlightRecorder(net)
        tap = recorder.attach(net.links[0])
        h1.send_udp(h2.ip, 5000, b"payload")
        net.run(0.5)
        directions = {record.direction for record in tap.records}
        assert directions == {"tx", "rx"}
        # each frame appears once per direction
        assert len(tap.records) % 2 == 0

    def test_untapped_link_has_no_overhead_hooks(self):
        sim, net, _h1, _h2 = small_net()
        assert net.links[0].taps == []

    def test_ring_evicts_oldest(self):
        sim, net, h1, h2 = small_net()
        recorder = FlightRecorder(net)
        tap = recorder.attach(net.links[0], capacity=4)
        for _ in range(10):
            h1.send_udp(h2.ip, 5000, b"x")
        net.run(1.0)
        assert len(tap.records) == 4
        assert tap.evicted == tap.matched - 4
        assert tap.evicted > 0
        # the survivors are the most recent records
        sequences = [record.seq for record in tap.records]
        assert sequences == sorted(sequences)
        assert sequences[-1] == tap.matched - 1

    def test_attach_is_idempotent(self):
        sim, net, _h1, _h2 = small_net()
        recorder = FlightRecorder(net)
        tap1 = recorder.attach(net.links[0])
        tap2 = recorder.attach(net.links[0])
        assert tap1 is tap2
        assert len(net.links[0].taps) == 1

    def test_detach_removes_hook(self):
        sim, net, h1, h2 = small_net()
        recorder = FlightRecorder(net)
        tap = recorder.attach(net.links[0])
        recorder.detach(tap.label)
        assert net.links[0].taps == []
        with pytest.raises(RecorderError):
            recorder.detach(tap.label)

    def test_attach_unknown_link_rejected(self):
        sim, net, _h1, _h2 = small_net()
        recorder = FlightRecorder(net)
        with pytest.raises(RecorderError):
            recorder.attach("no-such-link")

    def test_attach_rejects_a_port_that_is_not_an_end(self):
        sim, net, _h1, _h2 = small_net()
        recorder = FlightRecorder(net)
        with pytest.raises(RecorderError, match="h9-eth0.*h1-eth0<->h2-eth0"):
            recorder.attach(net.links[0], port="h9-eth0")
        assert net.links[0].taps == [] and not recorder.taps
        assert recorder.attach(net.links[0], port="h2-eth0").port \
            == "h2-eth0"

    def test_counters_move_while_taps_record(self):
        sim, net, h1, h2 = small_net()
        recorder = FlightRecorder(net)
        metrics = sim.telemetry.metrics

        def counter(name):
            return metrics.snapshot()["netem.recorder." + name]

        # no tap, no change: the counters stay untouched
        assert counter("frames") == counter("evicted") == {
            "type": "counter", "last_updated": None, "value": 0}
        tap = recorder.attach(net.links[0], capacity=4)
        for _ in range(10):
            h1.send_udp(h2.ip, 5000, b"x")
        net.run(1.0)
        # read while the tap is still attached
        assert counter("frames")["value"] == tap.matched == 20
        assert counter("evicted")["value"] == tap.evicted == 16
        stamp = counter("frames")["last_updated"]
        net.run(1.0)  # nothing more crosses the link
        assert counter("frames")["last_updated"] == stamp
        # detach counts nothing twice; a later tap adds to the total
        recorder.detach(tap.label)
        assert counter("frames")["value"] == 20
        recorder.attach(net.links[0])
        h1.send_udp(h2.ip, 5000, b"x")
        net.run(1.0)
        assert counter("frames")["value"] == 22
        assert counter("evicted")["value"] == 16


class TestPcapExport:
    def test_round_trip(self, tmp_path):
        sim, net, h1, h2 = small_net()
        recorder = FlightRecorder(net)
        recorder.attach(net.links[0])
        for _ in range(3):
            h1.send_udp(h2.ip, 5000, b"hello pcap")
        net.run(1.0)
        path = tmp_path / "flight.pcap"
        count = recorder.export_pcap(str(path))
        assert count > 0
        blob = path.read_bytes()
        magic, major, minor = struct.unpack("!IHH", blob[:8])
        assert magic == 0xA1B2C3D4
        assert (major, minor) == (2, 4)
        linktype = struct.unpack("!I", blob[20:24])[0]
        assert linktype == 1  # Ethernet
        # walk every record and re-parse the frames
        offset = 24
        parsed = 0
        while offset < len(blob):
            _sec, _usec, caplen, wirelen = struct.unpack(
                "!IIII", blob[offset:offset + 16])
            assert caplen == wirelen
            frame = Ethernet.unpack(blob[offset + 16:offset + 16 + caplen])
            assert frame.find(IPv4) is not None or frame.payload
            offset += 16 + caplen
            parsed += 1
        assert parsed == count

    def test_direction_filter_avoids_duplicates(self, tmp_path):
        sim, net, h1, h2 = small_net()
        recorder = FlightRecorder(net)
        tap = recorder.attach(net.links[0])
        h1.send_udp(h2.ip, 5000, b"x")
        net.run(0.5)
        rx_only = recorder.export_pcap(str(tmp_path / "rx.pcap"))
        both = recorder.export_pcap(str(tmp_path / "both.pcap"),
                                    direction="both")
        assert both == len(tap.records)
        assert rx_only == both // 2


    def test_records_the_bytes_that_crossed_the_wire(self, tmp_path):
        from tests.test_netem_jitter_pcap import padded_udp_frame, pcap_records
        sim, net, h1, h2 = small_net()
        recorder = FlightRecorder(net)
        recorder.attach(net.links[0])
        wire = padded_udp_frame(h1, h2)
        sim.schedule(0.0157, h1._primary.send, wire)
        net.run(0.5)
        path = tmp_path / "tx.pcap"
        assert recorder.export_pcap(str(path), direction="tx") == 1
        assert pcap_records(path) == [(0, 15700, wire)]


class TestTraceJoin:
    def test_probe_frames_carry_trace_ids(self, escape):
        chain = escape.deploy_service(SG)
        taps = escape.recorder.attach_chain(chain)
        assert taps
        escape.run(2.0)
        monitor = escape.sla_monitors["rec-chain"]
        report = monitor.last_report("h1", "h2")
        records = escape.recorder.records(trace_id=report.trace_id)
        assert records
        for record in records:
            assert record.probe.chain == "rec-chain"
            assert record.trace_id == report.trace_id

    def test_join_resolves_to_sla_probe_span(self, escape):
        chain = escape.deploy_service(SG)
        escape.recorder.attach_chain(chain)
        escape.run(2.0)
        monitor = escape.sla_monitors["rec-chain"]
        report = monitor.last_report("h1", "h2")
        record = escape.recorder.records(trace_id=report.trace_id)[0]
        span = escape.recorder.find_span(record)
        assert span is not None
        assert span.name == "sla.probe"
        assert span.tags["chain"] == "rec-chain"

    def test_render_is_one_line_naming_the_probe(self, escape):
        chain = escape.deploy_service(SG)
        escape.recorder.attach_chain(chain)
        escape.run(2.0)
        report = escape.sla_monitors["rec-chain"].last_report("h1", "h2")
        record = escape.recorder.records(trace_id=report.trace_id)[0]
        probe = record.probe
        text = record.render()
        assert "\n" not in text
        assert text.startswith("%.6f %-3s %s" % (
            record.time, record.direction, record.link_name))
        assert "%d bytes" % len(record.data) in text
        assert text.endswith("  probe rec-chain #%d.%d trace=%d" % (
            probe.seq, probe.index, report.trace_id))
        assert repr(record) == "TapRecord(%s)" % text

    def test_non_probe_frames_have_no_trace(self):
        sim, net, h1, h2 = small_net()
        recorder = FlightRecorder(net)
        tap = recorder.attach(net.links[0])
        h1.send_udp(h2.ip, 5000, b"ordinary traffic")
        net.run(0.5)
        udp_records = [record for record in tap.records
                       if record.frame.find(UDP) is not None]
        assert udp_records
        assert all(record.trace_id is None for record in udp_records)
        assert all("probe" not in record.render()
                   for record in udp_records)


class TestChainAndPortTaps:
    def test_attach_chain_covers_mapped_links(self, escape):
        chain = escape.deploy_service(SG)
        taps = escape.recorder.attach_chain(chain)
        tapped = {tap.link.name for tap in taps}
        # the access links of both SAPs are on the mapped paths
        h1_links = {link.name for link
                    in escape.net.links_of("h1")}
        h2_links = {link.name for link
                    in escape.net.links_of("h2")}
        assert tapped & h1_links
        assert tapped & h2_links

    def test_attach_port_narrows_to_interface(self, escape):
        switch = escape.net.get("s1")
        intf = next(iter(switch.interfaces.values()))
        port_no = switch.port_number(intf)
        tap = escape.recorder.attach_port("s1", port_no)
        assert tap.port == intf.name
        escape.deploy_service(SG)
        escape.run(1.0)
        assert all(record.port == intf.name for record in tap.records)
        assert tap.matched <= tap.observed

    def test_cli_record_commands(self, escape, tmp_path):
        cli = escape.cli()
        assert "no taps" in cli.run_command("record")
        escape.deploy_service(SG)
        out = cli.run_command("record chain rec-chain")
        assert "recording" in out
        escape.run(1.0)
        assert "KEPT" in cli.run_command("record status")
        pcap = tmp_path / "cli.pcap"
        out = cli.run_command("record pcap %s" % pcap)
        assert "wrote" in out
        assert pcap.exists()
        assert "stopped" in cli.run_command("record stop all")
        assert "no taps" in cli.run_command("record")

    def test_cli_record_pcap_keeps_one_probe_trace(self, escape, tmp_path):
        from tests.test_netem_jitter_pcap import pcap_records
        cli = escape.cli()
        escape.deploy_service(SG)
        cli.run_command("record chain rec-chain")
        escape.run(1.0)
        report = escape.sla_monitors["rec-chain"].last_report("h1", "h2")
        wanted = [record for record
                  in escape.recorder.records(trace_id=report.trace_id)
                  if record.direction == "rx"]
        assert wanted
        pcap = tmp_path / "probe.pcap"
        out = cli.run_command("record pcap %s %d" % (pcap, report.trace_id))
        assert out == "wrote %d frames to %s" % (len(wanted), pcap)
        written = pcap_records(pcap)
        assert [data for _s, _u, data in written] == [
            record.data for record in wanted]
        assert {frame_probe(Ethernet.unpack(data)).trace_id
                for _s, _u, data in written} == {report.trace_id}
