"""Tests for in-band flow telemetry: the sampled path tracer.

Two acceptance criteria for the subsystem live here: sampling is
deterministic (the same seed and scenario reproduce the byte-identical
sampled set AND the identical aggregated hop-latency breakdown), and
the chain-conformance checker flags an injected mis-steered flow.
Around them: the disabled-by-default contract, collector bounds, what
the digest reads (the frame's trailing 64 bytes), hop-latency
attribution through a deployed chain, the FlightRecorder trace-id
join, per-cause link drop counters in ``health()``, the JSONL export
and the ``escape flowtrace`` bundle reader.
"""

import json
import os
import struct

import pytest

from repro.cli import main as cli_main
from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph, load_topology
from repro.openflow import Match
from repro.packet import Ethernet, IPv4, UDP, Vlan
from repro.scenario.runner import CampaignRunner
from repro.telemetry.events import EventLog
from repro.telemetry.flowtrace import FlowTrace, FlowTraceError

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "bandwidth": 100e6, "delay": 0.001},
        {"from": "s1", "to": "s2", "bandwidth": 100e6, "delay": 0.002},
        {"from": "h2", "to": "s2", "bandwidth": 100e6, "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
    ],
}

CHAIN_SG = {
    "name": "trace-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "v0", "type": "forwarder"}],
    "chain": ["h1", "v0", "h2"],
}

FLOWTRACE_SCENARIO = {
    "name": "flowtrace-smoke",
    "duration": 2.0,
    "seeds": [1],
    "topology": {"kind": "fat_tree", "k": 2, "containers_per_pod": 1,
                 "container_ports": 4},
    "chains": {"count": 1, "templates": ["bump"]},
    "workload": {"subscribers_per_sap": 50, "flows_per_subscriber": 0.05,
                 "flow_rate_pps": 100, "flow_duration": 0.2,
                 "max_flows": 8},
    "sla": {"max_delay": 0.1},
    "flowtrace": {"rate": 8},
}


def unique_frame(index, sport=40000, dport=5001):
    """A packed UDP frame whose trailing bytes are unique to ``index``
    (mirrors what the workload driver and probe sender guarantee)."""
    payload = b"flowtrace-pad" * 8 + struct.pack("!I", index)
    return Ethernet(src="00:00:00:00:00:01", dst="00:00:00:00:00:02",
                    type=Ethernet.IP_TYPE,
                    payload=IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                                 protocol=IPv4.UDP_PROTOCOL,
                                 payload=UDP(srcport=sport, dstport=dport,
                                             payload=payload))).pack()


@pytest.fixture
def escape():
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
    framework.start()
    return framework


def drive_unique_udp(framework, packets=16, dport=5001):
    """Send ``packets`` UDP datagrams with per-packet-unique tails."""
    h1 = framework.net.get("h1")
    h2 = framework.net.get("h2")
    for index in range(packets):
        payload = (b"flowtrace-pad" * 8
                   + struct.pack("!Id", index, framework.sim.now))
        h1.send_udp(h2.ip, dport, payload)
        framework.run(0.002)
    framework.run(0.5)


class TestSampler:
    def test_disabled_by_default(self):
        tracer = FlowTrace()
        assert not tracer.enabled
        assert tracer.rate == FlowTrace.DEFAULT_RATE
        assert len(tracer) == 0

    def test_sampling_is_deterministic_per_seed(self):
        first = FlowTrace(seed=7).enable(rate=4)
        second = FlowTrace(seed=7).enable(rate=4)
        frames = [unique_frame(index) for index in range(256)]
        for time, frame in enumerate(frames):
            first.record("switch", "s1", float(time), frame, dpid=1)
            second.record("switch", "s1", float(time), frame, dpid=1)
        sampled = [trace["trace"] for trace in first.trace_records()]
        assert sampled  # 256 frames at 1/4 must catch some
        assert sampled == [trace["trace"]
                           for trace in second.trace_records()]

    def test_different_seed_samples_differently(self):
        frames = [unique_frame(index) for index in range(256)]
        seven = FlowTrace(seed=7).enable(rate=4)
        nine = FlowTrace(seed=9).enable(rate=4)
        for time, frame in enumerate(frames):
            seven.record("switch", "s1", float(time), frame, dpid=1)
            nine.record("switch", "s1", float(time), frame, dpid=1)
        assert ({t.id for t in seven._traces.values()}
                != {t.id for t in nine._traces.values()})

    def test_digest_invariant_under_vlan_tag(self):
        """The id reads only the trailing 64 bytes: a header change in
        front of them (here a VLAN tag) leaves it alone."""
        tracer = FlowTrace()
        payload = struct.pack("!I", 42) + b"flowtrace-pad" * 8
        plain = Ethernet(type=Ethernet.IP_TYPE,
                         payload=IPv4(protocol=IPv4.UDP_PROTOCOL,
                                      payload=UDP(srcport=1, dstport=2,
                                                  payload=payload)))
        tagged = Ethernet(type=Ethernet.VLAN_TYPE,
                          payload=Vlan(vid=55, type=Ethernet.IP_TYPE,
                                       payload=plain.payload))
        assert tracer.digest(plain.pack()) == tracer.digest(tagged.pack())

    def test_digest_changes_when_a_hop_rewrites_the_tail(self):
        """On a short frame the tail covers the IP header: a rewrite of
        the source address (a NAT) gives the packet a new id."""
        tracer = FlowTrace()

        def frame(srcip):
            return Ethernet(type=Ethernet.IP_TYPE,
                            payload=IPv4(srcip=srcip, dstip="10.0.0.2",
                                         protocol=IPv4.UDP_PROTOCOL,
                                         payload=UDP(srcport=1, dstport=2,
                                                     payload=b"x"))).pack()
        assert len(frame("10.0.0.1")) <= FlowTrace.DIGEST_TAIL
        assert (tracer.digest(frame("10.0.0.1"))
                != tracer.digest(frame("10.0.0.99")))

    def test_collector_is_bounded(self):
        tracer = FlowTrace(max_traces=4)
        tracer.enable(rate=1)
        for index in range(10):
            tracer.record("switch", "s1", float(index),
                          unique_frame(index), dpid=1)
        assert len(tracer) == 4
        assert tracer.evicted == 6

    def test_per_trace_hops_are_bounded(self):
        tracer = FlowTrace(max_hops=3)
        tracer.enable(rate=1)
        frame = unique_frame(0)
        for index in range(6):
            tracer.record("link.rx", "l%d" % index, float(index), frame)
        (trace,) = tracer._traces.values()
        assert len(trace.hops) == 3
        assert tracer.truncated == 3

    def test_rate_below_one_rejected(self):
        with pytest.raises(FlowTraceError, match="rate"):
            FlowTrace(rate=0)

    def test_reset_keeps_config_and_paths(self):
        tracer = FlowTrace(seed=3)
        tracer.enable(rate=1)
        tracer.register_path("c1/seg/1", "c1", Match(), [1, 2])
        tracer.record("switch", "s1", 0.0, unique_frame(1), dpid=1)
        tracer.reset()
        assert len(tracer) == 0 and tracer.postcards == 0
        assert tracer.registered_paths() == ["c1/seg/1"]
        assert tracer.rate == 1 and tracer.seed == 3


class TestConformance:
    @staticmethod
    def tracer_with_path(dpids, alt_dpids=None):
        events = EventLog()
        tracer = FlowTrace(events=events)
        tracer.enable(rate=1)
        match = Match(dl_type=Ethernet.IP_TYPE,
                      nw_proto=IPv4.UDP_PROTOCOL, tp_dst=5001)
        tracer.register_path("c1/h1->h2/1", "c1", match, dpids,
                             alt_dpids=alt_dpids)
        return tracer, events

    def test_injected_mis_steer_is_flagged(self):
        """A packet that visits a switch off its installed path raises
        ``flowtrace.nonconformant`` — the acceptance criterion."""
        tracer, events = self.tracer_with_path([1, 2])
        frame = unique_frame(1)
        tracer.record("switch", "s1", 0.000, frame, dpid=1)
        tracer.record("switch", "s3", 0.001, frame, dpid=3)  # mis-steer
        report = tracer.aggregate()
        assert report["chains"]["c1"]["nonconformant"] == 1
        warnings = events.query(min_severity="WARN",
                                name="flowtrace.nonconformant")
        assert len(warnings) == 1
        assert warnings[0].tags["chain"] == "c1"
        # re-aggregation must not duplicate the event
        tracer.aggregate()
        assert len(events.query(name="flowtrace.nonconformant")) == 1

    def test_on_path_flow_is_conformant(self):
        tracer, events = self.tracer_with_path([1, 2])
        frame = unique_frame(2)
        tracer.record("switch", "s1", 0.000, frame, dpid=1)
        tracer.record("switch", "s2", 0.001, frame, dpid=2)
        report = tracer.aggregate()
        assert report["chains"]["c1"]["nonconformant"] == 0
        assert not events.query(name="flowtrace.nonconformant")

    def test_partial_traversal_is_conformant(self):
        """A trace caught mid-path (contiguous subsequence) is fine."""
        tracer, _events = self.tracer_with_path([1, 2, 3, 4])
        frame = unique_frame(3)
        tracer.record("switch", "s2", 0.000, frame, dpid=2)
        tracer.record("switch", "s3", 0.001, frame, dpid=3)
        assert tracer.aggregate()["chains"]["c1"]["nonconformant"] == 0

    def test_backup_path_is_not_a_false_positive(self):
        """A fast-failover flip detours through registered backup
        switches — conformant, not mis-steering."""
        tracer, events = self.tracer_with_path([1, 2], alt_dpids=[3])
        frame = unique_frame(4)
        tracer.record("switch", "s1", 0.000, frame, dpid=1)
        tracer.record("switch", "s3", 0.001, frame, dpid=3)  # backup
        assert tracer.aggregate()["chains"]["c1"]["nonconformant"] == 0
        assert not events.query(name="flowtrace.nonconformant")

    def test_unregistered_traffic_is_unclassified(self):
        tracer = FlowTrace()
        tracer.enable(rate=1)
        tracer.record("switch", "s1", 0.0, unique_frame(5), dpid=1)
        report = tracer.aggregate()
        assert report["unclassified"] == 1
        assert report["chains"] == {}


class TestEscapeIntegration:
    def test_disabled_costs_nothing_and_collects_nothing(self, escape):
        escape.deploy_service(load_service_graph(CHAIN_SG))
        drive_unique_udp(escape, packets=8)
        assert escape.flowtrace.status()["postcards"] == 0
        assert len(escape.flowtrace) == 0

    def test_steering_registers_and_unregisters_paths(self, escape):
        chain = escape.deploy_service(load_service_graph(CHAIN_SG))
        registered = escape.flowtrace.registered_paths()
        assert registered
        assert all(path.startswith("trace-chain/") for path in registered)
        escape.terminate_service(chain.sg.name)
        assert escape.flowtrace.registered_paths() == []

    def test_attribution_covers_one_way_delay(self, escape):
        """At 1/1 sampling through a deployed chain, every hop delta is
        named and the deltas sum to the whole one-way delay."""
        escape.deploy_service(load_service_graph(CHAIN_SG))
        escape.flowtrace.enable(rate=1)
        drive_unique_udp(escape, packets=16)
        report = escape.flowtrace.aggregate()
        assert report["traces"] >= 16  # request + return directions
        summary = report["chains"]["trace-chain"]
        assert summary["traces"] >= 16
        assert summary["nonconformant"] == 0
        assert summary["attributed_ratio"] == pytest.approx(1.0)
        assert summary["one_way"]["p50"] > 0
        labels = {hop["hop"] for hop in summary["hops"]}
        assert any(label.startswith("link:") for label in labels)
        assert any(label.startswith("switch:") for label in labels)
        assert any(label.startswith("vnf:") for label in labels)
        shares = sum(hop["share"] for hop in summary["hops"])
        assert shares == pytest.approx(1.0)

    def test_recorder_joins_on_flow_trace_id(self, escape):
        """`escape record` output and telemetry postcards correlate on
        the same per-packet digest."""
        escape.deploy_service(load_service_graph(CHAIN_SG))
        for link in escape.net.links:
            escape.recorder.attach(link)
        escape.flowtrace.enable(rate=1)
        drive_unique_udp(escape, packets=4)
        trace_ids = [trace["trace"]
                     for trace in escape.flowtrace.trace_records()]
        assert trace_ids
        joined = escape.recorder.records(flow_trace=trace_ids[0])
        assert joined
        for record in joined:
            assert escape.recorder.flow_trace_id(record) == trace_ids[0]
        # and a different trace id selects a disjoint capture set
        other = escape.recorder.records(flow_trace=trace_ids[-1])
        assert {id(r) for r in joined}.isdisjoint(
            {id(r) for r in other}) or trace_ids[0] == trace_ids[-1]

    def test_health_reports_per_cause_drops_and_flowtrace(self, escape):
        health = escape.health()
        links = health["links"]
        for key in ("delivered", "dropped", "dropped_down",
                    "dropped_loss", "dropped_queue"):
            assert key in links
        status = health["flowtrace"]
        assert status["enabled"] is False
        assert status["postcards"] == 0

    def test_jsonl_round_trip(self, escape, tmp_path):
        """The JSONL file is the postcard log: a meta line, then one
        line per trace record, as ``trace_records`` returns them."""
        escape.deploy_service(load_service_graph(CHAIN_SG))
        escape.flowtrace.enable(rate=1)
        drive_unique_udp(escape, packets=8)
        live = escape.flowtrace.aggregate()
        path = tmp_path / "flowtrace.jsonl"
        written = escape.flowtrace.write_jsonl(str(path))
        assert written == live["traces"] > 0
        meta, *records = [json.loads(line)
                          for line in path.read_text().splitlines()]
        assert meta == {"meta": {"rate": 1, "seed": escape.flowtrace.seed,
                                 "traces": written,
                                 "postcards": escape.flowtrace.postcards,
                                 "evicted": 0}}
        assert records == json.loads(json.dumps(
            escape.flowtrace.trace_records()))
        assert sum(record["chain"] == "trace-chain"
                   for record in records) \
            == live["chains"]["trace-chain"]["traces"]

    def test_publish_exports_chain_gauges(self, escape):
        escape.deploy_service(load_service_graph(CHAIN_SG))
        escape.flowtrace.enable(rate=1)
        drive_unique_udp(escape, packets=4)
        escape.flowtrace.publish(escape.telemetry.metrics)
        snapshot = escape.metrics_snapshot()
        assert any(key.startswith("flowtrace.chain.one_way_p50")
                   for key in snapshot)
        assert any(key.startswith("flowtrace.chain.nonconformant")
                   for key in snapshot)


class TestScenarioDeterminism:
    """Satellite: same seed + same scenario => byte-identical sampled
    set and identical aggregated breakdown."""

    @pytest.fixture(scope="class")
    def twin_runs(self, tmp_path_factory):
        runs = []
        for label in ("a", "b"):
            results = tmp_path_factory.mktemp("flowtrace-%s" % label)
            runner = CampaignRunner(dict(FLOWTRACE_SCENARIO),
                                    results_dir=str(results))
            runner.run()
            runs.append(runner)
        return runs

    @staticmethod
    def jsonl_lines(runner):
        path = runner.bundles[0]["flowtrace"]["jsonl"]["path"]
        with open(path) as handle:
            return [line.rstrip("\n") for line in handle if line.strip()]

    def test_bundle_carries_flowtrace_report(self, twin_runs):
        bundle = twin_runs[0].bundles[0]
        assert bundle["schema"] == 6
        report = bundle["flowtrace"]
        assert report["rate"] == 8
        assert report["seed"] == 1  # defaults to the run seed
        assert report["traces"] > 0
        assert report["chains"]
        for summary in report["chains"].values():
            assert summary["nonconformant"] == 0
            assert summary["attributed_ratio"] >= 0.9

    def test_sampled_set_is_byte_identical(self, twin_runs):
        first, second = (self.jsonl_lines(runner) for runner in twin_runs)
        assert first == second
        trace_ids = [json.loads(line)["trace"] for line in first[1:]]
        assert trace_ids

    def test_aggregated_breakdown_is_identical(self, twin_runs):
        # the jsonl path embeds the per-run results dir; everything
        # else must match to the byte
        reports = []
        for runner in twin_runs:
            report = dict(runner.bundles[0]["flowtrace"])
            report.pop("jsonl", None)
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

    def test_cli_renders_breakdown(self, twin_runs, capsys):
        results_dir = os.path.dirname(
            twin_runs[0].bundles[0]["flowtrace"]["jsonl"]["path"])
        assert cli_main(["flowtrace", results_dir]) == 0
        out = capsys.readouterr().out
        assert "flowtrace: 1/8 sampling" in out
        assert "HOP" in out and "SHARE" in out

    def test_cli_json_output(self, twin_runs, capsys):
        run_dir = os.path.dirname(
            twin_runs[0].bundles[0]["flowtrace"]["jsonl"]["path"])
        bundle = os.path.join(run_dir, "bundle.json")
        assert cli_main(["flowtrace", bundle, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == twin_runs[0].bundles[0]["flowtrace"]
        assert report["traces"] > 0
        assert report["chains"]

    def test_cli_refuses_the_postcard_log(self, twin_runs, capsys):
        jsonl = twin_runs[0].bundles[0]["flowtrace"]["jsonl"]["path"]
        assert cli_main(["flowtrace", jsonl]) == 2
        err = capsys.readouterr().err
        assert jsonl in err and "bundle.json" in err

    def test_cli_rejects_missing_source(self, capsys):
        assert cli_main(["flowtrace", "/nonexistent/nowhere"]) == 2
        assert "no such file" in capsys.readouterr().err
