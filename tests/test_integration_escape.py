"""End-to-end tests: the five demo steps of the paper, plus failure
paths, teardown and multi-chain coexistence."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core import ESCAPE, MappingError, OrchestratorError, verify_sla
from repro.core.nffg import ServiceGraph
from repro.core.sgfile import load_service_graph, load_topology
from repro.openflow import Match
from repro.packet import Ethernet, IPv4
from tests.audit import udp_flowspec

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 4, "mem": 2048},
        {"name": "nc2", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "bandwidth": 100e6, "delay": 0.001},
        {"from": "s1", "to": "s2", "bandwidth": 100e6, "delay": 0.002},
        {"from": "h2", "to": "s2", "bandwidth": 100e6, "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc2", "to": "s2", "delay": 0.0005},
        {"from": "nc2", "to": "s2", "delay": 0.0005},
    ],
}

FIREWALL_SG = {
    "name": "fw-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow icmp, drop all"}}],
    "chain": ["h1", "fw", "h2"],
    "requirements": [{"from": "h1", "to": "h2", "max_delay": 0.05}],
}


@pytest.fixture
def escape():
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
    framework.start()
    return framework


class TestStep1Infrastructure:
    def test_all_layers_wired(self, escape):
        # infrastructure
        assert len(escape.net.switches()) == 2
        assert len(escape.net.vnf_containers()) == 2
        # controller platform saw every switch
        assert len(escape.nexus.connections) == 2
        # management plane: one NETCONF session per container
        assert set(escape.netconf_clients) == {"nc1", "nc2"}
        for client in escape.netconf_clients.values():
            assert client.session_id is not None and not client.closed
        # service layer + mappers present
        assert set(escape.mappers) >= {"greedy", "shortest-path",
                                       "backtracking",
                                       "congestion-aware"}

    def test_discovery_found_the_spine(self, escape):
        escape.orchestrator.verify_topology(escape.discovery)
        assert len(escape.discovery.links()) == 1

    def test_plain_connectivity_before_chains(self, escape):
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=2, interval=0.2)
        escape.run(2.0)
        assert result.received == 2


class TestStep2And3DeployChain:
    def test_deploy_reports_placement(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        assert chain.active
        assert chain.mapping.vnf_placement["fw"] in ("nc1", "nc2")
        assert len(chain.path_ids) >= 3  # 2 segments + return path

    def test_vnf_started_in_container(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        container = escape.net.get(chain.mapping.vnf_placement["fw"])
        assert len(container.vnfs) == 1
        process = next(iter(container.vnfs.values()))
        assert process.status == "UP"

    def test_steering_entries_installed(self, escape):
        escape.deploy_service(FIREWALL_SG)
        escape.run(0.1)
        total_flows = sum(len(s.datapath.table)
                          for s in escape.net.switches())
        assert total_flows >= 3

    def test_resources_reserved(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        placed = chain.mapping.vnf_placement["fw"]
        snapshot = escape.orchestrator.view.snapshot()[placed]
        assert snapshot["cpu_used"] == pytest.approx(0.5)

    def test_mapper_selectable_by_name(self, escape):
        chain = escape.deploy_service(FIREWALL_SG, mapper="backtracking")
        assert chain.mapper.name == "backtracking"

    def test_unknown_mapper_rejected(self, escape):
        with pytest.raises(KeyError):
            escape.deploy_service(FIREWALL_SG, mapper="oracle")

    def test_duplicate_service_rejected(self, escape):
        escape.deploy_service(FIREWALL_SG)
        with pytest.raises(OrchestratorError):
            escape.deploy_service(FIREWALL_SG)

    def test_deploy_before_start_rejected(self):
        framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
        with pytest.raises(RuntimeError):
            framework.deploy_service(FIREWALL_SG)

    def test_infeasible_request_rolls_back(self, escape):
        impossible = dict(FIREWALL_SG)
        impossible = load_service_graph(impossible)
        impossible.vnfs["fw"].cpu = 100.0
        with pytest.raises(MappingError):
            escape.deploy_service(impossible)
        # nothing left behind
        for container in escape.net.vnf_containers():
            assert container.vnfs == {}
        assert escape.steering.paths == {}


class TestStep4LiveTraffic:
    def test_icmp_passes_through_chain(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=5, interval=0.2)
        escape.run(3.0)
        assert result.received == 5
        assert int(chain.read_handler("fw", "fw.passed")) >= 5

    def test_udp_blocked_by_firewall(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.send_udp(h2.ip, 9999, b"should-be-dropped")
        escape.run(0.5)
        assert h2.udp_rx_count == 0
        assert int(chain.read_handler("fw", "fw.dropped")) >= 1

    def test_traffic_actually_crosses_the_vnf(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.ping(h2.ip, count=3, interval=0.1)
        escape.run(2.0)
        assert int(chain.read_handler("fw", "cnt_in.count")) >= 3

    def test_chain_rtt_includes_detour(self, escape):
        """The chained path detours via the container, so RTT must
        exceed the direct-path RTT."""
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        baseline = h1.ping(h2.ip, count=3, interval=0.1)
        escape.run(2.0)
        escape.deploy_service(FIREWALL_SG)
        chained = h1.ping(h2.ip, count=3, interval=0.1)
        escape.run(2.0)
        assert chained.received == 3
        # steered forward path adds at least the container links
        assert chained.avg_rtt > 0.0

    def test_sla_verification(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        reports = verify_sla(chain, probes=3)
        assert len(reports) == 1
        assert reports[0].satisfied
        assert reports[0].measured_delay < 0.05


class TestStep5Monitoring:
    def test_monitor_collects_series(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        monitor = escape.monitor(chain, interval=0.2)
        monitor.start()
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.ping(h2.ip, count=5, interval=0.1)
        escape.run(2.0)
        monitor.stop()
        latest = monitor.latest("fw", "cnt_in.count")
        assert latest is not None
        assert int(latest.value) >= 5
        series = monitor.series[("fw", "cnt_in.count")]
        assert len(series) >= 5  # several polls landed

    def test_monitor_rate_computation(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        monitor = escape.monitor(chain, interval=0.25)
        monitor.start()
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.ping(h2.ip, count=10, interval=0.1)
        escape.run(1.2)
        rate = monitor.rate_of("fw", "cnt_in.count")
        monitor.stop()
        assert rate is not None
        assert rate > 0

    def test_dashboard_renders(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        monitor = escape.monitor(chain, interval=0.2)
        monitor.start()
        escape.run(1.0)
        monitor.stop()
        text = monitor.dashboard()
        assert "fw" in text
        assert "cnt_in.count" in text

    def test_monitor_stops_with_chain(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        monitor = escape.monitor(chain, interval=0.2)
        monitor.start()
        escape.run(0.5)
        chain.undeploy()
        escape.run(1.0)
        assert not monitor.running


class TestTeardown:
    def test_undeploy_stops_vnfs_and_flows(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        escape.run(0.2)
        chain.undeploy()
        escape.run(0.2)
        for container in escape.net.vnf_containers():
            assert container.vnfs == {}
        steering_flows = [entry
                          for switch in escape.net.switches()
                          for entry in switch.datapath.table.entries
                          if entry.priority >= 0x6000]
        assert steering_flows == []

    def test_undeploy_releases_resources(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        placed = chain.mapping.vnf_placement["fw"]
        chain.undeploy()
        snapshot = escape.orchestrator.view.snapshot()[placed]
        assert snapshot["cpu_used"] == pytest.approx(0.0)

    def test_undeploy_is_idempotent(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        chain.undeploy()
        chain.undeploy()

    def test_traffic_unfiltered_after_teardown(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.send_udp(h2.ip, 9999, b"blocked")
        escape.run(0.5)
        assert h2.udp_rx_count == 0
        chain.undeploy()
        escape.run(0.2)
        h1.send_udp(h2.ip, 9999, b"open")
        escape.run(1.0)
        assert h2.udp_rx_count == 1

    def test_redeploy_after_teardown(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        escape.terminate_service("fw-chain")
        chain2 = escape.deploy_service(FIREWALL_SG)
        assert chain2.active


class TestMultiChain:
    def test_two_chains_coexist(self, escape):
        """Each chain on a flowspec of its own."""
        escape.deploy_service(FIREWALL_SG,
                              match=udp_flowspec(escape, 5001))
        second = {
            "name": "mon-chain",
            "saps": ["h2", "h1"],
            "vnfs": [{"name": "mon", "type": "monitor"}],
            "chain": ["h2", "mon", "h1"],
        }
        chain2 = escape.deploy_service(
            second, match=udp_flowspec(escape, 5002, "h2", "h1"),
            return_path="none")
        assert len(escape.orchestrator.deployed) == 2
        assert chain2.mapping.vnf_placement["mon"] in ("nc1", "nc2")

    def test_multi_vnf_chain_same_container_hairpin(self, escape):
        sg = {
            "name": "double",
            "saps": ["h1", "h2"],
            "vnfs": [
                {"name": "a", "type": "forwarder"},
                {"name": "b", "type": "forwarder"},
            ],
            "chain": ["h1", "a", "b", "h2"],
        }
        chain = escape.deploy_service(sg, mapper="backtracking")
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=3, interval=0.2)
        escape.run(3.0)
        assert result.received == 3
        assert int(chain.read_handler("a", "cnt_in.count")) >= 3
        assert int(chain.read_handler("b", "cnt_in.count")) >= 3


class TestCustomMapperPlugin:
    def test_user_supplied_mapper(self, escape):
        from repro.core.mapping import GreedyMapper

        class LastContainerMapper(GreedyMapper):
            """Toy strategy: always prefer the last container."""
            name = "last-container"

            def map(self, sg, view):
                # reverse container iteration order by monkeypatching
                # the trial copy's container list
                original = view.containers
                mapping = super().map(sg, view)
                return mapping

        escape.add_mapper("last", LastContainerMapper(escape.catalog))
        chain = escape.deploy_service(FIREWALL_SG, mapper="last")
        assert chain.active


class TestExplicitMatch:
    def test_custom_flowspec(self, escape):
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        match = Match(dl_type=Ethernet.IP_TYPE, nw_src=h1.ip,
                      nw_dst=h2.ip, nw_proto=IPv4.UDP_PROTOCOL,
                      tp_dst=5001)
        sg = dict(FIREWALL_SG)
        sg["name"] = "udp-only"
        chain = escape.deploy_service(sg, match=match)
        # UDP:5001 goes through the chain (and gets dropped by rules);
        # other traffic bypasses it.  (fw.dropped also counts the SLA
        # probes the chain's max_delay requirement sends, so assert on
        # delivery, not exact drops.)
        h1.send_udp(h2.ip, 5001, b"chained")
        h1.send_udp(h2.ip, 9999, b"bypass")
        escape.run(1.0)
        assert h2.udp_rx_count == 1
        assert int(chain.read_handler("fw", "fw.dropped")) >= 1


class TestTelemetry:
    """A full demo deploy must leave behind a complete, well-nested
    trace and a metrics snapshot covering all three UNIFY layers."""

    def test_deploy_produces_nested_trace(self, escape):
        escape.deploy_service(FIREWALL_SG)
        trace = escape.last_trace()
        assert trace is not None
        assert trace.name == "service.deploy"
        assert trace.status == "ok"
        assert trace.tags["service"] == "fw-chain"
        # service.deploy -> orchestrator.deploy -> start_vnf ->
        # netconf.rpc is already four levels; steering goes one deeper
        assert trace.depth() >= 4
        for name in ("service.parse_sg", "orchestrator.deploy",
                     "orchestrator.map", "orchestrator.start_vnf",
                     "netconf.rpc", "orchestrator.install_segment",
                     "steering.install_path", "openflow.flow_mod"):
            assert trace.find(name), "missing span %s" % name

    def test_trace_spans_are_well_nested(self, escape):
        escape.deploy_service(FIREWALL_SG)
        trace = escape.last_trace()
        for span in trace.iter_spans():
            assert span.status == "ok"
            assert span.duration is not None and span.duration >= 0
            for child in span.children:
                assert child.start >= span.start
                assert child.end <= span.end
        # the startVNF RPC precedes its connectVNF RPCs in sim time
        rpc_ops = [span.tags["op"]
                   for span in trace.find("netconf.rpc")]
        assert rpc_ops[0] == "startVNF"
        assert "connectVNF" in rpc_ops

    def test_last_trace_survives_traffic(self, escape):
        """Neither dataplane traffic nor SLA probes may evict the deploy
        trace: 6,000 datagrams are > 16 x 256 passes through each switch
        on the chain, and the chain's SLA is probed every 0.5 s, so ten
        seconds leave 20 ``sla.probe`` traces, more than the tracer's
        16-trace ring holds.  The console's ``trace`` prints it."""
        sg = dict(FIREWALL_SG, vnfs=[
            {"name": "fw", "type": "firewall",
             "params": {"rules": "allow udp, drop all"}}])
        escape.deploy_service(sg)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.start_udp_flow(h2.ip, 5001, rate_pps=5000, duration=1.2,
                          payload_size=64)
        escape.run(10.0)
        assert h2.udp_rx_count == 6000
        trace = escape.last_trace()
        assert trace is not None and trace.name == "service.deploy"
        assert escape.cli().run_command("trace").startswith(
            "service.deploy")

    def test_snapshot_covers_all_three_layers(self, escape):
        escape.deploy_service(FIREWALL_SG)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.ping(h2.ip, count=3, interval=0.05)
        escape.run(2.0)
        metrics = escape.metrics_snapshot()
        # service layer
        assert metrics["service.layer.deploys"]["value"] == 1
        # orchestration layer
        assert metrics["core.orchestrator.deploys"]["value"] == 1
        assert metrics["core.mapping.map_calls"]["value"] == 1
        assert metrics["netconf.client.rpcs"]["value"] >= 3
        assert metrics["pox.steering.flow_mods"]["value"] >= 4
        # infrastructure layer (collector-fed gauges)
        assert metrics["netconf.agent.rpcs"]["value"] >= 3
        assert metrics["openflow.switch.flow_mods"]["value"] >= 4
        assert metrics["netem.link.delivered"]["value"] > 0
        assert metrics["click.element.pushes"]["value"] > 0
        assert metrics["core.orchestrator.deploy_time"]["count"] == 1

    def test_export_formats(self, escape, tmp_path):
        import json as json_module
        escape.deploy_service(FIREWALL_SG)
        data = json_module.loads(escape.export_metrics("json"))
        assert data["metrics"]["service.layer.deploys"]["value"] == 1
        assert data["traces"]
        prom = escape.export_metrics("prom")
        assert "# TYPE service_layer_deploys counter" in prom
        assert "# TYPE netconf_client_rpc_latency histogram" in prom
        assert 'netconf_client_rpc_latency_bucket{le="+Inf"}' in prom
        path = tmp_path / "snap.json"
        escape.export_metrics("json", str(path))
        assert json_module.loads(path.read_text())["metrics"]
        with pytest.raises(ValueError):
            escape.export_metrics("xml")

    def test_cli_metrics_and_trace_commands(self, escape):
        escape.deploy_service(FIREWALL_SG)
        cli = escape.cli()
        assert "service_layer_deploys 1" in cli.run_command("metrics prom")
        json_out = cli.run_command("metrics")
        assert '"service.layer.deploys"' in json_out
        trace_out = cli.run_command("trace")
        assert trace_out.startswith("service.deploy")
        assert "netconf.rpc" in trace_out

    def test_monitor_counters_live_in_registry(self, escape):
        chain = escape.deploy_service(FIREWALL_SG)
        monitor = escape.monitor(chain, interval=0.5)
        monitor.start()
        escape.run(1.2)
        monitor.stop()
        assert monitor.polls >= 2
        registry = escape.telemetry.metrics
        assert registry.get("core.monitor.polls").value >= 2
        assert registry.get("pox.stats.poll_rounds").value >= 1


class TestInstanceIsolation:
    """One telemetry bundle per emulation: two frameworks in one
    process share nothing, and a rebuilt one starts clean."""

    def test_link_failure_stays_in_its_own_instance(self):
        first = ESCAPE.from_topology(load_topology(TOPOLOGY))
        second = ESCAPE.from_topology(load_topology(TOPOLOGY))
        first.start()
        second.start()
        assert first.telemetry is first.net.sim.telemetry
        assert first.telemetry is not second.telemetry
        second_events = len(second.telemetry.events)
        second_metrics = second.metrics_snapshot()
        first_events = len(first.telemetry.events)
        first.net.links_between("s1", "s2")[0].set_up(False)
        first.run(1.0)
        second.run(1.0)
        names = [event.name
                 for event in first.telemetry.events.events()[first_events:]]
        assert names.count("link.down") == 1
        assert names.count("of.port.down") == 2
        # the first's RecoveryManager heard about its own link
        assert names.count("recovery.scheduled") == 1
        assert first.recovery.actions
        assert len(second.telemetry.events) == second_events
        assert second.recovery.actions == []
        assert second.recovery.pending() == []
        after = second.metrics_snapshot()
        watched = [name for name in second_metrics if name.startswith(
            ("core.recovery.", "telemetry.events.", "netem.link.dropped"))]
        assert watched
        for name in watched:
            assert after[name]["value"] == second_metrics[name]["value"], \
                name
        first.stop()
        second.stop()

    def test_known_frames_belong_to_one_instance(self):
        first = ESCAPE.from_topology(load_topology(TOPOLOGY))
        second = ESCAPE.from_topology(load_topology(TOPOLOGY))
        for escape in (first, second):
            escape.start()
            escape.net.static_arp()
        assert first.sim.frames is not second.sim.frames
        h1, h2 = first.net.get("h1"), first.net.get("h2")
        for index in range(20):
            h1.send_udp(h2.ip, 7000, b"datagram %d" % index)
        first.run(0.5)
        second.run(0.5)
        assert h2.udp_rx_count == 20
        mine, other = first.sim.frames, second.sim.frames
        # two emulations that did the same control work differ by the
        # traffic of one: per datagram a parse by the first switch and
        # one by the host for its own view, while the second switch
        # found the frame known
        assert (len(mine), mine.parsed, mine.known) \
            == (len(other) + 20, other.parsed + 40, other.known + 20)
        for escape, table in ((first, mine), (second, other)):
            snapshot = escape.metrics_snapshot()
            assert [snapshot["dataplane.frames." + name]["value"]
                    for name in ("parsed", "known", "resets")] \
                == [table.parsed, table.known, 0]
        first.stop()
        assert len(first.sim.frames) == 0  # no frame outlives stop()
        second.stop()

    def test_rebuilt_instances_start_clean(self):
        for _round in range(3):
            escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
            assert len(escape.telemetry.tracer.traces) == 0
            assert len(escape.telemetry.events) == 0
            assert escape.profiler.entries == 0
            escape.start()
            escape.profiler.enable()
            escape.deploy_service(FIREWALL_SG)
            escape.run(1.0)
            assert escape.telemetry.tracer.traces
            assert len(escape.telemetry.events) > 0
            assert escape.profiler.entries > 0
            escape.stop()
            # the emulator's `mn -c`: no heartbeat (LLDP, stats poll,
            # series sampler, SLA probe deadline) outlives stop(), so
            # an open-ended run has nothing to do and returns
            assert escape.sim.pending == 0
            assert escape.sim.run() == 0
            escape.stop()  # idempotent
            assert escape.sim.pending == 0

    def test_stopped_instance_refuses_to_start(self):
        """``stop()`` unwires the emulation (a stopped one is freed by
        reference counting), so it cannot come back up."""
        escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
        escape.start()
        escape.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            escape.start()


_KNOWN_FRAMES_SCENARIO = """
import struct
from repro.core import ESCAPE
from repro.core.sgfile import load_topology
from repro.sim import KnownFrames

TOPOLOGY = %r
KnownFrames.CAP = 16   # far fewer than are in flight: forgotten mid-path
escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
escape.start()
escape.deploy_service({"name": "c", "saps": ["h1", "h2"],
                       "vnfs": [{"name": "v0", "type": "forwarder"}],
                       "chain": ["h1", "v0", "h2"]})
sim, h1, h2 = escape.sim, escape.net.get("h1"), escape.net.get("h2")
h2.bind_udp(7000, lambda srcip, sport, payload: print(
    "rx", repr(sim.now), sport, len(payload)))
h1.send_udp(h2.ip, 7000, b"resolve ARP first")
escape.run(0.5)
for index in range(300):
    sim.schedule(index / 5000.0, h1.send_udp, h2.ip, 7000,
                 struct.pack("!I", index).ljust(64 + index %% 7, b"."),
                 40000 + index %% 16)
h1.start_udp_flow(h2.ip, 7000, rate_pps=2000.0, duration=0.05,
                  payload_size=100, sport=50000)
escape.run(0.5)
for switch in escape.net.switches():
    datapath = switch.datapath
    print(switch.name, datapath.table_hit_count, datapath.table_miss_count,
          datapath.microflow_hit_count, datapath.packet_in_count,
          datapath.forwarded_count, datapath.dropped_count)
frames = sim.frames
print("frames", frames.parsed, frames.known, frames.resets, len(frames),
      len(frames.old))
print("sim", sim.processed, h2.udp_rx_count, h2.udp_rx_bytes)
escape.stop()
print("stopped", len(frames), len(frames.old), sim.pending)
"""


def test_known_frames_leave_no_trace_of_their_ids():
    """The table is keyed by ``id()``, which differs from process to
    process; nothing a run prints or counts may."""
    src = os.path.dirname(os.path.dirname(repro.__file__))

    def run(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", _KNOWN_FRAMES_SCENARIO % (TOPOLOGY,)],
            env=env, check=True, capture_output=True,
            text=True).stdout.splitlines()

    first, second = run("1"), run("2")
    assert first == second
    assert len([line for line in first if line.startswith("rx")]) == 401
    parsed, known, resets, young, old = map(int, first[-3].split()[1:])
    assert resets > 20 and young <= 16 and old <= 16
    # 400 frames, 3 switch passes and a host each: with generations of
    # 16 records, fewer than the frames in flight, many hops find theirs
    # forgotten
    assert parsed > 800 and known > 100
    assert first[-1] == "stopped 0 0 0"
