"""Tests for the SLA conformance monitor (repro.core.sla)."""

import pytest

from repro.core import ESCAPE, SLAError, SLAMonitor
from repro.core.sgfile import load_topology
from repro.packet.probe import pack_probe, parse_probe

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
    "name": "sla-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow all"}}],
    "chain": ["h1", "fw", "h2"],
    "requirements": [{"from": "h1", "to": "h2", "max_delay": 0.05}],
}

SG_NO_REQ = {
    "name": "plain-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow all"}}],
    "chain": ["h1", "fw", "h2"],
}


@pytest.fixture
def escape():
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
    framework.start()
    return framework


def degrade_core_link(escape, delay=0.2):
    links = escape.net.links_between("s1", "s2")
    assert links
    for link in links:
        link.delay = delay


class TestProbeCodec:
    def test_round_trip(self):
        payload = pack_probe(7, 3, 1, 1.25, "chain-x", pad_to=256)
        assert len(payload) == 256
        probe = parse_probe(payload)
        assert (probe.trace_id, probe.seq, probe.index) == (7, 3, 1)
        assert probe.send_time == pytest.approx(1.25)
        assert probe.chain == "chain-x"

    def test_non_probe_payload(self):
        assert parse_probe(b"not a probe at all") is None
        assert parse_probe(b"") is None


class TestLifecycle:
    def test_autostart_on_requirements(self, escape):
        escape.deploy_service(SG)
        assert "sla-chain" in escape.sla_monitors
        assert escape.sla_monitors["sla-chain"].running

    def test_no_requirements_no_monitor(self, escape):
        chain = escape.deploy_service(SG_NO_REQ)
        assert "plain-chain" not in escape.sla_monitors
        with pytest.raises(SLAError):
            SLAMonitor(chain)

    def test_terminate_stops_monitor(self, escape):
        escape.deploy_service(SG)
        monitor = escape.sla_monitors["sla-chain"]
        escape.terminate_service("sla-chain")
        assert not monitor.running
        assert "sla-chain" not in escape.sla_monitors

    def test_handle_undeploy_leaves_no_residue(self, escape):
        chain = escape.deploy_service(SG)
        monitor = escape.sla_monitors["sla-chain"]
        escape.run(1.0)
        chain.undeploy()
        assert not monitor.running
        assert "sla-chain" not in escape.status()["services"]
        health = escape.health()
        assert "sla-chain" not in health["services"]
        assert "sla-chain" not in health["sla"]["per_chain"]
        assert "sla-chain" not in escape.sla_monitors

    def test_terminate_after_handle_undeploy_raises(self, escape):
        escape.deploy_service(SG).undeploy()
        with pytest.raises(KeyError):
            escape.terminate_service("sla-chain")

    def test_redeploy_gets_a_fresh_running_monitor(self, escape):
        first = escape.deploy_service(SG)
        old = escape.sla_monitors["sla-chain"]
        escape.run(0.2)
        first.undeploy()
        second = escape.deploy_service(SG)
        monitor = escape.sla_monitors["sla-chain"]
        assert monitor is not old
        assert monitor.chain is second
        escape.run(1.0)
        assert monitor.running
        assert monitor.rounds >= 2

    def test_monitor_stands_down_with_chain(self, escape):
        chain = escape.deploy_service(SG)
        monitor = escape.sla_monitors["sla-chain"]
        escape.run(1.0)
        chain.undeploy()
        escape.run(1.0)
        assert not monitor.running


class TestStateMachine:
    def test_healthy_chain_stays_ok(self, escape):
        escape.deploy_service(SG)
        escape.run(2.0)
        monitor = escape.sla_monitors["sla-chain"]
        assert monitor.state == "OK"
        assert monitor.rounds >= 3
        report = monitor.last_report("h1", "h2")
        assert report is not None
        assert not report.breached
        assert report.delay < 0.05

    def test_degraded_link_escalates_warn_then_violated(self, escape):
        escape.deploy_service(SG)
        escape.run(1.0)
        monitor = escape.sla_monitors["sla-chain"]
        alerts = []
        monitor.on_alert(lambda chain, old, new, detail:
                         alerts.append((chain, old, new)))
        degrade_core_link(escape)
        escape.run(4.0)
        assert monitor.state == "VIOLATED"
        states = [(old, new) for _t, old, new in monitor.transitions]
        assert ("OK", "WARN") in states
        assert ("WARN", "VIOLATED") in states
        assert ("sla-chain", "OK", "WARN") in alerts
        assert ("sla-chain", "WARN", "VIOLATED") in alerts
        report = monitor.last_report("h1", "h2")
        assert report.breached
        assert any("delay" in reason for reason in report.reasons)

    def test_recovery_returns_to_ok(self, escape):
        escape.deploy_service(SG)
        monitor = escape.sla_monitors["sla-chain"]
        degrade_core_link(escape)
        escape.run(4.0)
        assert monitor.state == "VIOLATED"
        degrade_core_link(escape, delay=0.001)
        escape.run(4.0)
        assert monitor.state == "OK"
        assert ("VIOLATED", "OK") in [(old, new) for _t, old, new
                                      in monitor.transitions]

    def test_transitions_emit_correlated_events(self, escape):
        escape.deploy_service(SG)
        degrade_core_link(escape)
        escape.run(4.0)
        events = escape.telemetry.events
        warns = events.query(name="sla.warn")
        violations = events.query(name="sla.violated")
        assert warns and violations
        assert violations[0].severity == "ERROR"
        assert violations[0].tags["chain"] == "sla-chain"
        # the deploy itself was also logged
        assert events.query(name="orchestrator.deployed")


class TestMeasurements:
    def test_probe_traffic_does_not_pollute_user_counters(self, escape):
        escape.deploy_service(SG)
        escape.run(2.0)
        h2 = escape.net.get("h2")
        assert h2.udp_rx_count == 0
        assert h2.probe_rx_count > 0

    def test_gauges_in_prometheus_export(self, escape):
        escape.deploy_service(SG)
        escape.run(2.0)
        prom = escape.export_metrics("prom")
        assert 'sla_state{chain="sla-chain"} 0' in prom
        assert 'sla_probe_delay{chain="sla-chain"}' in prom
        degrade_core_link(escape)
        escape.run(4.0)
        prom = escape.export_metrics("prom")
        assert 'sla_state{chain="sla-chain"} 2' in prom

    def test_status_and_render(self, escape):
        escape.deploy_service(SG)
        escape.run(2.0)
        monitor = escape.sla_monitors["sla-chain"]
        status = monitor.status()
        assert status["state"] == "OK"
        assert status["requirements"][0]["path"] == "h1->h2"
        assert "sla-chain: OK" in monitor.render()

    def test_bandwidth_requirement_measured(self):
        topology = {
            "nodes": TOPOLOGY["nodes"],
            "links": [
                {"from": "h1", "to": "s1", "delay": 0.001},
                # 2 Mbit/s bottleneck so probe bursts disperse
                {"from": "s1", "to": "s2", "delay": 0.001,
                 "bandwidth": 2e6},
                {"from": "s2", "to": "h2", "delay": 0.001},
                {"from": "nc1", "to": "s1", "delay": 0.0005},
                {"from": "nc1", "to": "s1", "delay": 0.0005},
            ],
        }
        sg = dict(SG, requirements=[
            {"from": "h1", "to": "h2", "min_bandwidth": 10e6}])
        framework = ESCAPE.from_topology(load_topology(topology))
        framework.start()
        framework.deploy_service(sg)
        framework.run(3.0)
        monitor = framework.sla_monitors["sla-chain"]
        report = monitor.last_report("h1", "h2")
        assert report.bandwidth is not None
        # dispersion should measure roughly the bottleneck rate
        assert report.bandwidth < 5e6
        assert monitor.state in ("WARN", "VIOLATED")
        assert any("bandwidth" in reason for reason in report.reasons)


class TestCLI:
    def test_health_sla_events_commands(self, escape):
        cli = escape.cli()
        assert "no SLA monitors" in cli.run_command("sla")
        escape.deploy_service(SG)
        escape.run(1.0)
        assert "sla=OK" in cli.run_command("health")
        assert "sla-chain: OK" in cli.run_command("sla sla-chain")
        degrade_core_link(escape)
        escape.run(4.0)
        assert "sla=VIOLATED" in cli.run_command("health")
        output = cli.run_command("events warn")
        assert "sla.violated" in output

    def test_events_jsonl_export(self, escape, tmp_path):
        cli = escape.cli()
        escape.deploy_service(SG)
        escape.run(1.0)
        path = tmp_path / "events.jsonl"
        output = cli.run_command("events jsonl %s" % path)
        assert "wrote" in output
        assert "orchestrator.deployed" in path.read_text()
