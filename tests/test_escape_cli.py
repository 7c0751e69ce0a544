"""Tests for the ESCAPE-level CLI commands.

The console drives services and reads state.  Profiling, flow tracing
and faults are switched on by the scenario file and read back with the
``escape`` command, or driven through ``escape.profiler``,
``escape.flowtrace`` and ``escape.inject_chaos``.  The console carries
none of them; the classes after the service commands check each of
those jobs through the front end that does it.
"""

import json

import pytest

from repro.chaos import FaultError
from repro.cli import main as cli_main
from repro.core import ESCAPE
from repro.core.sgfile import load_topology
from repro.scenario.runner import BUNDLE_SCHEMA
from repro.telemetry import FlowTraceError, render_flowtrace_report

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 4, "mem": 2048},
        {"name": "nc2", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "h2", "to": "s1", "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc2", "to": "s1", "delay": 0.0005},
        {"from": "nc2", "to": "s1", "delay": 0.0005},
    ],
}

# Mininet's ten, then the ESCAPE service and observability commands
CONSOLE_COMMANDS = (
    "help", "nodes", "net", "links", "dump", "pingall", "ping", "flows",
    "vnfs", "resources",
    "services", "deploy", "undeploy", "migrate", "topology", "catalog",
    "status", "metrics", "trace", "health", "sla", "events", "record")

SG = {
    "name": "cli-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow all"}}],
    "chain": ["h1", "fw", "h2"],
}


@pytest.fixture
def console(tmp_path):
    escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
    escape.start()
    sg_file = tmp_path / "sg.json"
    sg_file.write_text(json.dumps(SG))
    return escape, escape.cli(), str(sg_file)


class TestServiceCommands:
    def test_services_empty(self, console):
        _escape, cli, _sg = console
        assert "no services" in cli.run_command("services")

    def test_deploy_from_file(self, console):
        _escape, cli, sg_path = console
        output = cli.run_command("deploy %s" % sg_path)
        assert "deployed cli-chain" in output
        assert "fw" in output
        assert "cli-chain" in cli.run_command("services")

    def test_deploy_with_mapper(self, console):
        escape, cli, sg_path = console
        cli.run_command("deploy %s backtracking" % sg_path)
        chain = escape.orchestrator.deployed["cli-chain"]
        assert chain.mapper.name == "backtracking"

    def test_undeploy(self, console):
        _escape, cli, sg_path = console
        cli.run_command("deploy %s" % sg_path)
        assert "undeployed" in cli.run_command("undeploy cli-chain")
        assert "no services" in cli.run_command("services")

    def test_undeploy_unknown_is_error(self, console):
        _escape, cli, _sg = console
        assert "Error" in cli.run_command("undeploy ghost")

    def test_migrate(self, console):
        escape, cli, sg_path = console
        cli.run_command("deploy %s" % sg_path)
        chain = escape.orchestrator.deployed["cli-chain"]
        source = chain.mapping.vnf_placement["fw"]
        target = "nc2" if source == "nc1" else "nc1"
        output = cli.run_command("migrate cli-chain fw %s" % target)
        assert "migrated" in output
        assert chain.mapping.vnf_placement["fw"] == target

    def test_migrate_unknown_service(self, console):
        _escape, cli, _sg = console
        assert "no service" in cli.run_command("migrate ghost fw nc1")

    def test_topology_verification(self, console):
        escape, cli, _sg = console
        escape.run(2.0)
        assert "verified" in cli.run_command("topology")

    def test_catalog_listing(self, console):
        _escape, cli, _sg = console
        output = cli.run_command("catalog")
        assert "firewall" in output
        assert "rules" in output

    def test_vnfs_shows_deployed(self, console):
        _escape, cli, sg_path = console
        cli.run_command("deploy %s" % sg_path)
        assert "UP" in cli.run_command("vnfs")

    def test_help_includes_service_commands(self, console):
        _escape, cli, _sg = console
        output = cli.run_command("help")
        assert "deploy" in output
        assert "migrate" in output

    def test_status_command_is_json(self, console):
        import json as json_module
        _escape, cli, sg_path = console
        cli.run_command("deploy %s" % sg_path)
        output = cli.run_command("status")
        parsed = json_module.loads(output)
        assert parsed["services"]["cli-chain"]["active"] is True


class TestCommandSurface:
    def test_help_lists_exactly_the_kept_commands(self, console):
        _escape, cli, _sg = console
        output = cli.run_command("help")
        assert output == "Commands: " + " ".join(sorted(CONSOLE_COMMANDS))

    def test_removed_commands_are_unknown(self, console):
        escape, cli, _sg = console
        for line in ("flowtrace", "flowtrace on 4 1", "profile",
                     "profile on", "chaos", "chaos run chaos.json"):
            command = line.split()[0]
            assert cli.run_command(line) == (
                "*** Unknown command: %s (try 'help')" % command)
        assert not escape.profiler.enabled
        assert not escape.flowtrace.enabled


class TestProfilingCommands:
    def _profiled_traffic(self, escape, cli, sg_path):
        escape.profiler.enable()
        cli.run_command("deploy %s" % sg_path)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.start_udp_flow(h2.ip, 5001, rate_pps=200, duration=0.5,
                          payload_size=100)
        escape.run(1.0)

    def test_profile_toggles_and_reports(self, console, tmp_path, capsys):
        """``escape.profiler`` switches on, off and clears; its regions
        print through ``escape perf report``."""
        escape, cli, sg_path = console
        profiler = escape.profiler
        assert not profiler.enabled and profiler.stats == {}
        self._profiled_traffic(escape, cli, sg_path)
        assert profiler.enabled
        regions = profiler.report()
        # event kinds and hand-placed regions, one table
        for name in ("netem.link.Link._deliver", "netem.link.transmit",
                     "core.mapping.solve"):
            assert name in regions
        bundle = {"schema": BUNDLE_SCHEMA, "seed": 1,
                  "scenario": {"name": "console"},
                  "dispatched": escape.sim.processed,
                  "throughput": {}, "profiler": regions}
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        assert cli_main(["perf", "report", str(path), "--limit", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # title, event count, every region under one header, throughput
        assert lines[2].startswith("region ") and "self(s)" in lines[2]
        assert len(lines) == len(regions) + 4
        assert {line.split()[0] for line in lines[3:-1]} == set(regions)
        profiler.disable()
        assert not profiler.enabled
        profiler.reset()
        assert profiler.stats == {}

    def test_help_includes_profiling_commands(self, console):
        _escape, cli, _sg = console
        output = cli.run_command("help").split()
        # the region table is `escape perf report` of a `profile: true`
        # scenario; campaigns are `escape scenario` from the shell
        for command in ("profile", "dispatch", "flame", "top", "series",
                        "scenario"):
            assert command not in output
        assert len(cli.commands) == 23


class TestFlowtraceCommands:
    def _traffic(self, escape, count=64):
        # distinct payloads: sampling hashes the frame tail, a replayed
        # frame is sampled always or never
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        for index in range(count):
            escape.sim.schedule(0.001 * index, h1.send_udp, h2.ip, 5001,
                                b"datagram %03d" % index)
        escape.run(1.0)

    def test_sampling_session(self, console, tmp_path):
        """``escape.flowtrace`` samples, lists, reports, exports, stops
        and clears; the console's ``health`` shows the sampler."""
        escape, cli, sg_path = console
        flowtrace = escape.flowtrace
        assert flowtrace.status()["enabled"] is False
        assert flowtrace.trace_records() == []
        flowtrace.enable(rate=4, seed=1)
        cli.run_command("deploy %s" % sg_path)
        self._traffic(escape)
        status = flowtrace.status()
        assert (status["enabled"], status["rate"], status["seed"]) == (
            True, 4, 1)
        sampled = len(flowtrace)
        assert 4 <= sampled <= 40 and status["traces"] == sampled
        assert ("flowtrace: 1/4 sampling, %d trace(s)" % sampled
                in cli.run_command("health"))

        records = flowtrace.trace_records()
        assert len(records) == sampled
        assert any(record["chain"] == "cli-chain"
                   and record["conformant"] is True
                   for record in records[-3:])

        report = render_flowtrace_report(
            flowtrace.publish(escape.telemetry.metrics))
        assert "cli-chain: " in report and "one-way p50=3.000ms" in report
        assert "vnf:nc1/cli-chain-fw-1" in report or \
            "vnf:nc2/cli-chain-fw-1" in report
        one_chain = flowtrace.aggregate()
        assert render_flowtrace_report(one_chain, chain="cli-chain").count(
            "cli-chain: ") == 1
        assert "no flowtrace data for chain 'ghost'" in (
            render_flowtrace_report(one_chain, chain="ghost"))

        target = tmp_path / "traces" / "flowtrace.jsonl"
        assert flowtrace.write_jsonl(str(target)) == sampled
        lines = [json.loads(line)
                 for line in target.read_text().splitlines()]
        assert lines[0]["meta"]["rate"] == 4 and len(lines) == sampled + 1

        flowtrace.disable()
        assert not flowtrace.enabled and len(flowtrace) == sampled
        flowtrace.reset()
        assert len(flowtrace) == 0

    def test_usage_and_bad_arguments(self, console):
        escape, _cli, _sg = console
        for rate in (0, -4):
            with pytest.raises(FlowTraceError, match="rate"):
                escape.flowtrace.enable(rate=rate)
        assert not escape.flowtrace.enabled


class TestChaosCommands:
    SCENARIO = {"name": "cli-chaos", "seed": 3,
                "faults": [{"kind": "vnf_crash", "at": 0.2},
                           {"kind": "link_down", "at": 0.4}]}

    def test_run_status_heal_recovery(self, console, tmp_path):
        """A scenario file armed through ``inject_chaos``; the engine
        it returns heals, and ``health()`` carries the repairs."""
        escape, cli, sg_path = console
        cli.run_command("deploy %s" % sg_path)
        scenario = tmp_path / "chaos.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        engine = escape.inject_chaos(str(scenario))
        assert (engine.scenario.name, engine.scenario.seed,
                len(engine.scenario.faults)) == ("cli-chaos", 3, 2)
        assert engine.injections == [] and engine.active == []
        escape.run(1.0)
        assert [record["kind"] for record in engine.injections] == [
            "vnf_crash", "link_down"]
        assert len(engine.active) == 2
        assert "cli-chain-fw-1" in engine.injections[0]["target"]
        assert engine.heal_all() == 2
        assert engine.heal_all() == 0
        escape.run(1.0)
        recovery = escape.health()["recovery"]
        assert (recovery["repairs"], recovery["pending"],
                recovery["unrecovered"]) == (2, [], [])
        assert [action["kind"] for action in recovery["actions"]] == [
            "vnf", "link"]
        assert all(action["mttr"] is not None
                   for action in recovery["actions"])

    def test_usage_and_bad_files(self, console, tmp_path):
        escape, _cli, _sg = console
        with pytest.raises(OSError):
            escape.inject_chaos(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"faults": [{"kind": "meteor", "at": 1}]}))
        with pytest.raises(FaultError, match="unknown kind 'meteor'"):
            escape.inject_chaos(str(bad))
        recovery = escape.health()["recovery"]
        assert (recovery["repairs"], recovery["pending"],
                recovery["unrecovered"]) == (0, [], [])
