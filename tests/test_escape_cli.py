"""Tests for the ESCAPE-level CLI commands."""

import json

import pytest

from repro.core import ESCAPE
from repro.core.sgfile import load_topology

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


class TestProfilingCommands:
    def _profiled_traffic(self, escape, cli, sg_path):
        cli.run_command("profile on")
        cli.run_command("deploy %s" % sg_path)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.start_udp_flow(h2.ip, 5001, rate_pps=200, duration=0.5,
                          payload_size=100)
        escape.run(1.0)

    def test_profile_toggles_and_reports(self, console):
        escape, cli, sg_path = console
        assert "profiler is off" in cli.run_command("profile")
        assert "enabled" in cli.run_command("profile on")
        assert escape.profiler.enabled
        self._profiled_traffic(escape, cli, sg_path)
        report = cli.run_command("profile")
        # event kinds and hand-placed regions, one table
        assert "netem.link.Link._deliver" in report
        assert "netem.link.transmit" in report
        assert "core.mapping.solve" in report
        # every region, the table `escape perf report` prints, then the
        # profiler's own cost
        lines = report.splitlines()
        assert lines[0].startswith("region ") and "self(s)" in lines[0]
        assert len(lines) == len(escape.profiler.stats) + 2
        assert lines[-1].startswith("profiler: %d entries"
                                    % escape.profiler.entries)
        assert "disabled" in cli.run_command("profile off")
        assert not escape.profiler.enabled
        cli.run_command("profile reset")
        assert escape.profiler.stats == {}
        assert "usage" in cli.run_command("profile bogus")

    def test_help_includes_profiling_commands(self, console):
        _escape, cli, _sg = console
        output = cli.run_command("help").split()
        assert "profile" in output
        # the region table is `profile report` (and `escape perf
        # report`); campaigns are `escape scenario` from the shell
        for command in ("dispatch", "flame", "top", "series", "scenario"):
            assert command not in output
        assert len(cli.commands) == 26


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
        escape, cli, sg_path = console
        assert cli.run_command("flowtrace").startswith("flowtrace off")
        assert "no sampled traces" in cli.run_command("flowtrace traces")
        assert (cli.run_command("flowtrace on 4 1")
                == "flowtrace on: sampling 1/4, seed 1")
        assert escape.flowtrace.enabled
        cli.run_command("deploy %s" % sg_path)
        self._traffic(escape)
        status = cli.run_command("flowtrace status")
        assert status.startswith("flowtrace on: 1/4 sampling (seed 1), ")
        sampled = len(escape.flowtrace)
        assert 4 <= sampled <= 40 and "%d trace(s)" % sampled in status

        rows = cli.run_command("flowtrace traces 3").splitlines()
        assert rows[0].split() == ["TRACE", "T", "HOPS", "CHAIN",
                                   "ONE-WAY", "CONFORMANT"]
        assert len(rows) == 4
        assert any("cli-chain" in row and row.endswith("yes")
                   for row in rows[1:])

        report = cli.run_command("flowtrace report")
        assert "cli-chain: " in report and "one-way p50=3.000ms" in report
        assert "vnf:nc1/cli-chain-fw-1" in report or \
            "vnf:nc2/cli-chain-fw-1" in report
        assert cli.run_command("flowtrace report cli-chain").count(
            "cli-chain: ") == 1
        assert "no flowtrace data for chain 'ghost'" in cli.run_command(
            "flowtrace report ghost")

        assert (cli.run_command("flowtrace chain cli-chain 8")
                == "chain cli-chain sampled at 1/8")
        assert "multiple of the base rate" in cli.run_command(
            "flowtrace chain cli-chain 6")

        target = tmp_path / "traces" / "flowtrace.jsonl"
        assert cli.run_command("flowtrace jsonl %s" % target) == (
            "wrote %d trace(s) to %s" % (sampled, target))
        lines = [json.loads(line)
                 for line in target.read_text().splitlines()]
        assert lines[0]["meta"]["rate"] == 4 and len(lines) == sampled + 1

        assert cli.run_command("flowtrace off") == (
            "flowtrace off (%d trace(s) kept)" % sampled)
        assert not escape.flowtrace.enabled
        assert cli.run_command("flowtrace reset") == "flowtrace reset"
        assert len(escape.flowtrace) == 0

    def test_usage_and_bad_arguments(self, console):
        _escape, cli, _sg = console
        assert cli.run_command("flowtrace bogus").startswith(
            "usage: flowtrace [status] | on [rate] [seed] | off")
        assert cli.run_command("flowtrace chain only-a-name") == (
            "usage: flowtrace chain <name> <rate>")
        assert cli.run_command("flowtrace jsonl") == (
            "usage: flowtrace jsonl <output-file>")
        assert cli.run_command("flowtrace on fast").startswith("*** ")
        assert cli.run_command("flowtrace chain x fast").startswith("*** ")


class TestChaosCommands:
    SCENARIO = {"name": "cli-chaos", "seed": 3,
                "faults": [{"kind": "vnf_crash", "at": 0.2},
                           {"kind": "link_down", "at": 0.4}]}

    def test_run_status_heal_recovery(self, console, tmp_path):
        escape, cli, sg_path = console
        assert "no chaos scenarios armed" in cli.run_command("chaos")
        cli.run_command("deploy %s" % sg_path)
        scenario = tmp_path / "chaos.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        assert cli.run_command("chaos run %s" % scenario) == (
            "armed cli-chaos: 2 fault(s), seed 3")
        assert cli.run_command("chaos status") == (
            "cli-chaos: seed=3, 0 injected, 0 active")
        escape.run(1.0)
        status = cli.run_command("chaos status").splitlines()
        assert status[0] == "cli-chaos: seed=3, 2 injected, 2 active"
        assert [line.split()[1] for line in status[1:]] == [
            "vnf_crash", "link_down"]
        assert "cli-chain-fw-1" in status[1]
        assert cli.run_command("chaos heal") == "healed 2 active fault(s)"
        assert cli.run_command("chaos heal") == "healed 0 active fault(s)"
        escape.run(1.0)
        recovery = cli.run_command("chaos recovery").splitlines()
        assert recovery[0] == "2 repair(s), 0 pending, unrecovered: none"
        assert [line.split()[1] for line in recovery[1:]] == ["vnf", "link"]
        assert all("mttr=" in line for line in recovery[1:])

    def test_usage_and_bad_files(self, console, tmp_path):
        _escape, cli, _sg = console
        assert cli.run_command("chaos bogus") == (
            "usage: chaos [status] | run <scenario.json> | heal | recovery")
        assert cli.run_command("chaos run") == (
            "usage: chaos run <scenario.json path>")
        assert cli.run_command("chaos run %s" % (tmp_path / "missing.json")
                               ).startswith("*** ")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"faults": [{"kind": "meteor", "at": 1}]}))
        assert "unknown kind 'meteor'" in cli.run_command(
            "chaos run %s" % bad)
        assert cli.run_command("chaos recovery") == (
            "0 repair(s), 0 pending, unrecovered: none")
