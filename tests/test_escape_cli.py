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
        chain = escape.service_layer.services["cli-chain"]
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
        chain = escape.service_layer.services["cli-chain"]
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
        assert "disabled" in cli.run_command("profile off")
        assert not escape.profiler.enabled
        cli.run_command("profile reset")
        assert escape.profiler.stats == {}
        assert "usage" in cli.run_command("profile bogus")

    def test_top_limits_rows(self, console):
        escape, cli, sg_path = console
        assert "no profile data" in cli.run_command("top")
        self._profiled_traffic(escape, cli, sg_path)
        lines = cli.run_command("top 2").splitlines()
        # header + 2 regions + overhead footer
        assert len(lines) == 4
        assert "usage" in cli.run_command("top many")

    def test_flame_prints_and_writes_collapsed_stacks(self, console,
                                                      tmp_path):
        escape, cli, sg_path = console
        assert "no profile data" in cli.run_command("flame")
        self._profiled_traffic(escape, cli, sg_path)
        text = cli.run_command("flame")
        paths = [line.rsplit(" ", 1)[0] for line in text.splitlines()]
        # a region entered during a dispatch hangs under that event's
        # kind, so a hop reads as one stack
        assert "netem.link.Link._deliver;netem.link.transmit" in paths
        target = tmp_path / "flames" / "demo.folded"
        output = cli.run_command("flame %s" % target)
        assert "wrote" in output
        content = target.read_text().splitlines()
        assert content and all(
            line.rsplit(" ", 1)[1].isdigit() for line in content)

    def test_series_lists_and_queries(self, console):
        escape, cli, sg_path = console
        names = cli.run_command("series")
        assert "netem.link.delivered" in names
        self._profiled_traffic(escape, cli, sg_path)
        output = cli.run_command("series netem.link.delivered")
        assert "point(s)" in output
        assert "latest=" in output and "rate=" in output
        windowed = cli.run_command("series netem.link.delivered 0.5")
        assert "in last 0.500s" in windowed
        assert "no metric" in cli.run_command("series no.such.metric")
        assert "usage" in cli.run_command(
            "series netem.link.delivered soon")
        # the dispatched-events series moves with the run, no
        # instrument switched on for it
        dispatched = cli.run_command("series sim.events.dispatched")
        assert "delta=0 " not in dispatched and "rate=" in dispatched

    def test_help_includes_profiling_commands(self, console):
        _escape, cli, _sg = console
        output = cli.run_command("help")
        for command in ("profile", "flame", "top", "series"):
            assert command in output
        assert "dispatch" not in output
