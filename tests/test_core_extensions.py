"""Tests for the extension features: bidirectional chains, live VNF
migration, and discovery-based topology verification."""

import pytest

from repro.core import ESCAPE, OrchestratorError
from repro.core.sgfile import load_service_graph, load_topology

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
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "s1", "to": "s2", "delay": 0.002},
        {"from": "h2", "to": "s2", "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc2", "to": "s2", "delay": 0.0005},
        {"from": "nc2", "to": "s2", "delay": 0.0005},
        {"from": "nc2", "to": "s2", "delay": 0.0005},
        {"from": "nc2", "to": "s2", "delay": 0.0005},
    ],
}


def bidir_sg(name="bidir-chain"):
    return load_service_graph({
        "name": name,
        "saps": ["h1", "h2"],
        "vnfs": [{"name": "fwd", "type": "forwarder_bidir"}],
        "chain": ["h1", "fwd", "h2"],
    })


@pytest.fixture
def escape():
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
    framework.start()
    return framework


@pytest.fixture
def quiet_escape():
    """ESCAPE with discovery quiesced after the first probe round, so
    LLDP floods don't pollute per-VNF counters."""
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY),
                                     discovery_interval=3600.0)
    framework.start()
    return framework


class TestBidirectionalChain:
    def test_replies_traverse_the_chain(self, escape):
        chain = escape.deploy_service(bidir_sg(), return_path="chain")
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=4, interval=0.2)
        escape.run(3.0)
        assert result.received == 4
        # forward direction crossed in0 -> out0
        assert int(chain.read_handler("fwd", "cnt_in.count")) >= 4
        # replies crossed out0 -> in0 (the reverse pipeline)
        assert int(chain.read_handler("fwd", "cnt_rev.count")) >= 4

    def test_direct_return_bypasses_vnf(self, quiet_escape):
        escape = quiet_escape
        chain = escape.deploy_service(bidir_sg("direct-chain"),
                                      return_path="direct")
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=4, interval=0.2)
        escape.run(3.0)
        assert result.received == 4
        assert int(chain.read_handler("fwd", "cnt_rev.count")) == 0

    def test_chain_return_rtt_exceeds_direct(self, escape):
        chain_rp = escape.deploy_service(bidir_sg("rtt-chain"),
                                         return_path="chain")
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        through_chain = h1.ping(h2.ip, count=3, interval=0.2)
        escape.run(2.0)
        chain_rp.undeploy()
        escape.run(0.1)
        direct = escape.deploy_service(bidir_sg("rtt-direct"),
                                       return_path="direct")
        direct_result = h1.ping(h2.ip, count=3, interval=0.2)
        escape.run(2.0)
        assert through_chain.avg_rtt > direct_result.avg_rtt


def pings_through(escape, chain):
    """Ping h1 -> h2 four times; the replies received and how far the
    chain VNF's reverse counter advanced meanwhile."""
    before = int(chain.read_handler("fwd", "cnt_rev.count"))
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    result = h1.ping(h2.ip, count=4, interval=0.2)
    escape.run(3.0)
    return (result.received,
            int(chain.read_handler("fwd", "cnt_rev.count")) - before)


class TestReverseChainRepair:
    """A chain whose replies come back through its VNFs keeps them
    coming back that way after every repair."""

    def test_replies_follow_a_migrated_vnf(self, quiet_escape):
        escape = quiet_escape
        chain = escape.deploy_service(bidir_sg(), return_path="chain")
        assert pings_through(escape, chain)[0] == 4
        source = chain.mapping.vnf_placement["fwd"]
        chain.migrate("fwd", "nc2" if source == "nc1" else "nc1")
        escape.run(0.1)
        received, replies_through_vnf = pings_through(escape, chain)
        assert received == 4
        assert replies_through_vnf >= 4

    def test_replies_follow_a_segment_rerouted_around_a_dead_link(self):
        topology = dict(TOPOLOGY, nodes=TOPOLOGY["nodes"] + [
            {"name": "s3", "role": "switch"}], links=TOPOLOGY["links"] + [
            {"from": "s1", "to": "s3", "delay": 0.002},
            {"from": "s3", "to": "s2", "delay": 0.002}])
        escape = ESCAPE.from_topology(load_topology(topology),
                                      discovery_interval=3600.0)
        escape.start()
        chain = escape.deploy_service(bidir_sg(), return_path="chain")
        assert pings_through(escape, chain)[0] == 4
        escape.net.links_between("s1", "s2")[0].set_up(False)
        escape.run(1.0)
        assert any("s3" in path
                   for path in chain.mapping.link_paths.values())
        assert escape.recovery.unrecovered() == []
        received, replies_through_vnf = pings_through(escape, chain)
        assert received == 4
        assert replies_through_vnf >= 4


class TestMigration:
    def _deploy(self, escape, name="mig-chain"):
        sg = load_service_graph({
            "name": name,
            "saps": ["h1", "h2"],
            "vnfs": [{"name": "fw", "type": "firewall",
                      "params": {"rules": "allow icmp, drop all"}}],
            "chain": ["h1", "fw", "h2"],
        })
        return escape.deploy_service(sg)

    def test_migrate_moves_the_vnf(self, escape):
        chain = self._deploy(escape)
        source = chain.mapping.vnf_placement["fw"]
        target = "nc2" if source == "nc1" else "nc1"
        chain.migrate("fw", target)
        assert chain.mapping.vnf_placement["fw"] == target
        # new instance runs on the target, old one is gone
        assert len(escape.net.get(target).vnfs) == 1
        assert len(escape.net.get(source).vnfs) == 0

    def test_traffic_flows_after_migration(self, escape):
        chain = self._deploy(escape)
        source = chain.mapping.vnf_placement["fw"]
        target = "nc2" if source == "nc1" else "nc1"
        chain.migrate("fw", target)
        escape.run(0.1)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=4, interval=0.2)
        escape.run(3.0)
        assert result.received == 4
        # and the *new* instance is doing the filtering
        assert int(chain.read_handler("fw", "fw.passed")) >= 4
        h1.send_udp(h2.ip, 9999, b"still blocked?")
        escape.run(0.5)
        assert h2.udp_rx_count == 0

    def test_resources_move_with_the_vnf(self, escape):
        chain = self._deploy(escape)
        source = chain.mapping.vnf_placement["fw"]
        target = "nc2" if source == "nc1" else "nc1"
        chain.migrate("fw", target)
        snapshot = escape.orchestrator.view.snapshot()
        assert snapshot[source]["cpu_used"] == pytest.approx(0.0)
        assert snapshot[target]["cpu_used"] == pytest.approx(0.5)

    def test_migrate_to_same_container_is_noop(self, escape):
        chain = self._deploy(escape)
        source = chain.mapping.vnf_placement["fw"]
        old_vnf_id = chain.vnfs["fw"].vnf_id
        chain.migrate("fw", source)
        assert chain.vnfs["fw"].vnf_id == old_vnf_id

    def test_migrate_to_full_container_fails_cleanly(self, escape):
        chain = self._deploy(escape)
        source = chain.mapping.vnf_placement["fw"]
        target = "nc2" if source == "nc1" else "nc1"
        # fill the target
        filler = escape.net.get(target)
        filler_budget = filler.budget
        filler_budget.reserve("hog", filler_budget.cpu_free - 0.1,
                              filler_budget.mem_free - 1.0)
        escape.orchestrator.view.reserve_container(
            target, escape.orchestrator.view.graph.nodes[target]["cpu"]
            - escape.orchestrator.view.graph.nodes[target]["cpu_used"]
            - 0.1, 0.0)
        with pytest.raises(OrchestratorError):
            chain.migrate("fw", target)
        # chain still on the source and functional
        assert chain.mapping.vnf_placement["fw"] == source
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=2, interval=0.2)
        escape.run(2.0)
        assert result.received == 2

    def test_migrate_unknown_vnf(self, escape):
        chain = self._deploy(escape)
        with pytest.raises(OrchestratorError):
            chain.migrate("ghost", "nc2")

    def test_migrate_unknown_target(self, escape):
        chain = self._deploy(escape)
        with pytest.raises(OrchestratorError):
            chain.migrate("fw", "nowhere")

    def test_undeploy_after_migration_cleans_up(self, escape):
        chain = self._deploy(escape)
        source = chain.mapping.vnf_placement["fw"]
        target = "nc2" if source == "nc1" else "nc1"
        chain.migrate("fw", target)
        chain.undeploy()
        escape.run(0.1)
        for container in escape.net.vnf_containers():
            assert container.vnfs == {}
        snapshot = escape.orchestrator.view.snapshot()
        assert snapshot[target]["cpu_used"] == pytest.approx(0.0)
        steering_entries = [entry
                            for switch in escape.net.switches()
                            for entry in switch.datapath.table.entries
                            if entry.priority >= 0x6000]
        assert steering_entries == []


class TestTopologyVerification:
    def test_matches_after_discovery_converges(self, escape):
        escape.run(2.0)
        report = escape.orchestrator.verify_topology(escape.discovery)
        assert report == {"missing": [], "unexpected": []}

    def test_cut_link_reported_missing(self, escape):
        escape.run(2.0)
        for link in escape.net.links:
            if link.intf1.node.name.startswith("s") \
                    and link.intf2.node.name.startswith("s"):
                link.set_up(False)
        escape.run(10.0)  # discovery times the adjacency out
        report = escape.orchestrator.verify_topology(escape.discovery)
        assert report["missing"] == [("s1", "s2")]
        assert report["unexpected"] == []

    def test_before_discovery_everything_missing(self):
        # not started yet: no LLDP has flowed, adjacency is empty
        framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
        report = framework.orchestrator.verify_topology(
            framework.discovery)
        assert ("s1", "s2") in report["missing"]
