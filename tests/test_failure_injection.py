"""Failure injection: degraded links, dead transports, broken deploys.

The framework must degrade predictably — chains survive loss, deploy
failures roll back completely, management-plane failures surface as
errors rather than hangs.
"""

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
        {"from": "nc2", "to": "s2", "delay": 0.0005},
        {"from": "nc2", "to": "s2", "delay": 0.0005},
    ],
}


#: The only container hangs off s3, between the SAP switches s1 and
#: s2; the direct return path h2 -> h1 takes the faster s4 instead.
DETOUR_TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "s3", "role": "switch"},
        {"name": "s4", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "h2", "to": "s2", "delay": 0.001},
        {"from": "s1", "to": "s3", "delay": 0.002},
        {"from": "s3", "to": "s2", "delay": 0.002},
        {"from": "s1", "to": "s4", "delay": 0.001},
        {"from": "s4", "to": "s2", "delay": 0.001},
        {"from": "nc1", "to": "s3", "delay": 0.0005},
        {"from": "nc1", "to": "s3", "delay": 0.0005},
    ],
}


def simple_sg(name="fi-chain"):
    return load_service_graph({
        "name": name,
        "saps": ["h1", "h2"],
        "vnfs": [{"name": "fw", "type": "firewall",
                  "params": {"rules": "allow all"}}],
        "chain": ["h1", "fw", "h2"],
    })


@pytest.fixture
def escape():
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
    framework.start()
    return framework


def spine_link(net):
    for link in net.links:
        names = {link.intf1.node.name, link.intf2.node.name}
        if names == {"s1", "s2"}:
            return link
    raise AssertionError("no spine link")


class TestDegradedLinks:
    def test_chain_survives_partial_loss(self, escape):
        escape.deploy_service(simple_sg())
        spine_link(escape.net).loss = 0.3
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=20, interval=0.1)
        escape.run(5.0)
        # some loss, but the chain keeps working for surviving packets
        assert 0 < result.received < 20

    def test_link_down_blackholes_then_recovers(self, escape):
        escape.deploy_service(simple_sg())
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        link = spine_link(escape.net)
        link.set_up(False)
        dead = h1.ping(h2.ip, count=3, interval=0.1)
        escape.run(2.0)
        assert dead.received == 0
        link.set_up(True)
        alive = h1.ping(h2.ip, count=3, interval=0.1)
        escape.run(2.0)
        assert alive.received == 3

    def test_cut_link_disappears_from_discovery(self, escape):
        escape.orchestrator.verify_topology(escape.discovery)
        assert len(escape.discovery.links()) == 1
        spine_link(escape.net).set_up(False)
        escape.orchestrator.verify_topology(escape.discovery)
        assert len(escape.discovery.links()) == 0


class TestDeployFailures:
    def test_interface_exhaustion_rolls_back(self, escape):
        """The view believes interfaces are free, but a rogue process
        occupied them: connectVNF fails mid-deploy and everything the
        deploy touched is rolled back."""
        container = escape.net.get("nc1")
        # occupy nc1's interfaces out-of-band
        hog = container.start_vnf(
            "hog", "FromDevice(in0) -> Counter -> ToDevice(out0);",
            ["in0", "out0"], cpu=0.1, mem=16)
        for intf_name, device in zip(list(container.interfaces),
                                     ["in0", "out0"]):
            container.connect_vnf("hog", device, intf_name)
        # ... same for nc2
        container2 = escape.net.get("nc2")
        container2.start_vnf(
            "hog2", "FromDevice(in0) -> Counter -> ToDevice(out0);",
            ["in0", "out0"], cpu=0.1, mem=16)
        for intf_name, device in zip(list(container2.interfaces),
                                     ["in0", "out0"]):
            container2.connect_vnf("hog2", device, intf_name)

        with pytest.raises(OrchestratorError):
            escape.deploy_service(simple_sg())
        # the failed deploy left no VNFs of its own behind
        assert set(container.vnfs) == {"hog"}
        assert set(container2.vnfs) == {"hog2"}
        # no steering paths remain
        assert escape.steering.paths == {}
        # and resources were released in the view
        for snapshot in escape.orchestrator.view.snapshot().values():
            assert snapshot["cpu_used"] == pytest.approx(0.0)

    def test_failed_deploy_does_not_block_retry(self, escape):
        bad = simple_sg("retry-chain")
        bad.vnfs["fw"].cpu = 1000.0
        from repro.core import MappingError
        with pytest.raises(MappingError):
            escape.deploy_service(bad)
        good = simple_sg("retry-chain")
        chain = escape.deploy_service(good)
        assert chain.active


class TestManagementPlaneFailures:
    def test_dead_agent_transport_times_out(self, escape):
        chain = escape.deploy_service(simple_sg())
        container_name = chain.mapping.vnf_placement["fw"]
        client = escape.netconf_clients[container_name]
        client.transport.closed = True  # silently sever the pipe
        from repro.netconf import NetconfError
        with pytest.raises(NetconfError):
            chain.read_handler("fw", "fw.passed")

    def test_monitor_counts_poll_errors(self, escape):
        chain = escape.deploy_service(simple_sg())
        monitor = escape.monitor(chain, interval=0.2)
        monitor.watch("fw", "no_such_element.count")
        monitor.start()
        escape.run(1.0)
        monitor.stop()
        assert monitor.poll_errors > 0
        # the bad handler produced no samples, good ones still work
        assert monitor.series[("fw", "no_such_element.count")] == []
        assert monitor.latest("fw", "cnt_in.count") is not None

    def test_stopping_vnf_outside_orchestrator_surfaces(self, escape):
        """An operator killing the VNF behind the orchestrator's back:
        handler reads turn into RpcErrors, not silent garbage."""
        chain = escape.deploy_service(simple_sg())
        container = escape.net.get(chain.mapping.vnf_placement["fw"])
        vnf_id = chain.vnfs["fw"].vnf_id
        container.stop_vnf(vnf_id)
        from repro.netconf import RpcError
        with pytest.raises(RpcError):
            chain.read_handler("fw", "fw.passed")


class TestControlPlaneFailures:
    def test_switch_disconnect_blocks_new_paths(self, escape):
        escape.nexus.disconnect(1)
        from repro.core import MappingError
        with pytest.raises((OrchestratorError, Exception)):
            escape.deploy_service(simple_sg())

    @pytest.mark.parametrize("dead_switch", ["s2", "s4"])
    def test_refused_deploy_sends_nothing(self, dead_switch):
        """The chain's steering is one change, checked before anything
        is sent.  ``s2`` carries the second segment (fw -> h2) only;
        ``s4`` carries the direct return path only.  With either
        disconnected the deploy is refused having sent no message, and
        leaves no path, flow entry, VNF or reservation behind."""
        from repro.pox import SteeringError
        from repro.pox.steering import STEERING_PRIORITY
        escape = ESCAPE.from_topology(load_topology(DETOUR_TOPOLOGY))
        escape.start()
        escape.run(0.1)
        dpid = escape.net.get(dead_switch).dpid
        escape.nexus.disconnect(dpid)
        sent = []
        send = escape.nexus.send
        escape.nexus.send = lambda *args: (sent.append(args), send(*args))
        with pytest.raises(SteeringError, match="dpid=%d " % dpid):
            escape.deploy_service(simple_sg())
        escape.run(0.1)
        assert sent == []
        assert escape.steering.paths == {}
        assert not any(entry.priority >= STEERING_PRIORITY - 1
                       for switch in escape.net.switches()
                       for entry in switch.datapath.table.entries)
        assert escape.net.get("nc1").vnfs == {}
        for snapshot in escape.orchestrator.view.snapshot().values():
            assert snapshot.get("cpu_used", 0.0) == pytest.approx(0.0)

    def test_learning_survives_without_steered_chain(self, escape):
        """Plain traffic keeps flowing when no chain is deployed even
        after flow tables are cleared (controller re-populates)."""
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        first = h1.ping(h2.ip, count=2, interval=0.2)
        escape.run(2.0)
        assert first.received == 2
        for switch in escape.net.switches():
            switch.datapath.table.entries = [
                entry for entry in switch.datapath.table.entries
                if entry.priority >= 0x3000]  # keep guards only
        second = h1.ping(h2.ip, count=2, interval=0.2)
        escape.run(2.0)
        assert second.received == 2
