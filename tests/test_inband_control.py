"""Tests for the in-band control network (dedicated management hub)."""

import pytest

from repro.chaos.faults import NetconfBlackholeFault, NetconfSlownessFault
from repro.core import ESCAPE
from repro.core.sgfile import load_topology
from repro.netconf import RpcTimeout, SessionError
from repro.netconf.ethtransport import EthTransport
from repro.netem import Network
from repro.netem.hub import Hub

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
    "name": "inband-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow icmp, drop all"}}],
    "chain": ["h1", "fw", "h2"],
}


class TestHub:
    def test_repeats_to_all_other_ports(self):
        net = Network()
        hub = net.add_hub("hub0")
        received = {}
        intfs = []
        for index in range(3):
            intf = hub.add_interface("00:00:00:00:10:%02x" % index)
            intfs.append(intf)
        # short-circuit: deliver directly into a hub port
        outs = {index: [] for index in range(3)}
        for index, intf in enumerate(intfs):
            intf.send = (lambda data, i=index: outs[i].append(data))
        hub._receive(intfs[0], b"frame")
        assert outs[0] == []
        assert outs[1] == [b"frame"]
        assert outs[2] == [b"frame"]


class TestEthTransport:
    def _pair(self):
        net = Network()
        hub = net.add_hub("hub0")
        from repro.netem.node import Node
        a = net.add_node(Node("a", net.sim))
        b = net.add_node(Node("b", net.sim))
        link_a = net.add_link(a, hub)
        link_b = net.add_link(b, hub)
        intf_a = link_a.intf1 if link_a.intf1.node is a else link_a.intf2
        intf_b = link_b.intf1 if link_b.intf1.node is b else link_b.intf2
        return (net, EthTransport(intf_a, intf_b.mac),
                EthTransport(intf_b, intf_a.mac))

    def test_bytes_flow_both_ways(self):
        net, ta, tb = self._pair()
        got_a, got_b = [], []
        ta.set_receiver(got_a.append)
        tb.set_receiver(got_b.append)
        ta.send(b"hello-b")
        tb.send(b"hello-a")
        net.run(1.0)
        assert got_b == [b"hello-b"]
        assert got_a == [b"hello-a"]

    def test_large_payload_chunked_and_reassembled_in_order(self):
        net, ta, tb = self._pair()
        got = []
        tb.set_receiver(got.append)
        blob = bytes(range(256)) * 20  # 5120 B > MTU
        ta.send(blob)
        net.run(1.0)
        assert b"".join(got) == blob
        assert len(got) > 1  # actually chunked

    def test_foreign_traffic_filtered(self):
        net, ta, tb = self._pair()
        got = []
        tb.set_receiver(got.append)
        # a frame from an unknown mac must be ignored
        from repro.packet import Ethernet
        from repro.netconf.ethtransport import ETHERTYPE_MGMT
        rogue = Ethernet(src="00:00:00:00:99:99", dst=tb.intf.mac,
                         type=ETHERTYPE_MGMT, payload=b"spoof")
        tb.intf.receive(rogue.pack())
        net.run(0.1)
        assert got == []

    def test_closed_transport_silent(self):
        net, ta, tb = self._pair()
        got = []
        tb.set_receiver(got.append)
        ta.close()
        ta.send(b"late")
        net.run(0.5)
        assert got == []


class TestInbandEscape:
    @pytest.fixture
    def escape(self):
        framework = ESCAPE.from_topology(load_topology(TOPOLOGY),
                                         control_network="inband")
        framework.start()
        return framework

    def test_management_network_exists(self, escape):
        assert isinstance(escape.mgmt_hub, Hub)
        # 2 containers x (orchestrator leg + agent leg)
        assert len(escape.mgmt_hub.interfaces) == 4
        for container in escape.net.vnf_containers():
            assert container.mgmt_interface is not None

    def test_mgmt_interface_not_usable_for_vnfs(self, escape):
        for container in escape.net.vnf_containers():
            assert container.mgmt_interface.name \
                not in container.free_interfaces()

    def test_netconf_sessions_over_the_hub(self, escape):
        for client in escape.netconf_clients.values():
            assert client.session_id is not None and not client.closed
        # the hello exchange already crossed the hub
        assert escape.mgmt_hub.frames_repeated > 0

    def test_full_demo_over_inband_management(self, escape):
        chain = escape.deploy_service(SG)
        before = escape.mgmt_hub.frames_repeated
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=3, interval=0.2)
        escape.run(2.0)
        assert result.received == 3
        # a Clicky read travels the control network
        assert int(chain.read_handler("fw", "fw.passed")) >= 3
        assert escape.mgmt_hub.frames_repeated > before
        chain.undeploy()

    def test_mgmt_hub_not_in_resource_view(self, escape):
        view = escape.orchestrator.view
        assert "mgmt0" not in view.graph
        assert "orchestrator-mgmt" not in view.graph

    def test_data_plane_isolated_from_mgmt(self, escape):
        """Chain traffic never rides the hub; only NETCONF does."""
        escape.deploy_service(SG)
        baseline = escape.mgmt_hub.frames_repeated
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.start_udp_flow(h2.ip, 9999, rate_pps=100, duration=1.0)
        escape.run(2.0)
        # the 100-packet flow added no management frames
        assert escape.mgmt_hub.frames_repeated == baseline

    def test_a_session_the_agent_ends_ends_at_the_orchestrator(self, escape):
        chain = escape.deploy_service(SG)
        client = escape.netconf_clients[chain.vnfs["fw"].container]
        client.transport.send(b"\n#0\n")  # a framing error at the agent
        escape.run(0.1)
        start = escape.sim.now
        with pytest.raises(SessionError):
            chain.read_handler("fw", "fw.passed")
        assert client.closed and escape.sim.now - start < 1.0

    def test_a_blackholed_agent_does_not_answer(self, escape):
        chain = escape.deploy_service(SG)
        NetconfBlackholeFault(0.0).inject(escape, chain.vnfs["fw"].container)
        with pytest.raises(RpcTimeout):
            chain.read_handler("fw", "fw.passed")

    def test_a_slowed_agent_answers_late(self, escape):
        chain = escape.deploy_service(SG)

        def read_seconds():
            start = escape.sim.now
            chain.read_handler("fw", "fw.passed")
            return escape.sim.now - start

        before = read_seconds()
        NetconfSlownessFault(0.0, extra_latency=0.3).inject(
            escape, chain.vnfs["fw"].container)
        assert read_seconds() >= before + 0.3

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ESCAPE.from_topology(load_topology(TOPOLOGY),
                                 control_network="carrier-pigeon")
