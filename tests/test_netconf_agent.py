"""Tests for the VNF-container NETCONF agent (the OpenYuma analog)."""

import xml.etree.ElementTree as ET

import pytest

from repro.netconf import (NetconfClient, NetconfServer, RpcError,
                           TransportPair, VNFAgent)
from repro.netconf.agent import CAP_VNF
from repro.netconf.messages import qn
from repro.netconf.vnf_yang import VNF_NS
from repro.netem import Network

COUNT_VNF = "src :: FromDevice(in0) -> cnt :: Counter -> Discard;"
WIRE_VNF = "FromDevice(in0) -> cnt :: Counter -> ToDevice(out0);"


@pytest.fixture
def managed():
    net = Network()
    container = net.add_vnf_container("nc1", cpu=2.0, mem=1024.0)
    container.add_interface("00:00:00:00:02:01", name="nc1-eth0")
    container.add_interface("00:00:00:00:02:02", name="nc1-eth1")
    pair = TransportPair(net.sim, latency=0.001)
    agent = VNFAgent(container, pair.server)
    client = NetconfClient(pair.client)
    client.wait_connected()
    return net, container, agent, client


def start(client, sim, vnf_id="v1", config=COUNT_VNF, devices="in0",
          cpu="0.5", mem="128"):
    return client.rpc("startVNF", VNF_NS, {
        "id": vnf_id, "click-config": config, "devices": devices,
        "cpu": cpu, "mem": mem}).result(sim)


def feed(net, container, vnf_id="v1"):
    """100 frames on the VNF's in0 over the next second."""
    deliver = container.vnfs[vnf_id].devices["in0"].deliver
    for index in range(100):
        net.sim.schedule(0.01 * index, deliver, b"frame")


class TestAgentRpcs:
    def test_capabilities_advertised(self, managed):
        _net, _container, _agent, client = managed
        assert CAP_VNF in client.server_capabilities
        assert VNF_NS in client.server_capabilities

    def test_start_vnf(self, managed):
        net, container, _agent, client = managed
        reply = start(client, net.sim)
        status = reply.find(qn("status", VNF_NS))
        assert status.text == "UP"
        assert "v1" in container.vnfs

    def test_start_validates_input(self, managed):
        net, _container, _agent, client = managed
        with pytest.raises(RpcError) as exc:
            client.rpc("startVNF", VNF_NS, {"id": "x"}).result(net.sim)
        assert exc.value.tag == "invalid-value"

    def test_agents_share_one_compiled_model(self):
        net = Network()
        agents, clients = [], []
        for name in ("nc1", "nc2"):
            container = net.add_vnf_container(name, cpu=2.0, mem=1024.0)
            pair = TransportPair(net.sim, latency=0.001)
            agents.append(VNFAgent(container, pair.server))
            clients.append(NetconfClient(pair.client))
            clients[-1].wait_connected()
        first, second = agents
        assert first.module is second.module
        # sharing the schema shares no outcome: each agent still refuses
        # a bad input and accepts a good one on its own session
        for agent, client in zip(agents, clients):
            with pytest.raises(RpcError) as exc:
                client.rpc("startVNF", VNF_NS, {"id": "x"}).result(net.sim)
            assert exc.value.tag == "invalid-value"
            start(client, net.sim)
            assert list(agent.container.vnfs) == ["v1"]

    def test_start_duplicate_id_fails(self, managed):
        net, _container, _agent, client = managed
        start(client, net.sim)
        with pytest.raises(RpcError):
            start(client, net.sim)

    def test_resource_exhaustion_reported(self, managed):
        net, _container, _agent, client = managed
        with pytest.raises(RpcError) as exc:
            start(client, net.sim, cpu="99")
        assert "reserve" in exc.value.message

    def test_bad_click_config_reported(self, managed):
        net, _container, _agent, client = managed
        with pytest.raises(RpcError):
            start(client, net.sim, config="x :: NoSuchElement;")

    def test_stop_vnf(self, managed):
        net, container, _agent, client = managed
        start(client, net.sim)
        client.rpc("stopVNF", VNF_NS, {"id": "v1"}).result(net.sim)
        assert container.vnfs == {}

    def test_stop_unknown_fails(self, managed):
        net, _container, _agent, client = managed
        with pytest.raises(RpcError):
            client.rpc("stopVNF", VNF_NS, {"id": "ghost"}).result(net.sim)

    def test_connect_disconnect(self, managed):
        net, container, _agent, client = managed
        start(client, net.sim, config=WIRE_VNF, devices="in0,out0")
        client.rpc("connectVNF", VNF_NS, {
            "id": "v1", "device": "in0",
            "interface": "nc1-eth0"}).result(net.sim)
        assert container.free_interfaces() == ["nc1-eth1"]
        client.rpc("disconnectVNF", VNF_NS, {
            "id": "v1", "device": "in0"}).result(net.sim)
        assert len(container.free_interfaces()) == 2

    def test_get_vnf_info_handler_read(self, managed):
        net, container, _agent, client = managed
        start(client, net.sim)
        feed(net, container)
        net.run(1.0)
        reply = client.rpc("getVNFInfo", VNF_NS, {
            "id": "v1", "handler": "cnt.count"}).result(net.sim)
        value = reply.find(qn("value", VNF_NS))
        assert int(value.text) > 50

    def test_get_vnf_info_bad_handler(self, managed):
        net, _container, _agent, client = managed
        start(client, net.sim)
        with pytest.raises(RpcError):
            client.rpc("getVNFInfo", VNF_NS, {
                "id": "v1", "handler": "cnt.bogus"}).result(net.sim)

    def test_list_handlers(self, managed):
        net, _container, _agent, client = managed
        start(client, net.sim)
        reply = client.rpc("listHandlers", VNF_NS,
                           {"id": "v1"}).result(net.sim)
        listing = reply.find(qn("handlers", VNF_NS)).text
        assert "cnt.count" in listing
        assert "src.count" in listing

    def test_write_handler(self, managed):
        net, container, _agent, client = managed
        start(client, net.sim)
        feed(net, container)
        net.run(0.5)
        client.rpc("writeVNFHandler", VNF_NS, {
            "id": "v1", "handler": "cnt.reset",
            "value": ""}).result(net.sim)
        reply = client.rpc("getVNFInfo", VNF_NS, {
            "id": "v1", "handler": "cnt.count"}).result(net.sim)
        assert reply.find(qn("value", VNF_NS)).text == "0"


class TestSurface:
    def test_agent_serves_its_model_and_nothing_else(self, managed):
        """The YANG module's rpcs, the handlers the agent registers and
        its ``_rpc_*`` methods are one set; a server answers no
        configuration operation nobody registered."""
        net, _container, agent, _client = managed
        methods = {name[len("_rpc_"):] for name in dir(VNFAgent)
                   if name.startswith("_rpc_")}
        assert set(agent.module.rpcs) == set(agent.server._rpc_handlers) \
            == methods
        assert len(methods) == 7
        pair = TransportPair(net.sim, latency=0.001)
        NetconfServer(pair.server)
        bare = NetconfClient(pair.client)
        bare.wait_connected()
        for operation in ("get", "get-config", "edit-config", "lock"):
            with pytest.raises(RpcError) as exc:
                bare.request(ET.Element(qn(operation))).result(net.sim)
            assert exc.value.tag == "operation-not-supported"
