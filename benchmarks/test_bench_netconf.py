"""NC1 — management-plane cost: NETCONF RPC round-trips, framing
overhead, and one monitoring wave over N agents."""

import pytest

from repro.netconf import NetconfClient, TransportPair, VNFAgent
from repro.netconf.framing import ChunkedFramer, EomFramer
from repro.netconf.vnf_yang import VNF_NS
from repro.netem import Network

SIMPLE_VNF = "src :: FromDevice(in0) -> cnt :: Counter -> Discard;"


def agent_rig(net, name="nc1"):
    """A container with its agent and a connected client."""
    container = net.add_vnf_container(name, cpu=64.0, mem=65536.0)
    pair = TransportPair(net.sim, latency=0.001)
    VNFAgent(container, pair.server)
    client = NetconfClient(pair.client)
    client.wait_connected()
    return client


def start_counter(net, client):
    """Start the one VNF ``read_count`` reads."""
    client.rpc("startVNF", VNF_NS, {
        "id": "v1", "click-config": SIMPLE_VNF,
        "devices": "in0"}).result(net.sim)


def read_count(client):
    """The handler read ``VNFMonitor`` polls."""
    return client.rpc("getVNFInfo", VNF_NS,
                      {"id": "v1", "handler": "cnt.count"})


def test_rpc_roundtrip(benchmark):
    """getVNFInfo (handler read) round-trip, wall-clock."""
    net = Network()
    client = agent_rig(net)
    start_counter(net, client)

    def read():
        read_count(client).result(net.sim)
    benchmark(read)


def test_start_stop_vnf_rpc(benchmark):
    """startVNF + stopVNF pair (the deploy inner loop)."""
    net = Network()
    client = agent_rig(net)
    counter = {"n": 0}

    def cycle():
        counter["n"] += 1
        vnf_id = "v%d" % counter["n"]
        client.rpc("startVNF", VNF_NS, {
            "id": vnf_id, "click-config": SIMPLE_VNF,
            "devices": "in0"}).result(net.sim)
        client.rpc("stopVNF", VNF_NS, {"id": vnf_id}).result(net.sim)
    benchmark.pedantic(cycle, rounds=10, iterations=1)


@pytest.mark.parametrize("framer_cls", [EomFramer, ChunkedFramer])
def test_framing_overhead(benchmark, framer_cls):
    """Pure framing encode+decode cost at protocol message sizes."""
    payload = b"<rpc>" + b"x" * 2000 + b"</rpc>"

    def frame_cycle():
        tx, rx = framer_cls(), framer_cls()
        for _ in range(200):
            out = rx.feed(tx.frame(payload))
            assert out
    benchmark.pedantic(frame_cycle, rounds=5, iterations=1)


@pytest.mark.parametrize("agents", [1, 8, 32])
def test_agent_fanout(benchmark, agents):
    """Orchestrator reading one handler of each of N containers' VNFs
    in parallel (one monitoring poll wave)."""
    net = Network()
    clients = [agent_rig(net, "nc%d" % index) for index in range(agents)]
    for client in clients:
        start_counter(net, client)

    def wave():
        pendings = [read_count(client) for client in clients]
        net.run(0.5)
        assert all(pending.done and pending.error is None
                   for pending in pendings)
    benchmark.pedantic(wave, rounds=5, iterations=1)
