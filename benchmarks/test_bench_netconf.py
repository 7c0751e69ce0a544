"""NC1 — management-plane cost: NETCONF RPC round-trips, framing
overhead, and the batching ablation (one RPC per VNF vs one
edit-config carrying the batch)."""

import xml.etree.ElementTree as ET

import pytest

from repro.netconf import (NetconfClient, NetconfServer, TransportPair,
                           VNFAgent)
from repro.netconf.framing import ChunkedFramer, EomFramer
from repro.netconf.messages import qn
from repro.netconf.vnf_yang import VNF_NS
from repro.netem import Network
from repro.sim import Simulator

SIMPLE_VNF = "src :: FromDevice(in0) -> cnt :: Counter -> Discard;"


def agent_rig():
    net = Network()
    container = net.add_vnf_container("nc1", cpu=64.0, mem=65536.0)
    pair = TransportPair(net.sim, latency=0.001)
    VNFAgent(container, pair.server)
    client = NetconfClient(pair.client)
    client.wait_connected()
    return net, client


def test_rpc_roundtrip(benchmark):
    """get (state read) round-trip, wall-clock."""
    net, client = agent_rig()

    def get():
        client.get().result(net.sim)
    benchmark(get)


def test_start_stop_vnf_rpc(benchmark):
    """startVNF + stopVNF pair (the deploy inner loop)."""
    net, client = agent_rig()
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


def test_batching_ablation(benchmark):
    """One edit-config carrying N items vs N separate RPCs — prints the
    NC1 table of simulated management-plane time and asserts batching
    wins (fewer round-trip latencies)."""
    rows = []

    def measure():
        for batch in (1, 4, 16, 64):
            rows.append(_run_batch_comparison(batch))
    benchmark.pedantic(measure, rounds=1, iterations=1)
    _print_batching_table(rows)
    # shape: batching amortizes the RTT — the gap widens with N
    assert rows[-1][1] / rows[-1][2] > rows[0][1] / rows[0][2]
    assert rows[-1][1] > rows[-1][2]


def _run_batch_comparison(batch):
    if True:
        # N separate RPCs (each a get-config round trip)
        sim = Simulator()
        pair = TransportPair(sim, latency=0.002)
        NetconfServer(pair.server)
        client = NetconfClient(pair.client)
        client.wait_connected()
        start = sim.now
        for index in range(batch):
            config = ET.Element(qn("item%d" % index, "urn:bench"))
            config.text = "v"
            client.edit_config(config).result(sim)
        unbatched = sim.now - start

        # one edit-config carrying all N items under one container
        sim2 = Simulator()
        pair2 = TransportPair(sim2, latency=0.002)
        NetconfServer(pair2.server)
        client2 = NetconfClient(pair2.client)
        client2.wait_connected()
        start2 = sim2.now
        bundle = ET.Element(qn("bundle", "urn:bench"))
        for index in range(batch):
            ET.SubElement(bundle,
                          qn("item%d" % index, "urn:bench")).text = "v"
        client2.edit_config(bundle).result(sim2)
        batched = sim2.now - start2
        return (batch, unbatched, batched)


def _print_batching_table(rows):
    print("\nNC1: management-plane time, batched vs unbatched edits")
    print("%8s %16s %16s %8s" % ("items", "unbatched [ms]",
                                 "batched [ms]", "ratio"))
    for batch, unbatched, batched in rows:
        print("%8d %16.2f %16.2f %8.1fx"
              % (batch, unbatched * 1e3, batched * 1e3,
                 unbatched / batched))


@pytest.mark.parametrize("agents", [1, 8, 32])
def test_agent_fanout(benchmark, agents):
    """Orchestrator querying N containers in parallel (one poll wave)."""
    net = Network()
    clients = []
    for index in range(agents):
        container = net.add_vnf_container("nc%d" % index)
        pair = TransportPair(net.sim, latency=0.001)
        VNFAgent(container, pair.server)
        client = NetconfClient(pair.client)
        clients.append(client)
    for client in clients:
        client.wait_connected()

    def wave():
        pendings = [client.get() for client in clients]
        net.run(0.5)
        assert all(pending.done for pending in pendings)
    benchmark.pedantic(wave, rounds=5, iterations=1)
