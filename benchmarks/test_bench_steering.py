"""STEER1 — traffic-steering cost: flow-mods per chain and install
latency vs path length.  Exact-match steering installs one entry per
hop (EXPERIMENTS.md SIMPL15 records why it is the one granularity)."""

import pytest

from repro.netem import LinearTopo, Network
from repro.openflow import Match
from repro.pox import (Core, OpenFlowNexus, PathHop, SteeringChange,
                       TrafficSteering)


def steering_rig(switches):
    net = Network.build(LinearTopo(k=switches, n=1))
    nexus = OpenFlowNexus(Core(net.sim))
    steering = TrafficSteering(nexus)
    net.add_controller(nexus)
    net.start()
    net.run(0.1)
    hops = [PathHop(dpid, 1, 2) for dpid in range(1, switches + 1)]
    return net, steering, hops


@pytest.mark.parametrize("switches", [2, 8, 32])
def test_path_install_latency(benchmark, switches):
    net, steering, hops = steering_rig(switches)
    counter = {"n": 0}

    def install_remove():
        counter["n"] += 1
        path_id = "p%d" % counter["n"]
        steering.apply(SteeringChange().install(
            path_id, hops, Match(nw_src="10.0.0.%d"
                                 % (counter["n"] % 250 + 1))))
        net.run(0.05)  # flow-mods land on the switches
        steering.apply(SteeringChange().remove(path_id))
        net.run(0.05)
    benchmark.pedantic(install_remove, rounds=5, iterations=1)


def test_flow_mod_count_table(benchmark):
    """Entries per chain vs hops — prints the STEER1 table and asserts
    one entry per hop."""
    rows = []

    def measure():
        for switches in (2, 4, 8, 16, 32):
            _net, steering, hops = steering_rig(switches)
            steering.apply(SteeringChange().install(
                "p", hops, Match(nw_src="10.0.0.1")))
            rows.append((switches, steering.flow_mod_count("p")))
    benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\nSTEER1: flow entries per installed chain path")
    print("%8s %10s" % ("hops", "exact"))
    for switches, exact in rows:
        print("%8d %10d" % (switches, exact))
    for switches, exact in rows:
        assert exact == switches


@pytest.mark.parametrize("chains", [1, 16, 64])
def test_many_chains_install_throughput(benchmark, chains):
    """Total time to install N disjoint chain paths (deploy burst)."""
    net, steering, hops = steering_rig(8)
    round_counter = {"n": 0}

    def install_burst():
        round_counter["n"] += 1
        base = round_counter["n"] * chains
        burst = ["burst-%d" % (base + index) for index in range(chains)]
        install = SteeringChange()
        for index, path_id in enumerate(burst):
            install.install(path_id, hops, Match(
                nw_src="10.%d.%d.1"
                % ((base + index) // 250, (base + index) % 250)))
        steering.apply(install)
        net.run(0.1)
        steering.apply(SteeringChange().remove(*burst))
        net.run(0.1)
    benchmark.pedantic(install_burst, rounds=3, iterations=1)
