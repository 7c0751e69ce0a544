"""STEER1 — traffic-steering cost: flow-mods per chain and install
latency vs path length, exact vs VLAN granularity (the design ablation
DESIGN.md calls out)."""

import pytest

from repro.netem import LinearTopo, Network
from repro.openflow import Match
from repro.pox import (Core, OpenFlowNexus, PathHop, SteeringChange,
                       TrafficSteering)


def steering_rig(switches, mode):
    net = Network.build(LinearTopo(k=switches, n=1))
    nexus = OpenFlowNexus(Core(net.sim))
    steering = TrafficSteering(nexus, mode=mode)
    net.add_controller(nexus)
    net.start()
    net.run(0.1)
    hops = [PathHop(dpid, 1, 2) for dpid in range(1, switches + 1)]
    return net, steering, hops


@pytest.mark.parametrize("mode", ["exact", "vlan"])
@pytest.mark.parametrize("switches", [2, 8, 32])
def test_path_install_latency(benchmark, mode, switches):
    net, steering, hops = steering_rig(switches, mode)
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
    """Entries per chain vs hops, exact vs vlan — prints the STEER1
    table and asserts the linear shape."""
    rows = []

    def measure():
        for switches in (2, 4, 8, 16, 32):
            counts = {}
            for mode in ("exact", "vlan"):
                _net, steering, hops = steering_rig(switches, mode)
                steering.apply(SteeringChange().install(
                    "p", hops, Match(nw_src="10.0.0.1")))
                counts[mode] = steering.flow_mod_count("p")
            rows.append((switches, counts["exact"], counts["vlan"]))
    benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\nSTEER1: flow entries per installed chain path")
    print("%8s %10s %10s" % ("hops", "exact", "vlan"))
    for switches, exact, vlan in rows:
        print("%8d %10d %10d" % (switches, exact, vlan))
    # both modes are linear in hops; per-hop count identical here (one
    # entry per switch) but vlan entries in the core are *narrower*
    for switches, exact, vlan in rows:
        assert exact == switches
        assert vlan == switches


def test_vlan_core_entries_are_narrow(benchmark):
    """The ablation's actual payoff: VLAN-mode core entries match only
    (in_port, vlan) while exact-mode entries carry the full 5-tuple —
    i.e. per-chain state in the core is independent of the flowspec."""
    _net, steering, hops = steering_rig(4, "vlan")
    benchmark.pedantic(
        lambda: steering.apply(SteeringChange().install(
            "p", hops, Match(nw_src="10.0.0.1", nw_dst="10.0.0.2",
                             tp_dst=80))),
        rounds=1, iterations=1)
    core_mods = [flow_mod for _dpid, flow_mod
                 in steering.paths["p"].flow_mods[1:-1]]
    for flow_mod in core_mods:
        assert flow_mod.match.nw_src is None
        assert flow_mod.match.dl_vlan is not None


@pytest.mark.parametrize("chains", [1, 16, 64])
def test_many_chains_install_throughput(benchmark, chains):
    """Total time to install N disjoint chain paths (deploy burst)."""
    net, steering, hops = steering_rig(8, "exact")
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
