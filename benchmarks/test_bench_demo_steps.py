"""DEMO1–DEMO5 — the paper's five demo steps, each as a benchmark.

(1) define VNF containers + topology, (2) build the SG, (3) map +
deploy, (4) live traffic, (5) monitoring.  Parameter sweeps show how
each step scales with its natural knob.
"""

import pytest

from benchmarks.helpers import (attach_telemetry, chain_sg, demo_topology,
                                started_escape)
from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph


# -- step 1: topology with VNF containers ------------------------------------

@pytest.mark.parametrize("containers", [2, 8, 32, 64])
def test_step1_topology_setup(benchmark, containers):
    def build():
        escape = ESCAPE.from_topology(
            demo_topology(containers=containers, container_ports=2))
        escape.start()
        assert len(escape.netconf_clients) == containers
        escape.stop()
    benchmark.pedantic(build, rounds=3, iterations=1)


# -- step 2: SG construction from the catalog ----------------------------------

@pytest.mark.parametrize("length", [1, 4, 16])
def test_step2_sg_construction(benchmark, length):
    def build():
        sg = chain_sg(length)
        sg.validate()
        assert len(sg.vnfs) == length
        return sg
    benchmark(build)


def test_step2_branching_sg(benchmark):
    def build():
        return load_service_graph({
            "name": "branching",
            "saps": ["h1", "h2"],
            "vnfs": [
                {"name": "lb", "type": "load_balancer"},
                {"name": "fwa", "type": "firewall"},
                {"name": "fwb", "type": "firewall"},
                {"name": "join", "type": "forwarder"},
            ],
            "links": [
                {"from": "h1", "to": "lb"},
                {"from": "lb", "to": "fwa"},
                {"from": "lb", "to": "fwb"},
                {"from": "fwa", "to": "join"},
                {"from": "fwb", "to": "join"},
                {"from": "join", "to": "h2"},
            ],
        })
    benchmark(build)


# -- step 3: map + deploy -------------------------------------------------------

@pytest.mark.parametrize("length", [1, 2, 4, 8])
def test_step3_map_and_deploy(benchmark, length):
    """Deploy latency vs chain length (NETCONF + steering included)."""
    escape = started_escape(containers=4, container_ports=2 * length + 2)

    counter = {"n": 0}

    def deploy_undeploy():
        counter["n"] += 1
        sg = chain_sg(length, name="bench-%d" % counter["n"])
        chain = escape.deploy_service(sg)
        assert chain.active
        chain.undeploy()
    benchmark.pedantic(deploy_undeploy, rounds=5, iterations=1)
    attach_telemetry(benchmark, escape)


# -- step 4: live traffic through a deployed chain --------------------------------

def test_step4_traffic(benchmark):
    escape = started_escape(containers=2)
    chain = escape.deploy_service(chain_sg(2, name="traffic-chain"))
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    sent = []

    def ping_train():
        result = h1.ping(h2.ip, count=5, interval=0.05)
        escape.run(1.0)
        assert result.received == 5
        sent.append(result.sent)
        return result
    benchmark.pedantic(ping_train, rounds=5, iterations=1)
    # --benchmark-disable runs one round, not five
    assert int(chain.read_handler("v0", "cnt_in.count")) >= sum(sent) > 0
    attach_telemetry(benchmark, escape)


def test_step4_udp_throughput(benchmark):
    escape = started_escape(containers=2)
    escape.deploy_service(chain_sg(1, name="tput-chain"))
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")

    def blast():
        before = h2.udp_rx_count
        h1.start_udp_flow(h2.ip, 5001, rate_pps=500, duration=1.0,
                          payload_size=500)
        escape.run(2.0)
        assert h2.udp_rx_count - before == 500
    benchmark.pedantic(blast, rounds=3, iterations=1)


# -- step 5: monitoring -------------------------------------------------------------

@pytest.mark.parametrize("vnfs", [1, 4])
def test_step5_monitoring(benchmark, vnfs):
    """Cost of one Clicky-style poll round over N VNFs (NETCONF RTT)."""
    escape = started_escape(containers=2,
                            container_ports=2 * vnfs + 2)
    chain = escape.deploy_service(chain_sg(vnfs, name="mon-chain"))
    monitor = escape.monitor(chain, interval=0.5)

    def poll_round():
        for vnf_name, handler in monitor._watch:
            monitor._poll_one(vnf_name, handler)
        escape.run(0.2)  # let replies land
    benchmark.pedantic(poll_round, rounds=5, iterations=1)
    assert monitor.poll_errors == 0
    attach_telemetry(benchmark, escape)
