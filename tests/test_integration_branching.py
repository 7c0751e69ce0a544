"""End-to-end deployment of a *branching* service graph: a load
balancer splits chain traffic across two parallel firewalls which merge
into a monitor before the sink SAP.

This exercises the orchestrator's per-SG-link segment installation with
multiple egress devices (out0/out1) and fan-in at a shared ingress.
"""

import pytest

from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph, load_topology

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 8, "mem": 8192},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "h2", "to": "s1", "delay": 0.001},
    ] + [
        {"from": "nc1", "to": "s1", "delay": 0.0005} for _ in range(12)
    ],
}

BRANCHING_SG = {
    "name": "lb-graph",
    "saps": ["h1", "h2"],
    "vnfs": [
        {"name": "lb", "type": "load_balancer"},
        {"name": "fwa", "type": "forwarder"},
        {"name": "fwb", "type": "forwarder"},
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
}


@pytest.fixture
def escape():
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY))
    framework.start()
    return framework


class TestBranchingDeployment:
    def test_deploys_with_all_segments(self, escape):
        chain = escape.deploy_service(BRANCHING_SG)
        assert len(chain.vnfs) == 4
        # 6 SG links + 1 direct return path
        assert len(chain.path_ids) == 7

    def test_traffic_splits_and_merges(self, escape):
        chain = escape.deploy_service(BRANCHING_SG)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        before = h2.udp_rx_count
        for index in range(10):
            h1.send_udp(h2.ip, 5001, b"packet-%d" % index)
            escape.run(0.05)
        escape.run(1.0)
        assert h2.udp_rx_count - before == 10
        # the balancer spread the packets over both branches
        branch_a = int(chain.read_handler("fwa", "cnt_in.count"))
        branch_b = int(chain.read_handler("fwb", "cnt_in.count"))
        assert branch_a == 5
        assert branch_b == 5
        # and the join saw everything
        assert int(chain.read_handler("join", "cnt_in.count")) == 10

    def test_lb_counters_confirm_split(self, escape):
        chain = escape.deploy_service(BRANCHING_SG)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        for _ in range(6):
            h1.send_udp(h2.ip, 5001, b"x")
            escape.run(0.05)
        escape.run(0.5)
        assert int(chain.read_handler("lb", "cnt_a.count")) == 3
        assert int(chain.read_handler("lb", "cnt_b.count")) == 3

    def test_ping_through_branching_graph(self, escape):
        escape.deploy_service(BRANCHING_SG)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=4, interval=0.2)
        escape.run(3.0)
        assert result.received == 4

    def test_undeploy_cleans_everything(self, escape):
        chain = escape.deploy_service(BRANCHING_SG)
        chain.undeploy()
        escape.run(0.1)
        assert escape.net.get("nc1").vnfs == {}
        assert escape.steering.paths == {}
        snapshot = escape.orchestrator.view.snapshot()["nc1"]
        assert snapshot["cpu_used"] == pytest.approx(0.0)
        assert snapshot["ports_used"] == 0
