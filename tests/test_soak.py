"""Soak tests: sustained deploy/undeploy churn and many concurrent
chains — nothing may leak (resources, flows, VNFs, steering state)."""

import json

import pytest

from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph, load_topology
from tests.audit import udp_flowspec


def big_topology(containers=4, ports=12):
    nodes = [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
    ]
    links = [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "s1", "to": "s2", "delay": 0.001},
        {"from": "h2", "to": "s2", "delay": 0.001},
    ]
    for index in range(containers):
        name = "nc%d" % index
        nodes.append({"name": name, "role": "vnf_container",
                      "cpu": 16, "mem": 16384})
        switch = "s1" if index % 2 == 0 else "s2"
        links.extend({"from": name, "to": switch, "delay": 0.0005}
                     for _ in range(ports))
    return load_topology({"nodes": nodes, "links": links})


def chain_sg(name, length=1):
    vnfs = ["v%d" % index for index in range(length)]
    return load_service_graph({
        "name": name,
        "saps": ["h1", "h2"],
        "vnfs": [{"name": vnf, "type": "forwarder"} for vnf in vnfs],
        "chain": ["h1"] + vnfs + ["h2"],
    })


class TestChurn:
    def test_fifty_deploy_undeploy_cycles_leave_no_residue(self):
        escape = ESCAPE.from_topology(big_topology())
        escape.start()
        baseline = escape.status()
        for cycle in range(50):
            chain = escape.deploy_service(chain_sg("churn-%d" % cycle, 2))
            chain.undeploy()
        after = escape.status()
        assert after["steering_paths"] == 0
        assert after["services"] == {}
        for name, info in after["containers"].items():
            assert info["vnfs"] == []
            assert info["cpu_used"] == pytest.approx(0.0)
            assert info["free_interfaces"] \
                == baseline["containers"][name]["free_interfaces"]
        steering_flows = [
            entry for switch in escape.net.switches()
            for entry in switch.datapath.table.entries
            if entry.priority >= 0x6000]
        assert steering_flows == []

    def test_many_concurrent_chains(self):
        """Each chain on a flowspec of its own."""
        escape = ESCAPE.from_topology(big_topology(containers=6,
                                                   ports=16))
        escape.start()
        chains = []
        deployed = 0
        for index in range(40):
            try:
                chains.append(escape.deploy_service(
                    chain_sg("many-%d" % index),
                    match=udp_flowspec(escape, 5000 + index)))
                deployed += 1
            except Exception:
                break  # substrate full: acceptable stopping point
        assert deployed >= 20
        # traffic still flows through the environment
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=2, interval=0.2)
        escape.run(2.0)
        assert result.received == 2
        for chain in chains:
            chain.undeploy()
        assert escape.status()["steering_paths"] == 0

    def test_churn_with_migration_mix(self):
        escape = ESCAPE.from_topology(big_topology())
        escape.start()
        containers = [c.name for c in escape.net.vnf_containers()]
        for cycle in range(10):
            chain = escape.deploy_service(chain_sg("mix-%d" % cycle))
            placed = chain.mapping.vnf_placement["v0"]
            target = next(name for name in containers if name != placed)
            chain.migrate("v0", target)
            chain.undeploy()
        status = escape.status()
        for info in status["containers"].values():
            assert info["vnfs"] == []
            assert info["cpu_used"] == pytest.approx(0.0)


class TestStatus:
    def test_status_is_json_serializable(self):
        escape = ESCAPE.from_topology(big_topology(containers=2))
        escape.start()
        escape.deploy_service(chain_sg("status-chain"))
        blob = json.dumps(escape.status())
        parsed = json.loads(blob)
        assert parsed["services"]["status-chain"]["active"] is True
        assert parsed["switches"]["s1"]["connected"] is True

    def test_status_reflects_lifecycle(self):
        escape = ESCAPE.from_topology(big_topology(containers=2))
        escape.start()
        chain = escape.deploy_service(chain_sg("lifecycle"))
        mid = escape.status()
        assert mid["steering_paths"] > 0
        placed = chain.mapping.vnf_placement["v0"]
        assert mid["containers"][placed]["cpu_used"] > 0
        chain.undeploy()
        done = escape.status()
        assert done["steering_paths"] == 0
        assert done["containers"][placed]["cpu_used"] \
            == pytest.approx(0.0)
