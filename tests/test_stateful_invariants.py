"""Randomized stateful testing: arbitrary interleavings of deploy /
undeploy / migrate / traffic must preserve the framework's invariants.

Invariants checked after every operation:

* the resource view's per-container usage equals the sum of demands of
  the *active* chains placed there (and matches the container's own
  cgroup budget),
* every active chain's steering paths are installed; no orphan steering
  paths exist,
* every active chain's VNFs are running in the containers the mapping
  says; no orphan VNF processes exist,
* every steering path of an active chain, forward or reverse, enters
  and leaves containers only through interfaces the chain's running
  VNFs are spliced to,
* once the FlowMods in flight have landed, the switch tables hold every
  steering entry of every installed path (``tests.audit``).

Each deployed chain has a UDP flowspec of its own and steers its
replies ``direct`` or back through the ``chain``, drawn at random per
deploy.  A deploy or migration that steering refuses (a route would
take over an entry another route holds) is accepted, like a full
substrate.
"""

import random

import pytest

from repro.core import ESCAPE, MappingError, OrchestratorError
from repro.core.sgfile import load_service_graph, load_topology
from repro.netem import VNFContainer
from repro.netem.node import Switch
from repro.pox import SteeringError
from tests.audit import audit_tables, udp_flowspec


def topology():
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
    for index in range(3):
        name = "nc%d" % index
        nodes.append({"name": name, "role": "vnf_container",
                      "cpu": 4, "mem": 4096})
        switch = "s1" if index % 2 == 0 else "s2"
        links.extend({"from": name, "to": switch, "delay": 0.0005}
                     for _ in range(8))
    return load_topology({"nodes": nodes, "links": links})


def make_sg(name, rng):
    length = rng.randint(1, 3)
    vnf_type = rng.choice(["forwarder", "firewall", "monitor"])
    vnfs = ["v%d" % index for index in range(length)]
    return load_service_graph({
        "name": name,
        "saps": ["h1", "h2"],
        "vnfs": [{"name": vnf, "type": vnf_type} for vnf in vnfs],
        "chain": ["h1"] + vnfs + ["h2"],
    })


def check_invariants(escape):
    active = list(escape.orchestrator.deployed.values())
    assert all(chain.active for chain in active)

    # 1. view usage == sum of active chains' demands, per container
    expected = {name: [0.0, 0.0, 0]  # cpu, mem, ports
                for name in escape.orchestrator.view.containers()}
    for chain in active:
        for vnf_name, container in chain.mapping.vnf_placement.items():
            cpu, mem, ports = chain.mapper.demand_of(chain.sg, vnf_name)
            expected[container][0] += cpu
            expected[container][1] += mem
            expected[container][2] += ports
    for name, (cpu, mem, ports) in expected.items():
        data = escape.orchestrator.view.graph.nodes[name]
        assert data["cpu_used"] == pytest.approx(cpu), name
        assert data["mem_used"] == pytest.approx(mem), name
        assert data["ports_used"] == ports, name
        # the container's own cgroup budget agrees
        budget = escape.net.get(name).budget
        assert budget.cpu_used == pytest.approx(cpu), name

    # 2. steering paths == union of active chains' path ids
    expected_paths = set()
    for chain in active:
        expected_paths.update(chain.path_ids)
    assert set(escape.steering.paths) == expected_paths

    # 3. running VNF ids == union of active chains' instances
    expected_vnfs = {}
    for chain in active:
        for deployed in chain.vnfs.values():
            expected_vnfs.setdefault(deployed.container,
                                     set()).add(deployed.vnf_id)
    for container in escape.net.vnf_containers():
        assert set(container.vnfs) \
            == expected_vnfs.get(container.name, set()), container.name

    # 4. steering reaches containers only through live VNF interfaces
    peer_of = {}  # (dpid, port) -> the interface at the link's far end
    for link in escape.net.links:
        for intf, peer in ((link.intf1, link.intf2),
                           (link.intf2, link.intf1)):
            if isinstance(intf.node, Switch):
                peer_of[(intf.node.dpid,
                         intf.node.port_number(intf))] = peer
    for chain in active:
        spliced = {(deployed.container, intf_name)
                   for deployed in chain.vnfs.values()
                   for intf_name in deployed.device_interfaces.values()}
        for path_id in chain.path_ids:
            for hop in escape.steering.paths[path_id].hops:
                for port in (hop.in_port, hop.out_port):
                    peer = peer_of[(hop.dpid, port)]
                    if isinstance(peer.node, VNFContainer):
                        assert (peer.node.name, peer.name) in spliced, \
                            path_id

    # 5. the tables hold every installed path, once the FlowMods land
    escape.run(0.05)
    assert audit_tables(escape) == []


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_operation_sequences_preserve_invariants(seed):
    rng = random.Random(seed)
    escape = ESCAPE.from_topology(topology(),
                                  discovery_interval=3600.0)
    escape.start()
    containers = [c.name for c in escape.net.vnf_containers()]
    counter = 0
    for _step in range(40):
        operation = rng.choice(["deploy", "deploy", "undeploy",
                                "migrate", "traffic", "run"])
        active = list(escape.orchestrator.deployed.values())
        if operation == "deploy":
            counter += 1
            name = "svc-%d-%d" % (seed, counter)
            try:
                escape.deploy_service(
                    make_sg(name, rng),
                    mapper=rng.choice(["greedy", "shortest-path"]),
                    match=udp_flowspec(escape, 5000 + counter),
                    return_path=rng.choice(["direct", "chain"]))
            except (MappingError, OrchestratorError, SteeringError):
                pass  # substrate full: fine, invariants must still hold
        elif operation == "undeploy" and active:
            chain = rng.choice(active)
            chain.undeploy()
        elif operation == "migrate" and active:
            chain = rng.choice(active)
            vnf_name = rng.choice(list(chain.vnfs))
            target = rng.choice(containers)
            try:
                chain.migrate(vnf_name, target)
            except (OrchestratorError, SteeringError):
                pass  # target full / no ports / a looping route
        elif operation == "traffic":
            h1 = escape.net.get("h1")
            h2 = escape.net.get("h2")
            h1.send_udp(h2.ip, 5001, b"probe")
            escape.run(0.2)
        else:
            escape.run(rng.uniform(0.05, 0.5))
        check_invariants(escape)
    # teardown everything and verify the substrate is pristine
    for chain in list(escape.orchestrator.deployed.values()):
        chain.undeploy()
    assert escape.status()["services"] == {}
    check_invariants(escape)
    for container in escape.net.vnf_containers():
        assert container.budget.cpu_used == pytest.approx(0.0)
