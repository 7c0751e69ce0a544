#!/usr/bin/env python
"""Extending the Orchestrator with a custom mapping algorithm.

The paper: "a dedicated component maps abstract service graphs into
available resources based on different optimization algorithms (which
can be easily changed or customized)".  This example writes one — a
load-balancing mapper that always places on the least-utilized
container — plugs it into ESCAPE, and compares its placements with the
built-in strategies on a batch of chain requests.

Run:  python examples/custom_mapper.py
"""

from collections import Counter

from repro.core import ESCAPE, MappingError
from repro.core.mapping import GreedyMapper
from repro.core.sgfile import load_service_graph, load_topology
from repro.openflow import Match
from repro.packet import Ethernet, IPv4

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 8, "mem": 8192},
        {"name": "nc2", "role": "vnf_container", "cpu": 8, "mem": 8192},
        {"name": "nc3", "role": "vnf_container", "cpu": 8, "mem": 8192},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "h2", "to": "s1", "delay": 0.001},
    ] + [
        # plenty of interfaces per container, so placement is decided
        # by the mapper's policy rather than by port exhaustion
        {"from": "nc%d" % container, "to": "s1", "delay": 0.0005}
        for container in (1, 2, 3) for _ in range(20)
    ],
}


class LeastLoadedMapper(GreedyMapper):
    """Place every VNF on the container with the most free CPU.

    Subclassing GreedyMapper reuses its path routing; the base class
    rolls the view back if the embedding fails.  Only the
    container-choice policy changes — which is exactly the extension
    surface the Orchestrator exposes.
    """

    name = "least-loaded"

    def _embed(self, sg, view, mapping, undo):
        for vnf_name in sg.vnfs:
            cpu, mem, ports = demand = self.demand_of(sg, vnf_name)
            candidates = [name for name in view.containers()
                          if view.container_fits(name, cpu, mem, ports)]
            if not candidates:
                raise MappingError("no container fits %r" % vnf_name)
            chosen = max(candidates, key=lambda name:
                         view.graph.nodes[name]["cpu"]
                         - view.graph.nodes[name]["cpu_used"])
            self._place(view, mapping, undo, vnf_name, chosen, demand)
        self._route_links(sg, view, mapping, undo)


def chain_request(index):
    return load_service_graph({
        "name": "chain-%d" % index,
        "saps": ["h1", "h2"],
        "vnfs": [{"name": "fw%d" % index, "type": "firewall"}],
        "chain": ["h1", "fw%d" % index, "h2"],
    })


def flowspec(escape, index):
    """The traffic chain ``index`` steers: UDP from h1 to h2 port
    5000 + index.  Chains between one host pair need flowspecs of their
    own; steering refuses an entry another chain already holds."""
    return Match(dl_type=Ethernet.IP_TYPE, nw_src=escape.net.get("h1").ip,
                 nw_dst=escape.net.get("h2").ip,
                 nw_proto=IPv4.UDP_PROTOCOL, tp_dst=5000 + index)


def main():
    escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
    escape.start()
    escape.add_mapper("least-loaded", LeastLoadedMapper(escape.catalog))

    print("deploying 9 single-VNF chains with each strategy:\n")
    for strategy in ("greedy", "least-loaded"):
        chains = []
        for index in range(9):
            chains.append(escape.deploy_service(
                chain_request(index), mapper=strategy,
                match=flowspec(escape, index)))
        spread = Counter(next(iter(chain.mapping.vnf_placement.values()))
                         for chain in chains)
        print("%-14s placements: %s" % (strategy, dict(spread)))
        for chain in chains:
            chain.undeploy()

    print("\ngreedy packs the first container; least-loaded spreads "
          "evenly —\nthe policy is a ~20-line subclass.")


if __name__ == "__main__":
    main()
