#!/usr/bin/env python
"""Quickstart: the paper's demo in ~60 lines.

Builds a small topology with one VNF container, deploys a firewall
service chain between two hosts, sends live traffic through it, and
reads the VNF's counters — demo steps (1) through (5).

Run:  python examples/quickstart.py
"""

from repro.core import ESCAPE, verify_sla
from repro.core.sgfile import load_service_graph, load_topology

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "bandwidth": 100e6, "delay": 0.001},
        {"from": "h2", "to": "s1", "bandwidth": 100e6, "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
    ],
}

SERVICE_GRAPH = {
    "name": "quickstart-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow icmp, drop all"}}],
    "chain": ["h1", "fw", "h2"],
    "requirements": [{"from": "h1", "to": "h2", "max_delay": 0.05}],
}


def main():
    # Step 1: define VNF containers and the rest of the topology.
    escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
    escape.start()
    print("started:", escape)

    # Steps 2+3: build the service graph and map + deploy it.
    chain = escape.deploy_service(load_service_graph(SERVICE_GRAPH))
    print("deployed:", chain.mapping.vnf_placement)

    # Step 4: send and inspect live traffic.
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    result = h1.ping(h2.ip, count=5, interval=0.2)
    escape.run(3.0)
    print(result.summary())

    h1.send_udp(h2.ip, 9999, b"will the firewall let me through?")
    escape.run(0.5)
    print("UDP datagrams delivered to h2: %d (firewall says no)"
          % h2.udp_rx_count)

    # Step 5: monitor the VNF (Clicky-style handler reads).
    print("firewall passed=%s dropped=%s"
          % (chain.read_handler("fw", "fw.passed"),
             chain.read_handler("fw", "fw.dropped")))

    # SLA check against the requirement in the service graph.
    for report in verify_sla(chain):
        print("SLA: measured one-way delay %.2f ms (limit %.0f ms) -> %s"
              % (report.measured_delay * 1e3,
                 report.requirement.max_delay * 1e3,
                 "OK" if report.satisfied else "VIOLATED"))

    chain.undeploy()
    print("chain torn down; bye")


if __name__ == "__main__":
    main()
