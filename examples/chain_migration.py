#!/usr/bin/env python
"""Live VNF migration — the "dynamics and flexibility" the paper's
introduction says today's hardware-bound service deployment lacks.

A firewall chain runs between two hosts while we move the firewall
from an edge container to a core container mid-traffic.  The
replacement instance starts, one steering change removes the old
segments and installs the new ones (break-before-make: a frame reaching
a switch between the two misses steering), then the old instance stops
— and the ping train running across the event keeps completing.

Run:  python examples/chain_migration.py
"""

from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph, load_topology

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "edge", "role": "vnf_container", "cpu": 2, "mem": 1024},
        {"name": "core", "role": "vnf_container", "cpu": 8, "mem": 8192},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "s1", "to": "s2", "delay": 0.002},
        {"from": "h2", "to": "s2", "delay": 0.001},
        {"from": "edge", "to": "s1", "delay": 0.0005},
        {"from": "edge", "to": "s1", "delay": 0.0005},
        {"from": "core", "to": "s2", "delay": 0.0005},
        {"from": "core", "to": "s2", "delay": 0.0005},
    ],
}

SERVICE_GRAPH = {
    "name": "mig-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow icmp, drop all"}}],
    "chain": ["h1", "fw", "h2"],
}


def main():
    escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
    escape.start()
    chain = escape.deploy_service(load_service_graph(SERVICE_GRAPH),
                                  mapper="shortest-path")
    source = chain.mapping.vnf_placement["fw"]
    target = "core" if source == "edge" else "edge"
    print("firewall initially on %r" % source)

    h1, h2 = escape.net.get("h1"), escape.net.get("h2")

    # a long ping train that spans the migration
    train = h1.ping(h2.ip, count=20, interval=0.25)
    escape.run(2.0)  # ~8 pings done on the old placement
    before_count = int(chain.read_handler("fw", "cnt_in.count"))
    print("mid-train: %d packets seen by the old instance"
          % before_count)

    print("migrating fw -> %r ..." % target)
    chain.migrate("fw", target)
    escape.run(4.0)  # the rest of the train runs on the new placement

    print(train.summary())
    after_count = int(chain.read_handler("fw", "cnt_in.count"))
    print("new instance on %r has seen %d packets"
          % (chain.mapping.vnf_placement["fw"], after_count))
    print("old container now hosts %d VNFs, new hosts %d"
          % (len(escape.net.get(source).vnfs),
             len(escape.net.get(target).vnfs)))

    # and the policy still holds after the move
    h1.send_udp(h2.ip, 9999, b"probe")
    escape.run(0.5)
    print("UDP still blocked after migration: %s"
          % ("yes" if h2.udp_rx_count == 0 else "NO (bug!)"))
    chain.undeploy()


if __name__ == "__main__":
    main()
