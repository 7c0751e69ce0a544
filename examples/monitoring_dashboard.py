#!/usr/bin/env python
"""Live monitoring of a running chain (demo step 5, extended).

Part 1 (Clicky analog): deploys a monitor VNF that classifies chain
traffic per protocol, polls its handlers over NETCONF twice a
simulated second, and renders a textual dashboard with per-handler
rates — the data Clicky would graph.

Part 2 (observability stack): deploys a chain with an end-to-end
max-delay requirement, lets the SLA monitor probe it, degrades a
substrate link until the chain goes VIOLATED, and shows the health
console, the correlated event log and a flight-recorder capture whose
probe frames join back to their ``sla.probe`` spans.

Run:  python examples/monitoring_dashboard.py
"""

import os
import tempfile

from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph, load_topology

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 2, "mem": 1024},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "h2", "to": "s1", "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
    ],
}

SERVICE_GRAPH = {
    "name": "tap-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "tap", "type": "monitor"}],
    "chain": ["h1", "tap", "h2"],
}


SLA_TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 2, "mem": 1024},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "s1", "to": "s2", "delay": 0.001},
        {"from": "s2", "to": "h2", "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
    ],
}

SLA_SERVICE_GRAPH = {
    "name": "sla-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow all"}}],
    "chain": ["h1", "fw", "h2"],
    "requirements": [{"from": "h1", "to": "h2", "max_delay": 0.05}],
}


def sla_and_flight_recorder_demo():
    escape = ESCAPE.from_topology(load_topology(SLA_TOPOLOGY))
    escape.start()
    chain = escape.deploy_service(load_service_graph(SLA_SERVICE_GRAPH))
    escape.recorder.attach_chain(chain)  # record every mapped link
    console = escape.cli()

    escape.run(2.0)
    print("=== healthy chain ===")
    print(console.run_command("sla"))

    # degrade the core link past the 50 ms budget
    for link in escape.net.links_between("s1", "s2"):
        link.delay = 0.2
    escape.run(4.0)
    print("\n=== after degrading s1<->s2 to 200 ms ===")
    print(console.run_command("health"))
    print("\n--- WARN+ events (trace-correlated) ---")
    print(console.run_command("events warn"))

    # join a captured probe frame back to its pipeline span
    monitor = escape.sla_monitors["sla-chain"]
    report = monitor.last_report("h1", "h2")
    frames = escape.recorder.records(trace_id=report.trace_id)
    span = escape.recorder.find_span(frames[0])
    print("\n%d captured frames for probe trace %d; span: %s"
          % (len(frames), report.trace_id, span))
    # the capture goes to a fresh temporary directory (printed), not
    # into the working directory
    pcap = os.path.join(tempfile.mkdtemp(prefix="escape-"), "sla-chain.pcap")
    print(console.run_command("record pcap %s" % pcap))
    escape.stop()


def main():
    escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
    escape.start()
    chain = escape.deploy_service(load_service_graph(SERVICE_GRAPH))

    monitor = escape.monitor(chain, interval=0.5)
    samples_seen = []
    monitor.on_sample(
        lambda vnf, handler, sample: samples_seen.append(handler))
    monitor.start()

    h1, h2 = escape.net.get("h1"), escape.net.get("h2")

    # phase 1: a ping train (ICMP)
    h1.ping(h2.ip, count=10, interval=0.1)
    escape.run(1.5)
    print("=== after the ping train ===")
    print(monitor.dashboard())

    # phase 2: a UDP flow
    h1.start_udp_flow(h2.ip, 5001, rate_pps=200, duration=2.0,
                      payload_size=500)
    escape.run(2.5)
    print("\n=== during/after the UDP flow ===")
    print(monitor.dashboard())

    monitor.stop()
    icmp = monitor.latest("tap", "icmp.count")
    udp = monitor.latest("tap", "udp.count")
    print("\nprotocol split seen by the tap: icmp=%s udp=%s"
          % (icmp.value, udp.value))
    print("monitor issued %d NETCONF polls (%d live samples)"
          % (monitor.polls, len(samples_seen)))
    chain.undeploy()

    print("\n================================================")
    print("SLA conformance + flight recorder")
    print("================================================")
    sla_and_flight_recorder_demo()


if __name__ == "__main__":
    main()
