#!/usr/bin/env python
"""A realistic multi-VNF web-service chain.

The scenario the paper's introduction motivates: client traffic to a
web service traverses firewall -> DPI -> rate-limiter before reaching
the server.  We deploy the three-VNF chain across two containers,
generate a mixed workload (legitimate requests, an attack signature,
and a flood), and read each VNF's verdict from its handlers.

Run:  python examples/web_service_chain.py
"""

from repro.core import ESCAPE, verify_sla
from repro.core.sgfile import load_service_graph, load_topology
from repro.openflow import Match
from repro.packet import Ethernet, IPv4

TOPOLOGY = {
    "nodes": [
        {"name": "client", "role": "host"},
        {"name": "server", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "edge", "role": "vnf_container", "cpu": 4, "mem": 4096},
        {"name": "core", "role": "vnf_container", "cpu": 4, "mem": 4096},
    ],
    "links": [
        {"from": "client", "to": "s1", "bandwidth": 100e6,
         "delay": 0.002},
        {"from": "s1", "to": "s2", "bandwidth": 1e9, "delay": 0.001},
        {"from": "server", "to": "s2", "bandwidth": 100e6,
         "delay": 0.0005},
        {"from": "edge", "to": "s1", "delay": 0.0002},
        {"from": "edge", "to": "s1", "delay": 0.0002},
        {"from": "edge", "to": "s1", "delay": 0.0002},
        {"from": "edge", "to": "s1", "delay": 0.0002},
        {"from": "core", "to": "s2", "delay": 0.0002},
        {"from": "core", "to": "s2", "delay": 0.0002},
    ],
}

SERVICE_GRAPH = {
    "name": "web-chain",
    "saps": ["client", "server"],
    "vnfs": [
        {"name": "fw", "type": "firewall",
         "params": {"rules": "allow udp dst port 8080, drop all"}},
        {"name": "ids", "type": "dpi",
         "params": {"signatures": '"ATTACK", "WORM"'}},
        {"name": "limiter", "type": "rate_limiter",
         "params": {"rate": "200"}},
    ],
    "chain": ["client", "fw", "ids", "limiter", "server"],
    "requirements": [{"from": "client", "to": "server",
                      "max_delay": 0.1}],
}


def main():
    escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
    escape.start()

    client = escape.net.get("client")
    server = escape.net.get("server")

    # Steer only the web traffic (UDP:8080) through the chain.
    web_match = Match(dl_type=Ethernet.IP_TYPE, nw_src=client.ip,
                      nw_dst=server.ip, nw_proto=IPv4.UDP_PROTOCOL,
                      tp_dst=8080)
    chain = escape.deploy_service(load_service_graph(SERVICE_GRAPH),
                                  mapper="backtracking", match=web_match)
    print("placement:", chain.mapping.vnf_placement)

    # Workload 1: a burst of legitimate requests.
    for index in range(20):
        client.send_udp(server.ip, 8080,
                        b"GET /page-%d HTTP/1.0" % index)
    escape.run(1.0)

    # Workload 2: requests carrying an IDS signature.
    for _ in range(5):
        client.send_udp(server.ip, 8080, b"GET /?q=ATTACK payload")
    escape.run(1.0)

    # Workload 3: traffic to a non-web port (firewall territory).
    for _ in range(10):
        client.send_udp(server.ip, 31337, b"scan probe")
    escape.run(1.0)

    # Workload 4: a flood that should trip the rate limiter.
    flood = client.start_udp_flow(server.ip, 8080, rate_pps=2000,
                                  duration=1.0, payload_size=200)
    escape.run(3.0)

    print("\n--- verdicts (read from VNF handlers over NETCONF) ---")
    print("firewall : passed=%s dropped=%s"
          % (chain.read_handler("fw", "fw.passed"),
             chain.read_handler("fw", "fw.dropped")))
    print("IDS      : matched=%s clean=%s"
          % (chain.read_handler("ids", "matched.count"),
             chain.read_handler("ids", "cnt_out.count")))
    print("limiter  : in=%s out=%s queue-drops=%s"
          % (chain.read_handler("limiter", "cnt_in.count"),
             chain.read_handler("limiter", "cnt_out.count"),
             chain.read_handler("limiter", "q.drops")))
    print("server   : %d datagrams delivered (flood sent %d)"
          % (server.udp_rx_count, flood.sent + 25))

    for report in verify_sla(chain):
        delay_text = ("%.2f ms" % (report.measured_delay * 1e3)
                      if report.measured_delay is not None else "n/a")
        print("SLA      : delay %s -> %s"
              % (delay_text,
                 "OK" if report.satisfied else "VIOLATED"))

    chain.undeploy()


if __name__ == "__main__":
    main()
