"""End-to-end test of VLAN-granularity steering (the STEER1 ablation's
other half): chains deployed with steering_mode='vlan' must carry
traffic exactly like exact-mode chains."""

import pytest

from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph, load_topology
from tests.audit import udp_flowspec

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "s3", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 4, "mem": 2048},
        {"name": "nc2", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "delay": 0.001},
        {"from": "s1", "to": "s2", "delay": 0.001},
        {"from": "s2", "to": "s3", "delay": 0.001},
        {"from": "h2", "to": "s3", "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc2", "to": "s3", "delay": 0.0005},
        {"from": "nc2", "to": "s3", "delay": 0.0005},
    ],
}

SG = {
    "name": "vlan-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow icmp, drop all"}}],
    "chain": ["h1", "fw", "h2"],
}


@pytest.fixture
def vlan_escape():
    framework = ESCAPE.from_topology(load_topology(TOPOLOGY),
                                     steering_mode="vlan")
    framework.start()
    return framework


class TestVlanSteeredChain:
    def test_ping_through_vlan_steered_chain(self, vlan_escape):
        chain = vlan_escape.deploy_service(SG)
        h1 = vlan_escape.net.get("h1")
        h2 = vlan_escape.net.get("h2")
        result = h1.ping(h2.ip, count=5, interval=0.2)
        vlan_escape.run(3.0)
        assert result.received == 5
        assert int(chain.read_handler("fw", "fw.passed")) >= 5

    def test_vnf_receives_untagged_frames(self, vlan_escape):
        """Tags live only inside the steered core; the VNF must see the
        original untagged frames (it parses IP directly)."""
        chain = vlan_escape.deploy_service(SG)
        h1 = vlan_escape.net.get("h1")
        h2 = vlan_escape.net.get("h2")
        h1.ping(h2.ip, count=3, interval=0.1)
        vlan_escape.run(2.0)
        # the firewall classified (i.e. successfully parsed) the pings
        assert int(chain.read_handler("fw", "fw.passed")) >= 3

    def test_host_receives_untagged_frames(self, vlan_escape):
        """The last hop strips the tag: h2's stack accepted the echo
        requests (it answered them), so no tag leaked to the host."""
        vlan_escape.deploy_service(SG)
        h1 = vlan_escape.net.get("h1")
        h2 = vlan_escape.net.get("h2")
        result = h1.ping(h2.ip, count=3, interval=0.1)
        vlan_escape.run(2.0)
        assert result.received == 3

    def test_policy_still_enforced(self, vlan_escape):
        chain = vlan_escape.deploy_service(SG)
        h1 = vlan_escape.net.get("h1")
        h2 = vlan_escape.net.get("h2")
        h1.send_udp(h2.ip, 9999, b"blocked")
        vlan_escape.run(0.5)
        assert h2.udp_rx_count == 0
        assert int(chain.read_handler("fw", "fw.dropped")) >= 1

    def test_two_chains_get_distinct_tags(self, vlan_escape):
        """Each chain on a flowspec of its own."""
        vlan_escape.deploy_service(SG, match=udp_flowspec(vlan_escape,
                                                          5001))
        second = dict(SG)
        second["name"] = "vlan-chain-2"
        second["saps"] = ["h2", "h1"]
        second["chain"] = ["h2", "fw", "h1"]
        vlan_escape.deploy_service(
            second, match=udp_flowspec(vlan_escape, 5002, "h2", "h1"),
            return_path="none")
        vlans = {installed.vlan
                 for installed in vlan_escape.steering.paths.values()
                 if installed.vlan is not None}
        assert len(vlans) >= 2

    def test_undeploy_restores(self, vlan_escape):
        chain = vlan_escape.deploy_service(SG)
        chain.undeploy()
        vlan_escape.run(0.1)
        h1 = vlan_escape.net.get("h1")
        h2 = vlan_escape.net.get("h2")
        h1.send_udp(h2.ip, 9999, b"open again")
        vlan_escape.run(1.0)
        assert h2.udp_rx_count == 1
