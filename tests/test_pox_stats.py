"""Tests for the controller-side statistics collector."""

import pytest

from repro.core import ESCAPE
from repro.core.sgfile import load_topology
from repro.netem import Network
from repro.pox import Core, L2LearningSwitch, OpenFlowNexus, StatsCollector

TOPOLOGY = {
    "nodes": [
        {"name": "h1", "role": "host"},
        {"name": "h2", "role": "host"},
        {"name": "s1", "role": "switch"},
        {"name": "s2", "role": "switch"},
        {"name": "nc1", "role": "vnf_container", "cpu": 4, "mem": 2048},
    ],
    "links": [
        {"from": "h1", "to": "s1", "bandwidth": 100e6, "delay": 0.001},
        {"from": "s1", "to": "s2", "bandwidth": 100e6, "delay": 0.001},
        {"from": "h2", "to": "s2", "bandwidth": 100e6, "delay": 0.001},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
        {"from": "nc1", "to": "s1", "delay": 0.0005},
    ],
}


def standalone_rig():
    net = Network()
    core = Core(net.sim)
    nexus = OpenFlowNexus(core)
    L2LearningSwitch(nexus)
    stats = StatsCollector(nexus)
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    s1 = net.add_switch("s1")
    net.add_link(h1, s1)
    net.add_link(h2, s1)
    net.add_controller(nexus)
    net.start()
    net.static_arp()
    net.run(0.1)  # the OF handshake
    return net, stats, h1, h2


class TestStandaloneCollector:
    def test_nothing_asked_until_sampled(self):
        net, stats, _h1, _h2 = standalone_rig()
        net.run(10.0)
        assert stats.poll_rounds == 0
        assert net.sim.pending == 0
        assert stats.sample()
        assert stats.poll_rounds == 1
        assert net.sim.pending == 0

    def test_port_counters_collected(self):
        net, stats, h1, h2 = standalone_rig()
        stats.sample()
        h1.start_udp_flow(h2.ip, 5001, rate_pps=100, duration=1.0,
                          payload_size=400)
        net.run(3.0)
        stats.sample()
        sample = stats._port_samples[(1, 1)][-1]
        assert sample is not None
        assert sample.rx_packets >= 100

    def test_port_rates_reflect_traffic(self):
        net, stats, h1, h2 = standalone_rig()
        stats.sample()
        h1.start_udp_flow(h2.ip, 5001, rate_pps=200, duration=2.0,
                          payload_size=500)
        net.run(1.5)  # mid-flow
        stats.sample()
        rate = stats.port_rate(1, 1)
        assert rate is not None
        rx_bps, _tx_bps = rate
        # ~200 pps x ~540 B (payload + headers) x 8 ~ 860 kbit/s
        assert rx_bps > 300e3

    def test_rates_fall_back_to_zero_after_flow(self):
        net, stats, h1, h2 = standalone_rig()
        stats.sample()
        h1.start_udp_flow(h2.ip, 5001, rate_pps=200, duration=0.5,
                          payload_size=500)
        net.run(5.0)  # flow long gone
        stats.sample()
        net.run(1.0)
        stats.sample()  # a window with no traffic in it
        rx_bps, tx_bps = stats.port_rate(1, 1)
        assert rx_bps == pytest.approx(0.0)
        assert tx_bps == pytest.approx(0.0)


class TestEscapeIntegration:
    def test_stats_registered_as_component(self):
        escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
        escape.start()
        assert escape.core.component("stats") is escape.stats

    def test_annotate_view_with_measured_rates(self):
        escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
        escape.start()
        escape.run(1.5)
        escape.stats.annotate_view(escape.orchestrator.view, escape.net)
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.start_udp_flow(h2.ip, 5001, rate_pps=200, duration=2.0,
                          payload_size=500)
        escape.run(1.5)
        annotated = escape.stats.annotate_view(
            escape.orchestrator.view, escape.net)
        assert annotated > 0
        spine = escape.orchestrator.view.graph.edges["s1", "s2"]
        assert spine["measured_bps"] > 100e3

    def test_two_annotations_measure_the_window_between_them(self):
        """The first call has no window yet; the second annotates the
        spine with the flow's rate over the half second between them."""
        escape = ESCAPE.from_topology(load_topology(TOPOLOGY))
        escape.start()
        view = escape.orchestrator.view
        assert escape.stats.annotate_view(view, escape.net) == 0
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.start_udp_flow(h2.ip, 5001, rate_pps=200, duration=2.0,
                          payload_size=500)
        escape.run(0.5)
        assert escape.stats.annotate_view(view, escape.net) > 0
        # 200 pps x 542 B frames (payload + UDP/IP/Ethernet) x 8
        offered = 200 * 542 * 8
        assert view.graph.edges["s1", "s2"]["measured_bps"] == \
            pytest.approx(offered, rel=0.1)
