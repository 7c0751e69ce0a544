"""Tests for the congestion-aware mapper (monitoring -> mapping loop)."""

import pytest

from repro.core import (CongestionAwareMapper, ESCAPE, ResourceView,
                        ServiceGraph, ShortestPathMapper, default_catalog)
from repro.core.sgfile import load_topology


def diamond_view():
    """h1 -> s1 -> {s2 (fast), s3 (slow)} -> s4 -> h2 with a container
    on each middle switch."""
    view = ResourceView()
    view.add_sap("h1")
    view.add_sap("h2")
    for index, name in enumerate(("s1", "s2", "s3", "s4")):
        view.add_switch(name, index + 1)
    view.add_link("h1", "s1", delay=0.001)
    view.add_link("s1", "s2", delay=0.001, bandwidth=100e6)  # fast leg
    view.add_link("s1", "s3", delay=0.003, bandwidth=100e6)  # slow leg
    view.add_link("s2", "s4", delay=0.001, bandwidth=100e6)
    view.add_link("s3", "s4", delay=0.003, bandwidth=100e6)
    view.add_link("h2", "s4", delay=0.001)
    view.add_container("nc-fast", cpu=4, mem=4096)
    view.add_container("nc-slow", cpu=4, mem=4096)
    view.add_link("nc-fast", "s2", delay=0.0001)
    view.add_link("nc-slow", "s3", delay=0.0001)
    return view


def one_vnf_chain(name="cc-chain"):
    sg = ServiceGraph(name)
    sg.add_sap("h1")
    sg.add_sap("h2")
    sg.add_vnf("v", "forwarder")
    sg.add_chain(["h1", "v", "h2"])
    return sg


class TestCongestionAwareMapper:
    def test_uncongested_behaves_like_shortest_path(self):
        catalog = default_catalog()
        view = diamond_view()
        aware = CongestionAwareMapper(catalog).map(one_vnf_chain(),
                                                   view.copy())
        plain = ShortestPathMapper(catalog).map(one_vnf_chain(),
                                                view.copy())
        assert aware.vnf_placement == plain.vnf_placement == \
            {"v": "nc-fast"}

    def test_routes_around_reserved_bandwidth(self):
        catalog = default_catalog()
        view = diamond_view()
        # saturate the fast leg with reservations
        view.reserve_path_bandwidth(["s1", "s2"], 95e6)
        view.reserve_path_bandwidth(["s2", "s4"], 95e6)
        aware = CongestionAwareMapper(catalog, alpha=10.0)
        mapping = aware.map(one_vnf_chain(), view)
        assert mapping.vnf_placement == {"v": "nc-slow"}

    def test_routes_around_measured_traffic(self):
        """The StatsCollector's measured_bps annotation alone (no
        reservations) diverts placement."""
        catalog = default_catalog()
        view = diamond_view()
        view.graph.edges["s1", "s2"]["measured_bps"] = 95e6
        view.graph.edges["s2", "s4"]["measured_bps"] = 95e6
        aware = CongestionAwareMapper(catalog, alpha=10.0)
        mapping = aware.map(one_vnf_chain(), view)
        assert mapping.vnf_placement == {"v": "nc-slow"}
        # shortest-path ignores the measurement and stays on the hot leg
        plain = ShortestPathMapper(catalog).map(one_vnf_chain("p"),
                                                diamond_view())
        assert plain.vnf_placement == {"v": "nc-fast"}

    def test_alpha_zero_ignores_congestion(self):
        catalog = default_catalog()
        view = diamond_view()
        view.graph.edges["s1", "s2"]["measured_bps"] = 95e6
        indifferent = CongestionAwareMapper(catalog, alpha=0.0)
        mapping = indifferent.map(one_vnf_chain(), view)
        assert mapping.vnf_placement == {"v": "nc-fast"}

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            CongestionAwareMapper(default_catalog(), alpha=-1.0)

    def test_respects_hard_bandwidth_constraints(self):
        from repro.core import MappingError
        catalog = default_catalog()
        view = diamond_view()
        sg = one_vnf_chain()
        sg.links[0].bandwidth = 200e6  # more than any leg offers
        with pytest.raises(MappingError):
            CongestionAwareMapper(catalog).map(sg, view)


class TestEndToEndLoop:
    """Monitoring -> annotation -> mapping: the full closed loop."""

    TOPOLOGY = {
        "nodes": [
            {"name": "h1", "role": "host"},
            {"name": "h2", "role": "host"},
            {"name": "s1", "role": "switch"},
            {"name": "s2", "role": "switch"},
            {"name": "nc1", "role": "vnf_container", "cpu": 4,
             "mem": 2048},
        ],
        "links": [
            {"from": "h1", "to": "s1", "bandwidth": 100e6,
             "delay": 0.001},
            {"from": "s1", "to": "s2", "bandwidth": 100e6,
             "delay": 0.001},
            {"from": "h2", "to": "s2", "bandwidth": 100e6,
             "delay": 0.001},
            {"from": "nc1", "to": "s1", "delay": 0.0005},
            {"from": "nc1", "to": "s1", "delay": 0.0005},
        ],
    }

    def test_registered_in_escape(self):
        escape = ESCAPE.from_topology(load_topology(self.TOPOLOGY))
        assert "congestion-aware" in escape.mappers

    def test_deploy_with_congestion_aware(self):
        escape = ESCAPE.from_topology(load_topology(self.TOPOLOGY))
        escape.start()
        sg = {
            "name": "ca-chain",
            "saps": ["h1", "h2"],
            "vnfs": [{"name": "fw", "type": "firewall",
                      "params": {"rules": "allow all"}}],
            "chain": ["h1", "fw", "h2"],
        }
        chain = escape.deploy_service(sg, mapper="congestion-aware")
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        result = h1.ping(h2.ip, count=3, interval=0.2)
        escape.run(2.0)
        assert result.received == 3
        chain.undeploy()

    def test_measured_rates_feed_the_mapper(self):
        escape = ESCAPE.from_topology(load_topology(self.TOPOLOGY))
        escape.start()
        escape.run(1.5)
        escape.stats.sample()  # the window opens before the flow
        h1, h2 = escape.net.get("h1"), escape.net.get("h2")
        h1.start_udp_flow(h2.ip, 5001, rate_pps=300, duration=2.0,
                          payload_size=800)
        escape.run(1.5)
        escape.stats.annotate_view(escape.orchestrator.view, escape.net)
        spine = escape.orchestrator.view.graph.edges["s1", "s2"]
        assert spine.get("measured_bps", 0.0) > 0
        # the congestion-aware weight of the hot link now exceeds a
        # plain delay weight
        mapper = escape.mappers["congestion-aware"]
        weight = mapper._edge_weight(escape.orchestrator.view, "s1",
                                     "s2")
        assert weight > spine["delay"]
