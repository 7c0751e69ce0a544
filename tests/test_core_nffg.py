"""Tests for service graphs, resource views, catalog and SG files."""

import json

import pytest

from repro.core import (CatalogEntry, ResourceView, ServiceGraph,
                        VNFCatalog, default_catalog)
from repro.core.catalog import CatalogError
from repro.core.sgfile import (load_service_graph, load_topology,
                               save_service_graph, save_topology)
from repro.netem.topo import Topo


class TestServiceGraph:
    def test_chain_construction(self):
        sg = ServiceGraph("chain")
        sg.add_sap("h1")
        sg.add_sap("h2")
        sg.add_vnf("fw", "firewall")
        links = sg.add_chain(["h1", "fw", "h2"])
        assert len(links) == 2
        assert sg.successors("h1") == ["fw"]
        assert sg.successors("fw") == ["h2"]

    def test_duplicate_node_rejected(self):
        sg = ServiceGraph()
        sg.add_sap("x")
        with pytest.raises(ValueError):
            sg.add_vnf("x", "firewall")

    def test_link_to_unknown_rejected(self):
        sg = ServiceGraph()
        sg.add_sap("a")
        with pytest.raises(ValueError):
            sg.add_link("a", "ghost")

    def test_chain_from_walks_linear(self):
        sg = ServiceGraph()
        sg.add_sap("a")
        sg.add_sap("b")
        sg.add_vnf("v1", "forwarder")
        sg.add_vnf("v2", "forwarder")
        sg.add_chain(["a", "v1", "v2", "b"])
        assert sg.chain_from("a") == ["a", "v1", "v2", "b"]

    def test_chain_from_rejects_branch(self):
        sg = ServiceGraph()
        sg.add_sap("a")
        sg.add_vnf("lb", "load_balancer")
        sg.add_vnf("x", "forwarder")
        sg.add_vnf("y", "forwarder")
        sg.add_link("a", "lb")
        sg.add_link("lb", "x")
        sg.add_link("lb", "y")
        with pytest.raises(ValueError):
            sg.chain_from("a")

    def test_chain_from_detects_cycle(self):
        sg = ServiceGraph()
        sg.add_sap("a")
        sg.add_vnf("v1", "forwarder")
        sg.add_vnf("v2", "forwarder")
        sg.add_link("a", "v1")
        sg.add_link("v1", "v2")
        sg.add_link("v2", "v1")
        with pytest.raises(ValueError):
            sg.chain_from("a")

    def test_requirement_endpoints_must_be_saps(self):
        sg = ServiceGraph()
        sg.add_sap("a")
        sg.add_vnf("v", "forwarder")
        sg.add_requirement("a", "v", max_delay=0.1)
        with pytest.raises(ValueError):
            sg.validate()


class TestResourceView:
    def _view(self):
        view = ResourceView()
        view.add_sap("h1")
        view.add_sap("h2")
        view.add_switch("s1", dpid=1)
        view.add_switch("s2", dpid=2)
        view.add_container("nc1", cpu=2.0, mem=1024.0)
        view.add_link("h1", "s1", delay=0.001)
        view.add_link("s1", "s2", delay=0.002, bandwidth=100e6)
        view.add_link("h2", "s2", delay=0.001)
        view.add_link("nc1", "s1", delay=0.0005)
        return view

    def test_kind_queries(self):
        view = self._view()
        assert view.saps() == ["h1", "h2"]
        assert set(view.switches()) == {"s1", "s2"}
        assert view.containers() == ["nc1"]
        assert view.kind("nc1") == ResourceView.CONTAINER

    def test_container_reservation(self):
        view = self._view()
        assert view.container_fits("nc1", 2.0, 1024.0)
        view.reserve_container("nc1", 1.5, 512.0)
        assert not view.container_fits("nc1", 1.0, 100.0)
        view.release_container("nc1", 1.5, 512.0)
        assert view.container_fits("nc1", 2.0, 1024.0)

    def test_over_reservation_raises(self):
        view = self._view()
        with pytest.raises(ValueError):
            view.reserve_container("nc1", 3.0, 10.0)

    def test_shortest_path_by_delay(self):
        view = self._view()
        path = view.shortest_path("h1", "h2")
        assert path == ["h1", "s1", "s2", "h2"]
        assert view.path_delay(path) == pytest.approx(0.004)

    def test_shortest_path_respects_bandwidth(self):
        view = self._view()
        view.reserve_path_bandwidth(["s1", "s2"], 90e6)
        assert view.shortest_path("h1", "h2", min_bandwidth=50e6) is None
        assert view.shortest_path("h1", "h2", min_bandwidth=5e6) \
            is not None

    def test_bandwidth_reservation_and_release(self):
        view = self._view()
        view.reserve_path_bandwidth(["h1", "s1", "s2"], 60e6)
        assert view.link_free_bandwidth("s1", "s2") == pytest.approx(40e6)
        view.release_path_bandwidth(["h1", "s1", "s2"], 60e6)
        assert view.link_free_bandwidth("s1", "s2") == pytest.approx(100e6)

    def test_over_reserving_bandwidth_raises(self):
        view = self._view()
        with pytest.raises(ValueError):
            view.reserve_path_bandwidth(["s1", "s2"], 200e6)

    def test_unlimited_links_have_infinite_bandwidth(self):
        view = self._view()
        assert view.link_free_bandwidth("h1", "s1") == float("inf")

    def test_disconnected_returns_none(self):
        view = self._view()
        view.add_sap("island")
        assert view.shortest_path("h1", "island") is None

    @pytest.mark.parametrize("src,dst", [("h1", "nope"), ("nope", "h1"),
                                         ("nope", "nope")])
    @pytest.mark.parametrize("floor", [0.0, 1e6])
    def test_unknown_endpoint_returns_none(self, src, dst, floor):
        assert self._view().shortest_path(src, dst, floor) is None

    def test_link_to_undeclared_node_rejected(self):
        view = self._view()
        view.shortest_path("h1", "h2")
        for ends in (("h1", "ghost"), ("ghost", "h1")):
            with pytest.raises(ValueError, match="ghost"):
                view.add_link(*ends)
        assert "ghost" not in view.graph
        assert view.graph.number_of_edges() == 4
        assert view._paths    # nothing changed, so nothing was forgotten
        assert view.saps() == ["h1", "h2"]
        assert view.switches() == ["s1", "s2"]
        assert view.containers() == ["nc1"]

    def test_copy_is_independent(self):
        view = self._view()
        clone = view.copy()
        clone.reserve_container("nc1", 2.0, 1024.0)
        assert view.container_fits("nc1", 2.0, 1024.0)


class TestCatalog:
    def test_default_catalog_names(self):
        catalog = default_catalog()
        for name in ("firewall", "nat", "dpi", "rate_limiter",
                     "forwarder", "monitor", "delay", "load_balancer"):
            assert name in catalog

    def test_every_entry_renders_and_builds(self):
        from repro.click import Router
        from repro.click.elements.device import Device
        catalog = default_catalog()
        overrides = {"nat": {"nat_ip": "192.0.2.1"}}
        for name in catalog.names():
            entry = catalog.get(name)
            config = entry.render(overrides.get(name))
            router = Router.from_config(config)
            router.device_map = {dev: Device(dev)
                                 for dev in entry.devices}
            router.start()
            for handler in entry.monitor_handlers:
                router.read_handler(handler)
            router.stop()

    def test_missing_parameter_reported(self):
        catalog = default_catalog()
        with pytest.raises(CatalogError) as exc:
            catalog.get("nat").render()
        assert "nat_ip" in str(exc.value)

    def test_parameter_discovery(self):
        entry = default_catalog().get("firewall")
        assert entry.parameters() == ["rules"]

    def test_defaults_applied(self):
        entry = default_catalog().get("rate_limiter")
        assert "Shaper(1000)" in entry.render()
        assert "Shaper(50)" in entry.render({"rate": "50"})

    def test_unknown_type_lists_alternatives(self):
        with pytest.raises(CatalogError) as exc:
            default_catalog().get("quantum_firewall")
        assert "firewall" in str(exc.value)

    def test_duplicate_registration_rejected(self):
        catalog = VNFCatalog()
        catalog.register(CatalogEntry("x", "", "Idle;"))
        with pytest.raises(CatalogError):
            catalog.register(CatalogEntry("x", "", "Idle;"))


class TestSGFile:
    TOPO = {
        "nodes": [
            {"name": "h1", "role": "host", "ip": "10.0.0.1"},
            {"name": "s1", "role": "switch"},
            {"name": "nc1", "role": "vnf_container", "cpu": 2,
             "mem": 512},
        ],
        "links": [
            {"from": "h1", "to": "s1", "bandwidth": 10e6,
             "delay": 0.001},
            {"from": "nc1", "to": "s1"},
        ],
    }

    SG = {
        "name": "websvc",
        "saps": ["h1", "h2"],
        "vnfs": [{"name": "fw", "type": "firewall",
                  "params": {"rules": "allow tcp dst port 80"},
                  "cpu": 0.25}],
        "chain": ["h1", "fw", "h2"],
        "requirements": [{"from": "h1", "to": "h2",
                          "max_delay": 0.05}],
    }

    def test_load_topology(self):
        topo = load_topology(self.TOPO)
        assert topo.hosts() == ["h1"]
        assert topo.vnf_containers() == ["nc1"]
        assert len(topo.links) == 2

    def test_load_topology_from_string(self):
        topo = load_topology(json.dumps(self.TOPO))
        assert isinstance(topo, Topo)

    def test_topology_roundtrip(self):
        topo = load_topology(self.TOPO)
        again = load_topology(save_topology(topo))
        assert again.nodes.keys() == topo.nodes.keys()
        assert len(again.links) == len(topo.links)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            load_topology({"nodes": [{"name": "x", "role": "router"}]})

    def test_load_service_graph(self):
        sg = load_service_graph(self.SG)
        assert sg.name == "websvc"
        assert list(sg.vnfs) == ["fw"]
        assert sg.vnfs["fw"].cpu == 0.25
        assert len(sg.links) == 2
        assert sg.requirements[0].max_delay == 0.05

    def test_service_graph_roundtrip(self):
        sg = load_service_graph(self.SG)
        again = load_service_graph(save_service_graph(sg))
        assert list(again.saps) == list(sg.saps)
        assert list(again.vnfs) == list(sg.vnfs)
        assert len(again.links) == len(sg.links)
        assert again.requirements[0].max_delay == 0.05

    def test_invalid_sg_rejected_at_load(self):
        broken = dict(self.SG)
        broken["chain"] = ["h1", "ghost", "h2"]
        with pytest.raises(ValueError):
            load_service_graph(broken)
