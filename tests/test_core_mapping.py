"""Tests for the mapping algorithms."""

import pytest

from repro.core import (BacktrackingMapper, CongestionAwareMapper,
                        GreedyMapper, MappingError, ResourceView,
                        ServiceGraph, ShortestPathMapper, default_catalog)

MAPPERS = [GreedyMapper, ShortestPathMapper, BacktrackingMapper]
ALL_MAPPERS = MAPPERS + [CongestionAwareMapper]


def star_view(containers=2, cpu=2.0, mem=1024.0):
    """h1 -- s1 -- s2 -- h2 with containers hanging off each switch."""
    view = ResourceView()
    view.add_sap("h1")
    view.add_sap("h2")
    view.add_switch("s1", 1)
    view.add_switch("s2", 2)
    view.add_link("h1", "s1", delay=0.001)
    view.add_link("s1", "s2", delay=0.002, bandwidth=100e6)
    view.add_link("h2", "s2", delay=0.001)
    for index in range(containers):
        name = "nc%d" % (index + 1)
        view.add_container(name, cpu=cpu, mem=mem)
        switch = "s1" if index % 2 == 0 else "s2"
        view.add_link(name, switch, delay=0.0005)
    return view


def chain_sg(vnf_count=1, vnf_type="firewall", bandwidth=0.0,
             max_delay=None):
    sg = ServiceGraph("test-chain")
    sg.add_sap("h1")
    sg.add_sap("h2")
    names = []
    for index in range(vnf_count):
        name = "v%d" % index
        sg.add_vnf(name, vnf_type)
        names.append(name)
    sg.add_chain(["h1"] + names + ["h2"], bandwidth=bandwidth)
    if max_delay is not None:
        sg.add_requirement("h1", "h2", max_delay=max_delay)
    return sg


@pytest.mark.parametrize("mapper_cls", MAPPERS)
class TestAllMappers:
    def test_single_vnf_mapped(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view()
        mapping = mapper.map(chain_sg(1), view)
        assert mapping.vnf_placement["v0"] in ("nc1", "nc2")
        assert len(mapping.link_paths) == 2

    def test_resources_reserved_on_view(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view(containers=1, cpu=0.6)
        mapper.map(chain_sg(1), view)  # firewall needs 0.5 cpu
        with pytest.raises(MappingError):
            mapper.map(chain_sg(1), view)  # no room for a second

    def test_release_frees_resources(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view(containers=1, cpu=0.6)
        mapping = mapper.map(chain_sg(1), view)
        mapper.release(mapping, view)
        mapper.map(chain_sg(1), view)  # fits again

    def test_infeasible_cpu_rejected(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view(cpu=0.1)
        with pytest.raises(MappingError):
            mapper.map(chain_sg(1), view)

    def test_multiple_vnfs_spread_when_needed(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        # each container fits exactly one firewall (0.5 cpu)
        view = star_view(containers=3, cpu=0.6)
        mapping = mapper.map(chain_sg(3), view)
        assert len(set(mapping.vnf_placement.values())) == 3

    def test_paths_are_connected(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view()
        mapping = mapper.map(chain_sg(2), view)
        chain = mapping.sg.chain_from("h1")
        for src, dst in zip(chain, chain[1:]):
            path = mapping.link_paths[(src, dst)]
            assert len(path) >= 2
            # endpoints anchor correctly
            start = src if src in mapping.sg.saps \
                else mapping.vnf_placement[src]
            end = dst if dst in mapping.sg.saps \
                else mapping.vnf_placement[dst]
            assert path[0] == start
            assert path[-1] == end

    def test_bandwidth_reserved_along_paths(self, mapper_cls):
        mapper = mapper_cls(default_catalog())
        view = star_view()
        mapper.map(chain_sg(1, bandwidth=60e6), view)
        # the s1--s2 spine has 100 Mbit/s; a second 60 Mbit/s chain
        # cannot cross it
        with pytest.raises(MappingError):
            mapper.map(
                ServiceGraphFactory.second_chain(bandwidth=60e6), view)


def detour_view():
    """h1 -- s1 -- s2 -- h2 with a slower s1 -- s3 -- s2 detour; the
    only container hangs off s2, so every chain crosses the core."""
    view = ResourceView()
    for name in ("h1", "h2"):
        view.add_sap(name)
    for index, name in enumerate(("s1", "s2", "s3")):
        view.add_switch(name, index + 1)
    view.add_link("h1", "s1", delay=0.001)
    view.add_link("s1", "s2", delay=0.002)
    view.add_link("s1", "s3", delay=0.004)
    view.add_link("s3", "s2", delay=0.004)
    view.add_link("h2", "s2", delay=0.001)
    view.add_container("nc1", cpu=2.0, mem=1024.0)
    view.add_link("nc1", "s2", delay=0.0005)
    return view


def test_copy_keeps_the_down_set():
    view = detour_view()
    view.set_link_up("s1", "s2", False)
    clone = view.copy()
    assert clone.down_links() == [("s1", "s2")]
    assert clone.shortest_path("h1", "h2") == ["h1", "s1", "s3", "s2", "h2"]
    clone.set_link_up("s1", "s2", True)
    assert view.down_links() == [("s1", "s2")]
    assert view.shortest_path("h1", "h2") == ["h1", "s1", "s3", "s2", "h2"]


@pytest.mark.parametrize("mapper_cls", ALL_MAPPERS)
class TestDownLinks:
    def test_mapping_routes_around_a_down_link(self, mapper_cls):
        view = detour_view()
        mapper = mapper_cls(default_catalog())
        up = mapper.map(chain_sg(1), view)
        assert up.link_paths[("h1", "v0")] == ["h1", "s1", "s2", "nc1"]
        mapper.release(up, view)
        view.set_link_up("s1", "s2", False)
        down = mapper.map(chain_sg(1), view)
        assert down.link_paths[("h1", "v0")] == \
            ["h1", "s1", "s3", "s2", "nc1"]
        for path in down.link_paths.values():
            assert all(view.link_is_up(a, b)
                       for a, b in zip(path, path[1:]))
        mapper.release(down, view)
        view.set_link_up("s1", "s2", True)
        again = mapper.map(chain_sg(1), view)
        assert again.link_paths == up.link_paths


def loaded_view():
    """h1 -- s1 -- s2 -- h2, one container per switch, with a standing
    chain whose demands (cpu 0.1, 0.1 bit/s) have no exact binary form:
    adding 0.2 to them and subtracting it again does not give them
    back, so a rollback that subtracts shows."""
    view = ResourceView()
    for name in ("h1", "h2"):
        view.add_sap(name)
    view.add_switch("s1", 1)
    view.add_switch("s2", 2)
    view.add_link("h1", "s1", delay=0.001)
    view.add_link("s1", "s2", delay=0.002, bandwidth=1.0)
    view.add_link("h2", "s2", delay=0.001)
    for name, switch in (("nc1", "s1"), ("nc2", "s2")):
        view.add_container(name, cpu=0.5, mem=1024.0)
        view.add_link(name, switch, delay=0.0005)
    standing = ServiceGraph("standing")
    standing.add_sap("h1")
    standing.add_sap("h2")
    standing.add_vnf("a", "forwarder", cpu=0.1, mem=0.1)
    standing.add_vnf("b", "forwarder", cpu=0.1, mem=0.1)
    standing.add_chain(["h1", "a", "b", "h2"], bandwidth=0.1)
    mapping = ShortestPathMapper(default_catalog()).map(standing, view)
    assert set(mapping.vnf_placement.values()) == {"nc1"}
    return view


def doomed_sg(stage):
    """A two-VNF chain that reserves before it fails at ``stage``."""
    sg = ServiceGraph("doomed")
    sg.add_sap("h1")
    sg.add_sap("h2")
    sg.add_vnf("x", "forwarder", cpu=0.2, mem=0.2)
    # nc1 has 0.1 cpu left once x joins the standing chain there, nc2
    # has 0.5: only "no container" asks for more than either
    sg.add_vnf("y", "forwarder", mem=0.2,
               cpu=0.6 if stage == "no container" else 0.2)
    # x and y cannot share nc1, so some link crosses the spine, which
    # has 1.0 - 0.1 bit/s free
    sg.add_chain(["h1", "x", "y", "h2"],
                 bandwidth=0.95 if stage == "no bandwidth" else 0.2)
    if stage == "max_delay":
        sg.add_requirement("h1", "h2", max_delay=1e-6)
    return sg


REJECTIONS = [(mapper_cls, stage) for mapper_cls in ALL_MAPPERS
              for stage in ("no container", "no bandwidth", "max_delay")
              # the greedy strategy does not read requirements
              if not (mapper_cls is GreedyMapper and stage == "max_delay")]


class TestRejectedMappingLeavesViewUntouched:
    @staticmethod
    def state(view):
        return (view.snapshot(),
                {edge: dict(view.graph.edges[edge])
                 for edge in view.graph.edges})

    @pytest.mark.parametrize("mapper_cls,stage", REJECTIONS)
    def test_view_is_restored_exactly(self, mapper_cls, stage):
        view = loaded_view()
        before = self.state(view)
        assert before[0]["nc1"]["cpu_used"] == 0.2
        mapper = mapper_cls(default_catalog())
        with pytest.raises(MappingError):
            mapper.map(doomed_sg(stage), view)
        assert self.state(view) == before
        # and the view still takes what does fit
        mapping = mapper.map(doomed_sg("fits"), view)
        assert set(mapping.vnf_placement) == {"x", "y"}

    def test_any_exception_rolls_back(self):
        """Not only MappingError: a strategy that blows up half way
        leaves nothing behind either."""
        class Exploding(GreedyMapper):
            def _route_links(self, sg, view, mapping, undo):
                super()._route_links(sg, view, mapping, undo)
                raise RuntimeError("boom")

        view = loaded_view()
        before = self.state(view)
        with pytest.raises(RuntimeError):
            Exploding(default_catalog()).map(doomed_sg("fits"), view)
        assert self.state(view) == before


class ServiceGraphFactory:
    @staticmethod
    def second_chain(bandwidth=0.0):
        sg = ServiceGraph("second")
        sg.add_sap("h1")
        sg.add_sap("h2")
        sg.add_vnf("w0", "firewall")
        sg.add_chain(["h1", "w0", "h2"], bandwidth=bandwidth)
        return sg


class TestShortestPathSpecifics:
    def test_prefers_nearby_container(self):
        view = ResourceView()
        view.add_sap("h1")
        view.add_sap("h2")
        view.add_switch("s1", 1)
        view.add_switch("s2", 2)
        view.add_link("h1", "s1", delay=0.001)
        view.add_link("s1", "s2", delay=0.010)
        view.add_link("h2", "s2", delay=0.001)
        view.add_container("near", cpu=4, mem=4096)
        view.add_container("far", cpu=4, mem=4096)
        view.add_link("near", "s1", delay=0.0001)
        view.add_link("far", "s2", delay=0.0001)
        mapper = ShortestPathMapper(default_catalog())
        mapping = mapper.map(chain_sg(1), view)
        assert mapping.vnf_placement["v0"] == "near"

    def test_delay_requirement_enforced(self):
        view = star_view()
        mapper = ShortestPathMapper(default_catalog())
        with pytest.raises(MappingError):
            mapper.map(chain_sg(1, max_delay=0.0001), view)
        mapper.map(chain_sg(1, max_delay=1.0), view)


class TestBacktrackingSpecifics:
    def test_finds_global_optimum_greedy_misses(self):
        """Two VNFs, two containers: nc-far sits 10 ms away.  Greedy
        first-fit puts both VNFs wherever they fit first; backtracking
        must place both in the near container (it fits both)."""
        view = ResourceView()
        view.add_sap("h1")
        view.add_sap("h2")
        view.add_switch("s1", 1)
        view.add_link("h1", "s1", delay=0.001)
        view.add_link("h2", "s1", delay=0.001)
        view.add_container("zz-near", cpu=2.0, mem=2048)
        view.add_container("aa-far", cpu=2.0, mem=2048)
        view.add_link("zz-near", "s1", delay=0.0001)
        view.add_link("aa-far", "s1", delay=0.010)
        sg = chain_sg(2)
        backtracking = BacktrackingMapper(default_catalog())
        mapping = backtracking.map(sg, view.copy())
        assert set(mapping.vnf_placement.values()) == {"zz-near"}
        # greedy picks the alphabetically-first container dict order:
        greedy = GreedyMapper(default_catalog())
        greedy_mapping = greedy.map(sg, view.copy())
        assert greedy_mapping.vnf_placement["v0"] == "zz-near" \
            or greedy_mapping.vnf_placement["v0"] == "aa-far"

    def test_total_delay_not_worse_than_others(self):
        view = star_view(containers=4)
        sg = chain_sg(3)
        catalog = default_catalog()
        results = {}
        for mapper_cls in MAPPERS:
            mapping = mapper_cls(catalog).map(sg, view.copy())
            results[mapper_cls.name] = mapping.total_delay(view)
        assert results["backtracking"] <= results["greedy"] + 1e-12
        assert results["backtracking"] <= results["shortest-path"] + 1e-12

    def test_requirement_pruning(self):
        view = star_view()
        mapper = BacktrackingMapper(default_catalog())
        with pytest.raises(MappingError):
            mapper.map(chain_sg(1, max_delay=0.0001), view)

    def test_step_budget_limits_search(self):
        view = star_view(containers=6)
        mapper = BacktrackingMapper(default_catalog(), max_steps=1)
        # with an absurd budget the search returns the first (and only
        # explored) assignment or nothing; either way it must not hang
        try:
            mapper.map(chain_sg(4), view)
        except MappingError:
            pass


class TestMappingObject:
    def test_chain_delay_sums_segments(self):
        view = star_view()
        mapper = GreedyMapper(default_catalog())
        mapping = mapper.map(chain_sg(1), view)
        total = mapping.chain_delay(view, "h1")
        by_hand = sum(view.path_delay(path)
                      for path in mapping.link_paths.values())
        assert total == pytest.approx(by_hand)

    def test_total_hops(self):
        view = star_view()
        mapper = GreedyMapper(default_catalog())
        mapping = mapper.map(chain_sg(1), view)
        assert mapping.total_hops() >= 2
