"""Unit tests for repro.scenario.zoo — the parameterised substrate
generators (fat-tree, Abilene WAN) and the declarative
build_topology dispatcher.
"""

import pytest

from repro.netem import Network
from repro.scenario.zoo import (ABILENE_POPS, ABILENE_TRUNKS, FatTreeTopo,
                                TOPOLOGY_KINDS, WanTopo, build_topology)


class TestFatTreeTopo:
    def test_k4_counts(self):
        topo = FatTreeTopo(k=4, containers_per_pod=1, container_ports=4)
        # k^3/4 hosts, k^2/4 cores + k pods * k agg/edge switches
        assert len(topo.hosts()) == 16
        assert len(topo.switches()) == 4 + 4 * 4
        assert len(topo.vnf_containers()) == 4
        # 16 host + 16 edge-agg + 16 agg-core + 4*4 container links
        assert len(topo.links) == 16 + 16 + 16 + 16

    def test_k2_counts(self):
        topo = FatTreeTopo(k=2, containers_per_pod=1, container_ports=2)
        assert len(topo.hosts()) == 2
        assert len(topo.switches()) == 1 + 2 * 2
        assert len(topo.vnf_containers()) == 2

    def test_odd_or_small_k_rejected(self):
        with pytest.raises(ValueError, match="even integer"):
            FatTreeTopo(k=3)
        with pytest.raises(ValueError, match="even integer"):
            FatTreeTopo(k=0)

    def test_too_many_containers_rejected(self):
        with pytest.raises(ValueError, match="containers_per_pod"):
            FatTreeTopo(k=2, containers_per_pod=2)

    def test_container_gets_parallel_links(self):
        topo = FatTreeTopo(k=2, containers_per_pod=1, container_ports=3)
        nc_links = [link for link in topo.links if link[0] == "nc1"]
        assert len(nc_links) == 3
        assert len({link[1] for link in nc_links}) == 1

    def test_tier_opts_override(self):
        topo = FatTreeTopo(k=2, tier_opts={"host": {"delay": 0.042}})
        host_links = [opts for n1, _n2, opts in topo.links
                      if n1.startswith("h")]
        assert host_links
        assert all(opts["delay"] == 0.042 for opts in host_links)

    def test_builds_into_network(self):
        net = Network.build(FatTreeTopo(k=2))
        assert len(net.hosts()) == 2
        assert len(net.switches()) == 5


class TestWanTopo:
    def test_full_abilene(self):
        topo = WanTopo(container_ports=2)
        pops = len(ABILENE_POPS)
        assert len(topo.switches()) == pops
        assert len(topo.hosts()) == pops
        assert len(topo.vnf_containers()) == pops
        trunks = [(n1, n2, opts) for n1, n2, opts in topo.links
                  if n1.startswith("s-") and n2.startswith("s-")]
        assert len(trunks) == len(ABILENE_TRUNKS)

    def test_trunk_delays_from_table(self):
        topo = WanTopo(containers=False)
        by_pair = {tuple(sorted((n1, n2))): opts
                   for n1, n2, opts in topo.links
                   if n1.startswith("s-") and n2.startswith("s-")}
        for pop1, pop2, delay in ABILENE_TRUNKS:
            opts = by_pair[tuple(sorted(("s-%s" % pop1, "s-%s" % pop2)))]
            assert opts["delay"] == delay

    def test_trimmed_prefix_stays_connected(self):
        for pops in range(2, len(ABILENE_POPS) + 1):
            topo = WanTopo(pops=pops, containers=False)
            # union-find over trunk links
            parent = {name: name for name in topo.switches()}

            def find(name):
                while parent[name] != name:
                    name = parent[name]
                return name

            for n1, n2, _opts in topo.links:
                if n1.startswith("s-") and n2.startswith("s-"):
                    parent[find(n1)] = find(n2)
            roots = {find(name) for name in topo.switches()}
            assert len(roots) == 1, "pops=%d disconnected" % pops

    def test_too_few_pops_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            WanTopo(pops=1)


class TestBuildTopology:
    def test_dispatch(self):
        topo = build_topology({"kind": "fat_tree", "k": 2})
        assert isinstance(topo, FatTreeTopo)
        assert isinstance(build_topology({"kind": "wan"}), WanTopo)

    def test_unknown_kind(self):
        for kind in ("torus", "waxman"):
            with pytest.raises(ValueError, match="unknown topology kind"):
                build_topology({"kind": kind})
        with pytest.raises(ValueError, match="unknown topology kind"):
            build_topology({})

    def test_bad_kwarg_becomes_value_error(self):
        with pytest.raises(ValueError, match="fat_tree"):
            build_topology({"kind": "fat_tree", "pods": 4})

    def test_spec_not_mutated(self):
        spec = {"kind": "fat_tree", "k": 2}
        build_topology(spec)
        assert spec == {"kind": "fat_tree", "k": 2}

    def test_registry_names(self):
        assert set(TOPOLOGY_KINDS) == {"fat_tree", "wan"}
