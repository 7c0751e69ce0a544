"""The topology zoo: parameterised substrate generators.

Every generator subclasses :class:`repro.netem.topo.Topo`, so a zoo
topology drops into :meth:`repro.netem.net.Network.build` (and hence
``ESCAPE.from_topology``) exactly like the hand-written ones.  Each
tier of a topology takes its own link options (bandwidth / delay /
loss), and every generator sprinkles VNF containers over the substrate
so service chains have somewhere to land — the containers get
``container_ports`` parallel links to their switch, the repo's idiom
for multi-homed containers.

Naming follows the existing examples: hosts ``h*``, switches ``s``-
prefixed with a tier tag, containers ``nc*``.
"""

from typing import Dict, Optional

from repro.netem.topo import Topo

#: Default per-tier link options, overridable per generator call.
DEFAULT_TIER_OPTS = {
    "host": {"bandwidth": 1e9, "delay": 0.0005},
    "edge": {"bandwidth": 1e9, "delay": 0.001},
    "aggregation": {"bandwidth": 10e9, "delay": 0.001},
    "core": {"bandwidth": 10e9, "delay": 0.002},
    "container": {"bandwidth": 1e9, "delay": 0.0005},
    "wan": {"bandwidth": 10e9, "delay": 0.005},
}


def _tier_opts(overrides: Optional[Dict[str, dict]], tier: str) -> dict:
    opts = dict(DEFAULT_TIER_OPTS.get(tier, {}))
    if overrides and tier in overrides:
        opts.update(overrides[tier])
    return opts


class FatTreeTopo(Topo):
    """A ``k``-ary fat-tree (Al-Fares et al.): ``k`` pods of ``k/2``
    edge + ``k/2`` aggregation switches, ``(k/2)^2`` cores, ``k/2``
    hosts per edge switch.

    ``containers_per_pod`` VNF containers hang off each pod's first
    edge switches (one per edge switch, round-robin), each with
    ``container_ports`` parallel links so multi-port VNFs fit.
    """

    def __init__(self, k: int = 4, containers_per_pod: int = 1,
                 container_ports: int = 4, container_cpu: float = 16.0,
                 container_mem: float = 16384.0,
                 hosts_per_edge: Optional[int] = None,
                 tier_opts: Optional[Dict[str, dict]] = None):
        super().__init__()
        if k < 2 or k % 2:
            raise ValueError("fat-tree k must be an even integer >= 2, "
                             "got %r" % k)
        half = k // 2
        if hosts_per_edge is None:
            hosts_per_edge = half
        if containers_per_pod > half:
            raise ValueError("containers_per_pod %d exceeds the %d edge "
                             "switches per pod" % (containers_per_pod, half))
        self.k = k
        host_opts = _tier_opts(tier_opts, "host")
        edge_opts = _tier_opts(tier_opts, "edge")
        core_opts = _tier_opts(tier_opts, "core")
        container_opts = _tier_opts(tier_opts, "container")

        cores = [self.add_switch("score%d" % (i + 1))
                 for i in range(half * half)]
        host_index = 0
        container_index = 0
        for pod in range(k):
            aggs = [self.add_switch("sagg%dp%d" % (a + 1, pod + 1))
                    for a in range(half)]
            edges = [self.add_switch("sedge%dp%d" % (e + 1, pod + 1))
                     for e in range(half)]
            for edge in edges:
                for agg in aggs:
                    self.add_link(edge, agg, **edge_opts)
                for _ in range(hosts_per_edge):
                    host_index += 1
                    host = self.add_host("h%d" % host_index)
                    self.add_link(host, edge, **host_opts)
            for a, agg in enumerate(aggs):
                for c in range(half):
                    self.add_link(agg, cores[a * half + c], **core_opts)
            for c in range(containers_per_pod):
                container_index += 1
                container = self.add_vnf_container(
                    "nc%d" % container_index, cpu=container_cpu,
                    mem=container_mem)
                for _ in range(container_ports):
                    self.add_link(container, edges[c % half],
                                  **container_opts)


#: Abilene research backbone: 11 PoPs, 14 trunks; delays approximate
#: great-circle latency between the PoP cities (one-way, seconds).
ABILENE_POPS = ("sea", "sun", "lax", "den", "kan", "hou",
                "ipl", "chi", "atl", "was", "nyc")
ABILENE_TRUNKS = (
    ("sea", "sun", 0.009), ("sea", "den", 0.013), ("sun", "lax", 0.004),
    ("sun", "den", 0.012), ("lax", "hou", 0.017), ("den", "kan", 0.007),
    ("kan", "hou", 0.009), ("kan", "ipl", 0.006), ("hou", "atl", 0.010),
    ("ipl", "chi", 0.003), ("ipl", "atl", 0.006), ("chi", "nyc", 0.010),
    ("atl", "was", 0.008), ("was", "nyc", 0.003),
)


class WanTopo(Topo):
    """An Abilene-style WAN: one switch per PoP wired with the real
    Abilene trunk graph, one SAP host and (optionally) one VNF
    container per PoP.  ``pops`` trims the footprint to the first N
    PoPs (trunks between dropped PoPs vanish; the remaining graph
    stays connected for any prefix of :data:`ABILENE_POPS` because a
    connecting trunk to an earlier PoP is synthesized when needed).
    """

    def __init__(self, pops: Optional[int] = None,
                 containers: bool = True, container_ports: int = 4,
                 container_cpu: float = 8.0, container_mem: float = 8192.0,
                 tier_opts: Optional[Dict[str, dict]] = None):
        super().__init__()
        selected = list(ABILENE_POPS if pops is None
                        else ABILENE_POPS[:pops])
        if len(selected) < 2:
            raise ValueError("WanTopo needs at least 2 PoPs, got %r" % pops)
        host_opts = _tier_opts(tier_opts, "host")
        wan_opts = _tier_opts(tier_opts, "wan")
        container_opts = _tier_opts(tier_opts, "container")

        for index, pop in enumerate(selected):
            switch = self.add_switch("s-%s" % pop)
            self.add_link(self.add_host("h-%s" % pop), switch, **host_opts)
            if containers:
                container = self.add_vnf_container(
                    "nc-%s" % pop, cpu=container_cpu, mem=container_mem)
                for _ in range(container_ports):
                    self.add_link(container, switch, **container_opts)
        wired = set()
        for pop1, pop2, delay in ABILENE_TRUNKS:
            if pop1 not in selected or pop2 not in selected:
                continue
            opts = dict(wan_opts)
            opts["delay"] = delay
            self.add_link("s-%s" % pop1, "s-%s" % pop2, **opts)
            wired.add(pop1)
            wired.add(pop2)
        for index, pop in enumerate(selected[1:], start=1):
            if pop not in wired:  # trimmed footprint stranded this PoP
                self.add_link("s-%s" % selected[index - 1], "s-%s" % pop,
                              **wan_opts)


TOPOLOGY_KINDS = {
    "fat_tree": FatTreeTopo,
    "wan": WanTopo,
}


def build_topology(spec: dict) -> Topo:
    """Instantiate a zoo topology from its declarative description:
    ``{"kind": "fat_tree", "k": 4, ...}`` — every other key is passed
    to the generator as a keyword argument."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    cls = TOPOLOGY_KINDS.get(kind)
    if cls is None:
        raise ValueError("unknown topology kind %r (have: %s)"
                         % (kind, ", ".join(sorted(TOPOLOGY_KINDS))))
    try:
        return cls(**spec)
    except TypeError as exc:
        raise ValueError("topology %r: %s" % (kind, exc))
