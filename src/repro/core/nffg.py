"""Service-graph and resource-view models.

The service graph (the paper's SG; UNIFY later called it the NFFG) is
the abstract description the service layer produces: service access
points (SAPs), VNF instances chosen from the catalog, directed SG links
forming chains/branches, and end-to-end requirements (delay, bandwidth)
on SAP-to-SAP subpaths.

The resource view is the orchestrator's global picture of the
infrastructure: container nodes with CPU/memory headroom, switch nodes,
SAP attachment points, and substrate links with delay and residual
bandwidth.  Underneath is :class:`repro.core.graph.Graph` — the
package's own adjacency and path searches, standard library only —
which the mapping algorithms traverse.
"""

from typing import Callable, Dict, Iterable, List, Optional

from repro.core.graph import Graph


class SAP:
    """Service access point — where chain traffic enters/leaves."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return "SAP(%s)" % self.name


class VNFNode:
    """One VNF instance in the graph.

    ``vnf_type`` names a catalog entry; ``params`` fill its Click
    template; ``cpu``/``mem`` override the catalog's default demand.
    """

    def __init__(self, name: str, vnf_type: str,
                 params: Optional[Dict[str, str]] = None,
                 cpu: Optional[float] = None, mem: Optional[float] = None):
        self.name = name
        self.vnf_type = vnf_type
        self.params = dict(params or {})
        self.cpu = cpu
        self.mem = mem

    def __repr__(self) -> str:
        return "VNFNode(%s: %s)" % (self.name, self.vnf_type)


class SGLink:
    """Directed logical link between two SG nodes (SAP or VNF names)."""

    def __init__(self, src: str, dst: str, bandwidth: float = 0.0):
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth  # bits/s the chain reserves; 0 = none

    def __repr__(self) -> str:
        return "SGLink(%s -> %s)" % (self.src, self.dst)


class Requirement:
    """End-to-end requirement over the SG path from ``src`` to ``dst``."""

    def __init__(self, src: str, dst: str,
                 max_delay: Optional[float] = None,
                 min_bandwidth: Optional[float] = None):
        self.src = src
        self.dst = dst
        self.max_delay = max_delay          # seconds
        self.min_bandwidth = min_bandwidth  # bits/s

    def __repr__(self) -> str:
        return "Requirement(%s->%s, delay<=%s, bw>=%s)" % (
            self.src, self.dst, self.max_delay, self.min_bandwidth)


class ServiceGraph:
    """SAPs + VNFs + SG links + requirements."""

    def __init__(self, name: str = "sg"):
        self.name = name
        self.saps: Dict[str, SAP] = {}
        self.vnfs: Dict[str, VNFNode] = {}
        self.links: List[SGLink] = []
        self.requirements: List[Requirement] = []

    # -- construction ------------------------------------------------------

    def add_sap(self, name: str) -> SAP:
        if name in self.saps or name in self.vnfs:
            raise ValueError("SG node %r already exists" % name)
        sap = SAP(name)
        self.saps[name] = sap
        return sap

    def add_vnf(self, name: str, vnf_type: str,
                params: Optional[Dict[str, str]] = None,
                cpu: Optional[float] = None,
                mem: Optional[float] = None) -> VNFNode:
        if name in self.saps or name in self.vnfs:
            raise ValueError("SG node %r already exists" % name)
        vnf = VNFNode(name, vnf_type, params, cpu, mem)
        self.vnfs[name] = vnf
        return vnf

    def add_link(self, src: str, dst: str,
                 bandwidth: float = 0.0) -> SGLink:
        for name in (src, dst):
            if name not in self.saps and name not in self.vnfs:
                raise ValueError("SG link references unknown node %r" % name)
        link = SGLink(src, dst, bandwidth)
        self.links.append(link)
        return link

    def add_chain(self, nodes: Iterable[str],
                  bandwidth: float = 0.0) -> List[SGLink]:
        """Convenience: link consecutive node names."""
        nodes = list(nodes)
        return [self.add_link(a, b, bandwidth)
                for a, b in zip(nodes, nodes[1:])]

    def add_requirement(self, src: str, dst: str,
                        max_delay: Optional[float] = None,
                        min_bandwidth: Optional[float] = None
                        ) -> Requirement:
        requirement = Requirement(src, dst, max_delay, min_bandwidth)
        self.requirements.append(requirement)
        return requirement

    # -- queries -----------------------------------------------------------

    def successors(self, name: str) -> List[str]:
        return [link.dst for link in self.links if link.src == name]

    def chain_from(self, sap_name: str) -> List[str]:
        """Follow unique successors from a SAP (linear chains only)."""
        if sap_name not in self.saps:
            raise ValueError("%r is not a SAP" % sap_name)
        chain = [sap_name]
        current = sap_name
        visited = {sap_name}
        while True:
            nexts = self.successors(current)
            if not nexts:
                return chain
            if len(nexts) > 1:
                raise ValueError("node %r branches; chain_from only walks "
                                 "linear chains" % current)
            current = nexts[0]
            if current in visited:
                raise ValueError("SG contains a cycle at %r" % current)
            visited.add(current)
            chain.append(current)

    def validate(self) -> None:
        """Structural sanity: links resolve, SAPs are endpoints only."""
        for link in self.links:
            for name in (link.src, link.dst):
                if name not in self.saps and name not in self.vnfs:
                    raise ValueError("dangling SG link node %r" % name)
        for requirement in self.requirements:
            for name in (requirement.src, requirement.dst):
                if name not in self.saps:
                    raise ValueError(
                        "requirement endpoint %r is not a SAP" % name)

    def __repr__(self) -> str:
        return "ServiceGraph(%s: %d SAPs, %d VNFs, %d links)" % (
            self.name, len(self.saps), len(self.vnfs), len(self.links))


# -- resource view ----------------------------------------------------------


class ResourceView:
    """The orchestrator's global network + resource picture.

    Node kinds: ``sap`` (with its attachment switch), ``switch``, and
    ``container`` (with cpu/mem headroom).  Edges carry delay (seconds)
    and bandwidth capacity/reservations (bits/s).
    """

    SAP = "sap"
    SWITCH = "switch"
    CONTAINER = "container"

    def __init__(self):
        self.graph = Graph()
        # substrate edges currently marked down (frozenset node pairs);
        # kept separately so the fault-free path pays one falsy check
        self._down_edges: set = set()
        # (src, dst) -> unconstrained shortest path (or None).  It
        # depends only on nodes, edges, delays and the down set, so
        # every method that changes one of those clears it; residual
        # bandwidth changes with every deploy, so constrained queries
        # are never kept
        self._paths: Dict[tuple, Optional[List[str]]] = {}

    # -- construction -------------------------------------------------------

    def add_sap(self, name: str) -> None:
        self._paths.clear()
        self.graph.add_node(name, kind=self.SAP)

    def add_switch(self, name: str, dpid: Optional[int] = None) -> None:
        self._paths.clear()
        self.graph.add_node(name, kind=self.SWITCH, dpid=dpid)

    def add_container(self, name: str, cpu: float, mem: float,
                      ports: int = 8) -> None:
        self._paths.clear()
        self.graph.add_node(name, kind=self.CONTAINER, cpu=cpu, mem=mem,
                            cpu_used=0.0, mem_used=0.0,
                            ports=ports, ports_used=0)

    def add_link(self, node1: str, node2: str, delay: float = 0.0,
                 bandwidth: Optional[float] = None) -> None:
        self.graph.add_edge(node1, node2, delay=delay,
                            bandwidth=bandwidth, bw_used=0.0)
        self._paths.clear()

    # -- substrate link state -------------------------------------------------

    def set_link_up(self, node1: str, node2: str, up: bool) -> None:
        """Mark a substrate edge (un)usable for routing.  Down edges
        are excluded from :meth:`shortest_path` so re-routes steer
        around them; existing reservations are untouched."""
        if not self.graph.has_edge(node1, node2):
            raise ValueError("no substrate link %s--%s" % (node1, node2))
        self._paths.clear()
        key = frozenset((node1, node2))
        if up:
            self._down_edges.discard(key)
        else:
            self._down_edges.add(key)

    def link_is_up(self, node1: str, node2: str) -> bool:
        return frozenset((node1, node2)) not in self._down_edges

    def down_links(self) -> List[tuple]:
        return sorted(tuple(sorted(pair)) for pair in self._down_edges)

    # -- resource bookkeeping -------------------------------------------------

    def kind(self, name: str) -> str:
        return self.graph.nodes[name]["kind"]

    def containers(self) -> List[str]:
        return [name for name, data in self.graph.nodes(data=True)
                if data["kind"] == self.CONTAINER]

    def switches(self) -> List[str]:
        return [name for name, data in self.graph.nodes(data=True)
                if data["kind"] == self.SWITCH]

    def saps(self) -> List[str]:
        return [name for name, data in self.graph.nodes(data=True)
                if data["kind"] == self.SAP]

    def container_fits(self, name: str, cpu: float, mem: float,
                       ports: int = 0) -> bool:
        data = self.graph.nodes[name]
        return (data["cpu"] - data["cpu_used"] + 1e-9 >= cpu
                and data["mem"] - data["mem_used"] + 1e-9 >= mem
                and data["ports"] - data["ports_used"] >= ports)

    def reserve_container(self, name: str, cpu: float, mem: float,
                          ports: int = 0) -> None:
        data = self.graph.nodes[name]
        if not self.container_fits(name, cpu, mem, ports):
            raise ValueError(
                "container %r cannot fit cpu=%.2f mem=%.0f ports=%d"
                % (name, cpu, mem, ports))
        data["cpu_used"] += cpu
        data["mem_used"] += mem
        data["ports_used"] += ports

    def release_container(self, name: str, cpu: float, mem: float,
                          ports: int = 0) -> None:
        data = self.graph.nodes[name]
        data["cpu_used"] = max(0.0, data["cpu_used"] - cpu)
        data["mem_used"] = max(0.0, data["mem_used"] - mem)
        data["ports_used"] = max(0, data["ports_used"] - ports)

    def link_free_bandwidth(self, node1: str, node2: str) -> float:
        data = self.graph.edges[node1, node2]
        if data["bandwidth"] is None:
            return float("inf")
        return data["bandwidth"] - data["bw_used"]

    def reserve_path_bandwidth(self, path: List[str],
                               bandwidth: float) -> None:
        if bandwidth <= 0:
            return
        for node1, node2 in zip(path, path[1:]):
            if self.link_free_bandwidth(node1, node2) + 1e-9 < bandwidth:
                raise ValueError("no %.0f bit/s left on %s--%s"
                                 % (bandwidth, node1, node2))
        for node1, node2 in zip(path, path[1:]):
            self.graph.edges[node1, node2]["bw_used"] += bandwidth

    def release_path_bandwidth(self, path: List[str],
                               bandwidth: float) -> None:
        if bandwidth <= 0:
            return
        for node1, node2 in zip(path, path[1:]):
            data = self.graph.edges[node1, node2]
            data["bw_used"] = max(0.0, data["bw_used"] - bandwidth)

    def path_delay(self, path: List[str]) -> float:
        return sum(self.graph.edges[a, b]["delay"]
                   for a, b in zip(path, path[1:]))

    def shortest_path(self, src: str, dst: str,
                      min_bandwidth: float = 0.0) -> Optional[List[str]]:
        """Delay-shortest path with at least ``min_bandwidth`` residual
        on every hop; None when disconnected under that constraint.

        ``src == dst`` (two VNFs in one container) returns a hairpin
        through the cheapest adjacent switch — the traffic leaves on one
        interface and re-enters on another, crossing that link twice.
        """
        if min_bandwidth > 0:
            return self._solve(src, dst, min_bandwidth)
        try:
            path = self._paths[src, dst]
        except KeyError:
            path = self._paths[src, dst] = self._solve(src, dst, 0.0)
        # a fresh list: callers keep and edit what they are given
        return None if path is None else list(path)

    def _solve(self, src: str, dst: str,
               min_bandwidth: float) -> Optional[List[str]]:
        if src == dst:
            return self._hairpin(src, min_bandwidth)
        usable = self.routable(min_bandwidth)
        return self.graph.shortest_path(
            src, dst, lambda node1, node2, data:
            data["delay"] if usable(node1, node2, data) else None)

    def routable(self, min_bandwidth: float = 0.0) -> Callable[..., bool]:
        """What any path search may cross, as a predicate over
        ``(node1, node2, edge attributes)``: links that are up and have
        at least ``min_bandwidth`` residual.  A search asks it of the
        edges it relaxes and gives the others no weight."""
        down = self._down_edges
        floor = min_bandwidth - 1e-9

        def usable(node1: str, node2: str, data: dict) -> bool:
            if down and frozenset((node1, node2)) in down:
                return False
            return (min_bandwidth <= 0 or data["bandwidth"] is None
                    or data["bandwidth"] - data["bw_used"] >= floor)
        return usable

    def _hairpin(self, node: str,
                 min_bandwidth: float = 0.0) -> Optional[List[str]]:
        if node not in self.graph:
            return None
        # the hairpin crosses the link twice, so twice the bandwidth
        # must be free on it
        usable = self.routable(2 * min_bandwidth)
        best = None
        best_delay = None
        for neighbor in self.graph.neighbors(node):
            data = self.graph.edges[node, neighbor]
            if self.kind(neighbor) != self.SWITCH \
                    or not usable(node, neighbor, data):
                continue
            if best_delay is None or data["delay"] < best_delay:
                best, best_delay = neighbor, data["delay"]
        if best is None:
            return None
        return [node, best, node]

    def copy(self) -> "ResourceView":
        clone = ResourceView()
        clone.graph = self.graph.copy()
        clone._down_edges = set(self._down_edges)
        clone._paths = dict(self._paths)
        return clone

    def snapshot(self) -> Dict[str, dict]:
        """Per-container utilization, for dashboards and tests."""
        return {name: dict(self.graph.nodes[name])
                for name in self.containers()}

    def __repr__(self) -> str:
        return "ResourceView(%d nodes, %d links)" % (
            self.graph.number_of_nodes(), self.graph.number_of_edges())
