"""SG→substrate mapping algorithms (the extensible Orchestrator core).

"A dedicated component maps abstract service graphs into available
resources based on different optimization algorithms (which can be
easily changed or customized)."  The :class:`Mapper` interface is that
extension point; three strategies ship with the reproduction:

* :class:`GreedyMapper` — first-fit container per VNF, hop-shortest
  connectivity.  Fast, no optimization.
* :class:`ShortestPathMapper` — per-VNF choice minimizing added path
  delay from the previous element, with bandwidth-feasibility pruning.
* :class:`BacktrackingMapper` — exhaustive search over container
  assignments with resource/requirement pruning; minimizes total chain
  delay.  Optimal on chains, exponential worst case.

The MAP1 benchmark compares their acceptance ratio, path stretch and
runtime on random request batches.
"""

from typing import Dict, List, Optional

from repro.core.catalog import VNFCatalog
from repro.core.nffg import ResourceView, ServiceGraph
from repro.telemetry import MetricsRegistry


class MappingError(Exception):
    pass


class Mapping:
    """A complete embedding of one service graph.

    ``vnf_placement`` maps VNF name -> container name; ``link_paths``
    maps (src, dst) SG-link endpoints -> substrate node path (SAPs,
    switches, containers).
    """

    def __init__(self, sg: ServiceGraph):
        self.sg = sg
        self.vnf_placement: Dict[str, str] = {}
        self.link_paths: Dict[tuple, List[str]] = {}
        # proactive protection (filled by compute_backup_paths):
        # per-segment maximally link-disjoint alternates plus metadata
        # about how disjoint they actually are, and optional standby
        # replica containers for anycast failover
        self.backup_paths: Dict[tuple, List[str]] = {}
        self.backup_info: Dict[tuple, dict] = {}
        self.backup_placement: Dict[str, str] = {}

    def total_delay(self, view: ResourceView) -> float:
        return sum(view.path_delay(path)
                   for path in self.link_paths.values())

    def total_hops(self) -> int:
        return sum(max(0, len(path) - 1)
                   for path in self.link_paths.values())

    def chain_delay(self, view: ResourceView, src_sap: str) -> float:
        """End-to-end substrate delay of the chain starting at a SAP."""
        chain = self.sg.chain_from(src_sap)
        return sum(view.path_delay(self.link_paths[(a, b)])
                   for a, b in zip(chain, chain[1:]))

    def __repr__(self) -> str:
        return "Mapping(%s: %r)" % (self.sg.name, self.vnf_placement)


# weight penalty for reusing a primary edge: large against real link
# delays (milliseconds), so Dijkstra only shares a primary edge when no
# alternative exists at all — "maximally disjoint"
_SHARED_EDGE_PENALTY = 1e6


def compute_backup_paths(sg: ServiceGraph, mapping: Mapping,
                         view: ResourceView) -> Dict[tuple, List[str]]:
    """Per-segment maximally link-disjoint backup paths.

    For every mapped SG link, find the path between the same substrate
    endpoints that shares as few primary edges as possible (Dijkstra
    over delay with a prohibitive penalty on primary edges).  The
    attachment edges at the segment endpoints are unavoidable for
    single-homed SAPs/containers and do not count against disjointness.

    Results land on the mapping: ``backup_paths[(src, dst)]`` holds the
    alternate substrate path and ``backup_info[(src, dst)]`` records
    ``disjoint`` (no interior primary edge shared) and the
    ``shared_edges`` list.  Segments with no alternative at all
    (single-link topologies, hairpins) get no backup — protection is
    disabled for them and ``backup_info`` names the ``reason`` (the
    orchestrator turns it into a warning in its event log).

    Backup bandwidth is *not* reserved: protection is shared, 1:N —
    the backup only carries traffic after a failure, and a fresh one is
    re-provisioned afterwards by a control-plane reroute.
    """
    backups: Dict[tuple, List[str]] = {}
    for (src, dst), primary in mapping.link_paths.items():
        key = (src, dst)
        mapping.backup_paths.pop(key, None)  # recompute = fresh slate
        if len(primary) < 2 or primary[0] == primary[-1]:
            # degenerate or hairpin segment: no distinct endpoints to
            # route an alternate between
            mapping.backup_info[key] = {"disjoint": False,
                                        "reason": "hairpin"}
            continue
        bandwidth = Mapper._link_bandwidth(sg, src, dst)
        primary_edges = {frozenset(pair)
                         for pair in zip(primary, primary[1:])}
        attachment_edges = {frozenset(primary[:2]),
                            frozenset(primary[-2:])}
        usable = view.routable(bandwidth)

        def weight(node1, node2, data):
            if not usable(node1, node2, data):
                return None
            delay = data["delay"] or 1e-9
            if frozenset((node1, node2)) in primary_edges:
                return delay + _SHARED_EDGE_PENALTY
            return delay

        backup = view.graph.dijkstra_path(primary[0], primary[-1], weight)
        if backup is None:
            mapping.backup_info[key] = {"disjoint": False,
                                        "reason": "no path"}
            continue
        backup_edges = {frozenset(pair)
                        for pair in zip(backup, backup[1:])}
        shared = backup_edges & primary_edges
        interior_shared = shared - attachment_edges
        if backup_edges <= primary_edges:
            # the "alternate" is the primary again — single-link
            # topology, nothing to protect with
            mapping.backup_info[key] = {"disjoint": False,
                                        "reason": "no alternative"}
            continue
        mapping.backup_paths[key] = backup
        mapping.backup_info[key] = {
            "disjoint": not interior_shared,
            "shared_edges": sorted(tuple(sorted(edge))
                                   for edge in interior_shared),
        }
        backups[key] = backup
    return backups


def compute_backup_placement(sg: ServiceGraph, mapping: Mapping,
                             view: ResourceView,
                             catalog: VNFCatalog) -> Dict[str, str]:
    """Optional anycast standby: for each placed VNF, the first *other*
    container that could host a replica right now.  Capacity is checked
    but not reserved — the standby is a warm target for failover
    re-provisioning, not a running instance."""
    for vnf_name, placed in mapping.vnf_placement.items():
        vnf = sg.vnfs[vnf_name]
        entry = catalog.get(vnf.vnf_type)
        cpu = vnf.cpu if vnf.cpu is not None else entry.cpu
        mem = vnf.mem if vnf.mem is not None else entry.mem
        ports = len(entry.devices)
        for container in view.containers():
            if container == placed:
                continue
            if view.container_fits(container, cpu, mem, ports):
                mapping.backup_placement[vnf_name] = container
                break
    return mapping.backup_placement


class Mapper:
    """Strategy interface: subclass and implement :meth:`_embed`.

    :meth:`map` either returns a complete Mapping — with the consumed
    resources reserved on ``view`` — or raises leaving ``view`` exactly
    as it was.  Strategies plan on the live view itself: every field a
    reservation is about to write is first noted in an undo log with
    the value it held, and a failure puts those values back (rather
    than subtracting what was added, which would leave float residue).
    """

    name = "abstract"

    def __init__(self, catalog: VNFCatalog):
        self.catalog = catalog
        # a standalone mapper counts into a registry of its own; the
        # Orchestrator re-homes it onto its bundle at deploy()
        self.bind(MetricsRegistry())

    def bind(self, metrics: MetricsRegistry) -> None:
        """Count into ``metrics`` from now on."""
        self._m_placement_attempts = metrics.counter(
            "core.mapping.placement_attempts",
            "container candidates examined during placement")
        self._m_accepted = metrics.counter(
            "core.mapping.accepted", "mappings committed to the view")
        self._m_backtrack_steps = metrics.counter(
            "core.mapping.backtrack_steps",
            "search-tree nodes visited by the backtracking mapper")

    def map(self, sg: ServiceGraph, view: ResourceView) -> Mapping:
        """Embed ``sg`` into ``view``, or raise with ``view`` restored."""
        sg.validate()
        mapping = Mapping(sg)
        undo: List[tuple] = []  # (attribute dict, the values it held)
        try:
            self._embed(sg, view, mapping, undo)
        except BaseException:
            for data, prior in reversed(undo):
                data.update(prior)
            raise
        self._m_accepted.inc()
        return mapping

    def _embed(self, sg: ServiceGraph, view: ResourceView,
               mapping: Mapping, undo: List[tuple]) -> None:
        """Fill ``mapping``, reserving on ``view`` through
        :meth:`_place` and :meth:`_route_links`; raise MappingError
        when the graph cannot be embedded."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def demand_of(self, sg: ServiceGraph, vnf_name: str) -> tuple:
        """(cpu, mem, ports) demand of one SG VNF.  Ports = the number
        of virtual devices its catalog entry splices to switch-facing
        container interfaces."""
        vnf = sg.vnfs[vnf_name]
        entry = self.catalog.get(vnf.vnf_type)
        cpu = vnf.cpu if vnf.cpu is not None else entry.cpu
        mem = vnf.mem if vnf.mem is not None else entry.mem
        return cpu, mem, len(entry.devices)

    def _place_node(self, sg: ServiceGraph, name: str,
                    placement: Dict[str, str]) -> str:
        """Substrate node an SG node is anchored at."""
        if name in sg.saps:
            return name  # SAPs use their own substrate name
        return placement[name]

    def _place(self, view: ResourceView, mapping: Mapping,
               undo: List[tuple], vnf_name: str, container: str,
               demand: tuple) -> None:
        """Reserve ``demand`` on ``container`` and record the choice."""
        data = view.graph.nodes[container]
        undo.append((data, {key: data[key] for key in
                            ("cpu_used", "mem_used", "ports_used")}))
        view.reserve_container(container, *demand)
        mapping.vnf_placement[vnf_name] = container

    def _find_path(self, view: ResourceView, src: str, dst: str,
                   bandwidth: float) -> Optional[List[str]]:
        return view.shortest_path(src, dst, bandwidth)

    def _route_links(self, sg: ServiceGraph, view: ResourceView,
                     mapping: Mapping, undo: List[tuple]) -> None:
        """Route every SG link between the placed endpoints, reserving
        its bandwidth before the next link is routed."""
        for link in sg.links:
            src = self._place_node(sg, link.src, mapping.vnf_placement)
            dst = self._place_node(sg, link.dst, mapping.vnf_placement)
            path = self._find_path(view, src, dst, link.bandwidth)
            if path is None:
                raise MappingError("no path %s -> %s with %.0f bit/s"
                                   % (src, dst, link.bandwidth))
            if link.bandwidth > 0:
                for pair in zip(path, path[1:]):
                    data = view.graph.edges[pair]
                    undo.append((data, {"bw_used": data["bw_used"]}))
                view.reserve_path_bandwidth(path, link.bandwidth)
            mapping.link_paths[(link.src, link.dst)] = path

    def release(self, mapping: Mapping, view: ResourceView) -> None:
        """Undo a mapping's reservations (chain teardown)."""
        for vnf_name, container in mapping.vnf_placement.items():
            cpu, mem, ports = self.demand_of(mapping.sg, vnf_name)
            view.release_container(container, cpu, mem, ports)
        for (src, dst), path in mapping.link_paths.items():
            bandwidth = self._link_bandwidth(mapping.sg, src, dst)
            view.release_path_bandwidth(path, bandwidth)

    @staticmethod
    def _link_bandwidth(sg: ServiceGraph, src: str, dst: str) -> float:
        for link in sg.links:
            if link.src == src and link.dst == dst:
                return link.bandwidth
        return 0.0


class GreedyMapper(Mapper):
    """First container with room, shortest path by delay, no lookahead."""

    name = "greedy"

    def _embed(self, sg: ServiceGraph, view: ResourceView,
               mapping: Mapping, undo: List[tuple]) -> None:
        containers = view.containers()
        for vnf_name in sg.vnfs:
            cpu, mem, ports = demand = self.demand_of(sg, vnf_name)
            for container in containers:
                self._m_placement_attempts.inc()
                if view.container_fits(container, cpu, mem, ports):
                    break
            else:
                raise MappingError("no container fits VNF %r "
                                   "(cpu=%.2f mem=%.0f ports=%d)"
                                   % (vnf_name, cpu, mem, ports))
            self._place(view, mapping, undo, vnf_name, container, demand)
        self._route_links(sg, view, mapping, undo)


class ShortestPathMapper(Mapper):
    """Choose, per VNF in chain order, the feasible container that adds
    the least delay from the previous element's anchor."""

    name = "shortest-path"

    def _embed(self, sg: ServiceGraph, view: ResourceView,
               mapping: Mapping, undo: List[tuple]) -> None:
        containers = view.containers()
        for vnf_name in self._topological_vnfs(sg):
            cpu, mem, ports = demand = self.demand_of(sg, vnf_name)
            anchor = self._anchor_of(sg, vnf_name, mapping.vnf_placement)
            best = None
            best_cost = None
            for container in containers:
                self._m_placement_attempts.inc()
                if not view.container_fits(container, cpu, mem, ports):
                    continue
                cost = 0.0 if anchor is None else \
                    self._path_cost(view, anchor, container)
                if cost is None:
                    continue
                if best_cost is None or cost < best_cost:
                    best, best_cost = container, cost
            if best is None:
                raise MappingError("no reachable container fits VNF %r"
                                   % vnf_name)
            self._place(view, mapping, undo, vnf_name, best, demand)
        self._route_links(sg, view, mapping, undo)
        self._check_requirements(sg, mapping, view)

    def _path_cost(self, view: ResourceView, src: str,
                   dst: str) -> Optional[float]:
        """What reaching ``dst`` from ``src`` costs this strategy; None
        when unreachable."""
        path = view.shortest_path(src, dst)
        return None if path is None else view.path_delay(path)

    def _topological_vnfs(self, sg: ServiceGraph) -> List[str]:
        """VNFs in chain order (predecessors first)."""
        order: List[str] = []
        visited = set(sg.saps)
        remaining = set(sg.vnfs)
        while remaining:
            progressed = False
            for vnf_name in list(remaining):
                preds = [link.src for link in sg.links
                         if link.dst == vnf_name]
                if all(pred in visited for pred in preds):
                    order.append(vnf_name)
                    visited.add(vnf_name)
                    remaining.discard(vnf_name)
                    progressed = True
            if not progressed:
                # cycle: fall back to arbitrary order for the rest
                order.extend(sorted(remaining))
                break
        return order

    def _anchor_of(self, sg: ServiceGraph, vnf_name: str,
                   placement: Dict[str, str]) -> Optional[str]:
        for link in sg.links:
            if link.dst != vnf_name:
                continue
            if link.src in sg.saps:
                return link.src
            if link.src in placement:
                return placement[link.src]
        return None

    def _check_requirements(self, sg: ServiceGraph, mapping: Mapping,
                            view: ResourceView) -> None:
        for requirement in sg.requirements:
            if requirement.max_delay is None:
                continue
            delay = mapping.chain_delay(view, requirement.src)
            if delay > requirement.max_delay + 1e-12:
                raise MappingError(
                    "requirement violated: %s chain delay %.6fs > %.6fs"
                    % (requirement.src, delay, requirement.max_delay))


class CongestionAwareMapper(ShortestPathMapper):
    """Shortest-path placement over *congestion-penalized* delays.

    Each link's weight is ``delay x (1 + alpha x utilization)``, where
    utilization combines reserved bandwidth and (when the controller's
    StatsCollector has annotated the view) the measured rate.  Chains
    therefore route around hot links even when they are the
    geometrically shortest — the measured data closing the loop between
    the monitoring plane and the mapping algorithm.
    """

    name = "congestion-aware"

    def __init__(self, catalog: VNFCatalog, alpha: float = 4.0):
        super().__init__(catalog)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha

    def _edge_weight(self, view: ResourceView, node1: str,
                     node2: str) -> float:
        data = view.graph.edges[node1, node2]
        delay = data["delay"] or 1e-9
        capacity = data["bandwidth"]
        if capacity is None or capacity <= 0:
            return delay
        load = data["bw_used"] + data.get("measured_bps", 0.0)
        utilization = min(1.5, load / capacity)
        return delay * (1.0 + self.alpha * utilization)

    def _find_path(self, view: ResourceView, src: str, dst: str,
                   min_bandwidth: float) -> Optional[List[str]]:
        if src == dst:
            return view.shortest_path(src, dst, min_bandwidth)
        usable = view.routable(min_bandwidth)
        return view.graph.shortest_path(
            src, dst, lambda a, b, data:
            self._edge_weight(view, a, b) if usable(a, b, data) else None)

    def _path_cost(self, view: ResourceView, src: str,
                   dst: str) -> Optional[float]:
        path = self._find_path(view, src, dst, 0.0)
        if path is None:
            return None
        return sum(self._edge_weight(view, a, b)
                   for a, b in zip(path, path[1:]))


class BacktrackingMapper(ShortestPathMapper):
    """Exhaustive search over container assignments, minimizing total
    chain delay, with resource and delay-budget pruning."""

    name = "backtracking"

    def __init__(self, catalog: VNFCatalog, max_steps: int = 200000):
        super().__init__(catalog)
        self.max_steps = max_steps

    def _embed(self, sg: ServiceGraph, view: ResourceView,
               mapping: Mapping, undo: List[tuple]) -> None:
        order = self._topological_vnfs(sg)
        self._steps = 0
        try:
            # the search reserves and releases as it walks the tree,
            # which leaves float residue: it gets a scratch view
            best = self._search(sg, view.copy(), order, 0, {}, None)
        finally:
            self._m_backtrack_steps.inc(self._steps)
        if best is None:
            raise MappingError("backtracking found no feasible embedding")
        for vnf_name, container in best[0].items():
            self._place(view, mapping, undo, vnf_name, container,
                        self.demand_of(sg, vnf_name))
        self._route_links(sg, view, mapping, undo)
        self._check_requirements(sg, mapping, view)

    def _search(self, sg: ServiceGraph, trial: ResourceView,
                order: List[str], index: int,
                placement: Dict[str, str],
                best: Optional[tuple]) -> Optional[tuple]:
        if index == len(order):
            cost = self._placement_cost(sg, trial, placement)
            if cost is None:
                return best
            if best is None or cost < best[1]:
                return (dict(placement), cost)
            return best
        vnf_name = order[index]
        cpu, mem, ports = self.demand_of(sg, vnf_name)
        for container in trial.containers():
            self._steps += 1
            if self._steps > self.max_steps:
                return best
            if not trial.container_fits(container, cpu, mem, ports):
                continue
            trial.reserve_container(container, cpu, mem, ports)
            placement[vnf_name] = container
            best = self._search(sg, trial, order, index + 1, placement,
                                best)
            del placement[vnf_name]
            trial.release_container(container, cpu, mem, ports)
        return best

    def _placement_cost(self, sg: ServiceGraph, trial: ResourceView,
                        placement: Dict[str, str]) -> Optional[float]:
        """Total delay of all SG links under this placement, or None
        when any link is unroutable / a requirement breaks."""
        total = 0.0
        per_chain: Dict[tuple, float] = {}
        for link in sg.links:
            src = self._place_node(sg, link.src, placement)
            dst = self._place_node(sg, link.dst, placement)
            path = trial.shortest_path(src, dst, link.bandwidth)
            if path is None:
                return None
            delay = trial.path_delay(path)
            total += delay
            per_chain[(link.src, link.dst)] = delay
        for requirement in sg.requirements:
            if requirement.max_delay is None:
                continue
            chain = sg.chain_from(requirement.src)
            chain_delay = sum(per_chain.get((a, b), 0.0)
                              for a, b in zip(chain, chain[1:]))
            if chain_delay > requirement.max_delay + 1e-12:
                return None
        return total
