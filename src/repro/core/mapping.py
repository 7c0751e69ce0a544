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
    re-provisioned afterwards (make-before-break).
    """
    import networkx as nx
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
        usable = []
        for node1, node2, data in view.graph.edges(data=True):
            if not view.link_is_up(node1, node2):
                continue
            if bandwidth > 0 and data["bandwidth"] is not None and \
                    data["bandwidth"] - data["bw_used"] \
                    < bandwidth - 1e-9:
                continue
            usable.append((node1, node2))
        candidate = view.graph.edge_subgraph(usable)

        def weight(node1, node2, data):
            delay = data["delay"] or 1e-9
            if frozenset((node1, node2)) in primary_edges:
                return delay + _SHARED_EDGE_PENALTY
            return delay

        head, tail = primary[0], primary[-1]
        try:
            backup = nx.dijkstra_path(candidate, head, tail,
                                      weight=weight)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            backup = None
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
    """Strategy interface: subclass and implement :meth:`map`.

    ``map`` must either return a complete Mapping — after reserving the
    consumed resources on ``view`` — or raise MappingError leaving
    ``view`` untouched.
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

    def _commit(self, mapping: Mapping, view: ResourceView,
                reservations: List[tuple], paths: List[tuple]) -> None:
        """Apply reservations; on failure roll back and raise."""
        done_containers: List[tuple] = []
        done_paths: List[tuple] = []
        try:
            for container, cpu, mem, ports in reservations:
                view.reserve_container(container, cpu, mem, ports)
                done_containers.append((container, cpu, mem, ports))
            for path, bandwidth in paths:
                view.reserve_path_bandwidth(path, bandwidth)
                done_paths.append((path, bandwidth))
        except ValueError as exc:
            for path, bandwidth in done_paths:
                view.release_path_bandwidth(path, bandwidth)
            for container, cpu, mem, ports in done_containers:
                view.release_container(container, cpu, mem, ports)
            raise MappingError(str(exc))
        self._m_accepted.inc()

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

    def map(self, sg: ServiceGraph, view: ResourceView) -> Mapping:
        sg.validate()
        mapping = Mapping(sg)
        reservations: List[tuple] = []
        trial = view.copy()  # feasibility bookkeeping before commit
        for vnf_name in sg.vnfs:
            cpu, mem, ports = self.demand_of(sg, vnf_name)
            chosen = None
            for container in trial.containers():
                self._m_placement_attempts.inc()
                if trial.container_fits(container, cpu, mem, ports):
                    chosen = container
                    break
            if chosen is None:
                raise MappingError("no container fits VNF %r "
                                   "(cpu=%.2f mem=%.0f ports=%d)"
                                   % (vnf_name, cpu, mem, ports))
            trial.reserve_container(chosen, cpu, mem, ports)
            mapping.vnf_placement[vnf_name] = chosen
            reservations.append((chosen, cpu, mem, ports))
        paths = self._route_links(sg, mapping, trial)
        self._commit(mapping, view, reservations, paths)
        return mapping

    def _route_links(self, sg: ServiceGraph, mapping: Mapping,
                     trial: ResourceView) -> List[tuple]:
        paths: List[tuple] = []
        for link in sg.links:
            src = self._place_node(sg, link.src, mapping.vnf_placement)
            dst = self._place_node(sg, link.dst, mapping.vnf_placement)
            path = trial.shortest_path(src, dst, link.bandwidth)
            if path is None:
                raise MappingError("no path %s -> %s with %.0f bit/s"
                                   % (src, dst, link.bandwidth))
            trial.reserve_path_bandwidth(path, link.bandwidth)
            mapping.link_paths[(link.src, link.dst)] = path
            paths.append((path, link.bandwidth))
        return paths


class ShortestPathMapper(Mapper):
    """Choose, per VNF in chain order, the feasible container that adds
    the least delay from the previous element's anchor."""

    name = "shortest-path"

    def map(self, sg: ServiceGraph, view: ResourceView) -> Mapping:
        sg.validate()
        mapping = Mapping(sg)
        trial = view.copy()
        reservations: List[tuple] = []
        order = self._topological_vnfs(sg)
        for vnf_name in order:
            cpu, mem, ports = self.demand_of(sg, vnf_name)
            anchor = self._anchor_of(sg, vnf_name, mapping.vnf_placement)
            best = None
            best_delay = None
            for container in trial.containers():
                self._m_placement_attempts.inc()
                if not trial.container_fits(container, cpu, mem, ports):
                    continue
                if anchor is None:
                    candidate_delay = 0.0
                else:
                    path = trial.shortest_path(anchor, container)
                    if path is None:
                        continue
                    candidate_delay = trial.path_delay(path)
                if best_delay is None or candidate_delay < best_delay:
                    best, best_delay = container, candidate_delay
            if best is None:
                raise MappingError("no reachable container fits VNF %r"
                                   % vnf_name)
            trial.reserve_container(best, cpu, mem, ports)
            mapping.vnf_placement[vnf_name] = best
            reservations.append((best, cpu, mem, ports))
        paths = GreedyMapper._route_links(self, sg, mapping, trial)
        self._check_requirements(sg, mapping, trial)
        self._commit(mapping, view, reservations, paths)
        return mapping

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
                            trial: ResourceView) -> None:
        for requirement in sg.requirements:
            if requirement.max_delay is None:
                continue
            delay = mapping.chain_delay(trial, requirement.src)
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

    def _weighted_path(self, view: ResourceView, src: str, dst: str,
                       min_bandwidth: float) -> Optional[List[str]]:
        import networkx as nx
        if src == dst:
            return view.shortest_path(src, dst, min_bandwidth)
        graph = view.graph
        if min_bandwidth > 0:
            usable = [(a, b) for a, b, data in graph.edges(data=True)
                      if data["bandwidth"] is None
                      or data["bandwidth"] - data["bw_used"]
                      >= min_bandwidth - 1e-9]
            graph = graph.edge_subgraph(usable)
            if src not in graph or dst not in graph:
                return None
        try:
            return nx.shortest_path(
                graph, src, dst,
                weight=lambda a, b, _d: self._edge_weight(view, a, b))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    def map(self, sg: ServiceGraph, view: ResourceView) -> Mapping:
        sg.validate()
        mapping = Mapping(sg)
        trial = view.copy()
        reservations: List[tuple] = []
        order = self._topological_vnfs(sg)
        for vnf_name in order:
            cpu, mem, ports = self.demand_of(sg, vnf_name)
            anchor = self._anchor_of(sg, vnf_name, mapping.vnf_placement)
            best = None
            best_cost = None
            for container in trial.containers():
                self._m_placement_attempts.inc()
                if not trial.container_fits(container, cpu, mem, ports):
                    continue
                if anchor is None:
                    cost = 0.0
                else:
                    path = self._weighted_path(trial, anchor, container,
                                               0.0)
                    if path is None:
                        continue
                    cost = sum(self._edge_weight(trial, a, b)
                               for a, b in zip(path, path[1:]))
                if best_cost is None or cost < best_cost:
                    best, best_cost = container, cost
            if best is None:
                raise MappingError("no reachable container fits VNF %r"
                                   % vnf_name)
            trial.reserve_container(best, cpu, mem, ports)
            mapping.vnf_placement[vnf_name] = best
            reservations.append((best, cpu, mem, ports))
        paths = self._route_links_weighted(sg, mapping, trial)
        self._check_requirements(sg, mapping, trial)
        self._commit(mapping, view, reservations, paths)
        return mapping

    def _route_links_weighted(self, sg: ServiceGraph, mapping: Mapping,
                              trial: ResourceView) -> List[tuple]:
        paths: List[tuple] = []
        for link in sg.links:
            src = self._place_node(sg, link.src, mapping.vnf_placement)
            dst = self._place_node(sg, link.dst, mapping.vnf_placement)
            path = self._weighted_path(trial, src, dst, link.bandwidth)
            if path is None:
                raise MappingError("no path %s -> %s with %.0f bit/s"
                                   % (src, dst, link.bandwidth))
            trial.reserve_path_bandwidth(path, link.bandwidth)
            mapping.link_paths[(link.src, link.dst)] = path
            paths.append((path, link.bandwidth))
        return paths


class BacktrackingMapper(ShortestPathMapper):
    """Exhaustive search over container assignments, minimizing total
    chain delay, with resource and delay-budget pruning."""

    name = "backtracking"

    def __init__(self, catalog: VNFCatalog, max_steps: int = 200000):
        super().__init__(catalog)
        self.max_steps = max_steps

    def map(self, sg: ServiceGraph, view: ResourceView) -> Mapping:
        sg.validate()
        order = self._topological_vnfs(sg)
        self._steps = 0
        try:
            best = self._search(sg, view.copy(), order, 0, {}, None)
        finally:
            self._m_backtrack_steps.inc(self._steps)
        if best is None:
            raise MappingError("backtracking found no feasible embedding")
        placement, _cost = best
        # Rebuild paths and commit on the real view.
        mapping = Mapping(sg)
        mapping.vnf_placement = dict(placement)
        trial = view.copy()
        for container, cpu, mem, ports in self._reservations(sg, placement):
            trial.reserve_container(container, cpu, mem, ports)
        paths = GreedyMapper._route_links(self, sg, mapping, trial)
        self._check_requirements(sg, mapping, trial)
        self._commit(mapping, view, self._reservations(sg, placement),
                     paths)
        return mapping

    def _reservations(self, sg: ServiceGraph,
                      placement: Dict[str, str]) -> List[tuple]:
        reservations = []
        for vnf_name, container in placement.items():
            cpu, mem, ports = self.demand_of(sg, vnf_name)
            reservations.append((container, cpu, mem, ports))
        return reservations

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
