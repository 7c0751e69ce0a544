"""The Orchestrator: from mapped service graphs to running chains.

Deployment follows the paper's flow exactly:

1. a :class:`~repro.core.mapping.Mapper` embeds the SG into the
   resource view,
2. each VNF is started in its assigned container through the NETCONF
   client (``startVNF``) and its virtual devices are spliced to
   switch-facing interfaces (``connectVNF``),
3. the traffic-steering module installs the OpenFlow entries that pin
   the chain's flows along the mapped substrate paths,
4. a :class:`DeployedChain` handle exposes status, Clicky handler reads
   and teardown.
"""

from contextlib import contextmanager
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.catalog import VNFCatalog
from repro.core.mapping import (Mapper, Mapping, MappingError,
                                compute_backup_paths,
                                compute_backup_placement)
from repro.core.nffg import ResourceView, ServiceGraph
from repro.netconf import NetconfClient
from repro.netconf.vnf_yang import VNF_NS
from repro.netconf.messages import qn
from repro.netem import Network, VNFContainer
from repro.netem.node import Host, Switch
from repro.openflow import Match
from repro.packet import Ethernet
from repro.pox.steering import PathHop, SteeringChange, TrafficSteering


class OrchestratorError(Exception):
    pass


def build_resource_view(net: Network) -> ResourceView:
    """Derive the orchestrator's global view from the emulated network.

    The view's graph is simple: parallel links between the same node
    pair collapse into one edge (keeping the last link's delay/
    bandwidth).  Container port accounting still counts every physical
    interface, so multi-homed containers lose no placement capacity —
    only per-link bandwidth of parallel trunks is approximated.
    """
    view = ResourceView()
    for node in net.nodes.values():
        if isinstance(node, Host):
            view.add_sap(node.name)
        elif isinstance(node, Switch):
            view.add_switch(node.name, node.dpid)
        elif isinstance(node, VNFContainer):
            view.add_container(node.name, node.budget.cpu_capacity,
                               node.budget.mem_capacity,
                               ports=len(node.free_interfaces()))
    for link in net.links:
        name1 = link.intf1.node.name
        name2 = link.intf2.node.name
        # links to nodes outside the data plane (e.g. the management
        # hub) are not part of the orchestrator's resource graph
        if name1 not in view.graph or name2 not in view.graph:
            continue
        view.add_link(name1, name2, delay=link.delay,
                      bandwidth=link.bandwidth)
    return view


class _PortMap:
    """Resolve switch port numbers from the emulated topology."""

    def __init__(self, net: Network):
        self.net = net
        # (switch name, peer node name) -> [(port_no, peer intf name)]
        self._ports: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}
        for link in net.links:
            self._note(link.intf1, link.intf2)
            self._note(link.intf2, link.intf1)

    def _note(self, intf, peer_intf) -> None:
        node = intf.node
        if not isinstance(node, Switch):
            return
        key = (node.name, peer_intf.node.name)
        self._ports.setdefault(key, []).append(
            (node.port_number(intf), peer_intf.name))

    def port(self, switch_name: str, peer_name: str,
             peer_intf_name: Optional[str] = None) -> int:
        """Port on ``switch_name`` facing ``peer_name`` (optionally the
        specific peer interface)."""
        candidates = self._ports.get((switch_name, peer_name), [])
        if not candidates:
            raise OrchestratorError("no link between switch %r and %r"
                                    % (switch_name, peer_name))
        if peer_intf_name is None:
            return candidates[0][0]
        for port_no, intf_name in candidates:
            if intf_name == peer_intf_name:
                return port_no
        raise OrchestratorError(
            "switch %r has no port facing %s:%s"
            % (switch_name, peer_name, peer_intf_name))

    def peer_switch_of(self, container_name: str,
                       intf_name: str) -> Optional[str]:
        """Which switch a container interface links to, if any."""
        for (switch_name, peer_name), entries in self._ports.items():
            if peer_name != container_name:
                continue
            for _port, peer_intf in entries:
                if peer_intf == intf_name:
                    return switch_name
        return None


class DeployedVNF:
    """Bookkeeping for one started VNF."""

    def __init__(self, vnf_name: str, vnf_id: str, container: str,
                 device_interfaces: Dict[str, str], cpu: float, mem: float):
        self.vnf_name = vnf_name
        self.vnf_id = vnf_id
        self.container = container
        self.device_interfaces = device_interfaces  # device -> intf name
        self.cpu = cpu
        self.mem = mem

    def __repr__(self) -> str:
        return "DeployedVNF(%s on %s)" % (self.vnf_name, self.container)


class DeployedChain:
    """Handle for a running service chain."""

    def __init__(self, orchestrator: "Orchestrator", sg: ServiceGraph,
                 mapping: Mapping, mapper: Mapper,
                 vnfs: Dict[str, DeployedVNF], base_match: Match):
        self.orchestrator = orchestrator
        self.sg = sg
        self.mapping = mapping
        self.mapper = mapper
        self.vnfs = vnfs
        self.base_match = base_match
        # route key -> (steering path id, substrate node path), in
        # install order: ("seg", src, dst) per SG link, ("rev", src,
        # dst) per SG link steered back through the chain, ("return",)
        # for the direct return path
        self.routes: Dict[tuple, Tuple[str, List[str]]] = {}
        self.active = True
        # the SLAMonitor watching this chain (ESCAPE.watch_sla); it
        # is stopped when the chain is torn down
        self.sla_monitor = None

    @property
    def path_ids(self) -> List[str]:
        """The chain's steering path ids, in install order."""
        return [path_id for path_id, _path in self.routes.values()]

    def migrate(self, vnf_name: str, target_container: str) -> None:
        """Move one VNF to another container, re-steering its routes."""
        self.orchestrator.migrate_vnf(self, vnf_name, target_container)

    def read_handler(self, vnf_name: str, handler: str) -> str:
        """Read one Clicky handler of a chain VNF over NETCONF."""
        deployed = self._deployed(vnf_name)
        client = self.orchestrator.netconf_client(deployed.container)
        reply = client.rpc("getVNFInfo", VNF_NS,
                           {"id": deployed.vnf_id,
                            "handler": handler}).result(
            self.orchestrator.net.sim)
        value = reply.find(qn("value", VNF_NS))
        return value.text or "" if value is not None else ""

    def write_handler(self, vnf_name: str, handler: str,
                      value: str) -> None:
        deployed = self._deployed(vnf_name)
        client = self.orchestrator.netconf_client(deployed.container)
        client.rpc("writeVNFHandler", VNF_NS,
                   {"id": deployed.vnf_id, "handler": handler,
                    "value": value}).result(self.orchestrator.net.sim)

    def _deployed(self, vnf_name: str) -> DeployedVNF:
        deployed = self.vnfs.get(vnf_name)
        if deployed is None:
            raise OrchestratorError("chain has no VNF %r" % vnf_name)
        return deployed

    def undeploy(self) -> None:
        if not self.active:
            return
        if self.sla_monitor is not None and self.sla_monitor.running:
            self.sla_monitor.stop()
        self.orchestrator._undeploy(self)
        self.active = False

    def __repr__(self) -> str:
        return "DeployedChain(%s, %d VNFs, %s)" % (
            self.sg.name, len(self.vnfs),
            "active" if self.active else "torn down")


class Orchestrator:
    """Maps, deploys and tears down service graphs."""

    def __init__(self, net: Network, steering: TrafficSteering,
                 catalog: VNFCatalog,
                 netconf_clients: Dict[str, NetconfClient],
                 protection: bool = False):
        self.net = net
        self.steering = steering
        self.catalog = catalog
        self._clients = netconf_clients
        # proactive protection: precompute link-disjoint backup paths
        # at deploy time and install them behind fast-failover groups
        self.protection = protection
        self.telemetry = net.sim.telemetry
        self.view = build_resource_view(net)
        self.ports = _PortMap(net)
        self.deployed: Dict[str, DeployedChain] = {}
        self._vnf_counter = 0
        self._path_counter = 0
        metrics = self.telemetry.metrics
        self._m_deploys = metrics.counter(
            "core.orchestrator.deploys", "chains deployed successfully")
        self._m_deploy_failures = metrics.counter(
            "core.orchestrator.deploy_failures",
            "deploy attempts that raised (mapping or realization)")
        self._m_migrations = metrics.counter(
            "core.orchestrator.migrations", "VNF migrations completed")
        self._m_restarts = metrics.counter(
            "core.orchestrator.restarts",
            "crashed VNF instances replaced in place")
        self._m_map_calls = metrics.counter(
            "core.mapping.map_calls", "mapper invocations")
        self._m_map_rejected = metrics.counter(
            "core.mapping.rejected", "mapper invocations raising "
            "MappingError")
        self._m_deploy_time = metrics.histogram(
            "core.orchestrator.deploy_time",
            "simulated seconds per successful deploy")
        self._m_protected_segments = metrics.counter(
            "core.orchestrator.protected_segments",
            "chain segments installed with a fast-failover backup")

    def netconf_client(self, container_name: str) -> NetconfClient:
        client = self._clients.get(container_name)
        if client is None:
            raise OrchestratorError("no NETCONF session to container %r"
                                    % container_name)
        return client

    # -- deployment -------------------------------------------------------

    def deploy(self, sg: ServiceGraph, mapper: Mapper,
               match: Optional[Match] = None,
               return_path: str = "direct") -> DeployedChain:
        """Map ``sg`` with ``mapper`` and realize it.

        ``match`` overrides the default chain flowspec (IP traffic from
        the source SAP's address to the sink SAP's); ``return_path`` is
        ``direct`` (steer replies along the shortest path, bypassing the
        chain), ``none``, or ``chain`` (reverse through the VNFs; the
        chain's VNFs must be bidirectional for this to carry traffic).
        """
        if sg.name in self.deployed:
            raise OrchestratorError("service %r already deployed" % sg.name)
        if return_path not in ("direct", "none", "chain"):
            raise OrchestratorError("bad return_path %r" % return_path)
        tracer = self.telemetry.tracer
        events = self.telemetry.events
        started_at = self.net.sim.now
        with tracer.span("orchestrator.deploy", service=sg.name,
                         mapper=mapper.name):
            self._m_map_calls.inc()
            mapper.bind(self.telemetry.metrics)
            with self.telemetry.profiler.profile("core.mapping.solve"), \
                    tracer.span("orchestrator.map", mapper=mapper.name):
                try:
                    mapping = mapper.map(sg, self.view)
                except MappingError as exc:
                    self._m_map_rejected.inc()
                    self._m_deploy_failures.inc()
                    events.error("core.orchestrator",
                                 "orchestrator.mapping_rejected",
                                 "%s: %s" % (sg.name, exc),
                                 service=sg.name, mapper=mapper.name)
                    raise
            if self.protection:
                with tracer.span("orchestrator.protect",
                                 service=sg.name):
                    compute_backup_paths(sg, mapping, self.view)
                    self._warn_unprotected(sg, mapping)
                    compute_backup_placement(sg, mapping, self.view,
                                             self.catalog)
            vnfs: Dict[str, DeployedVNF] = {}
            try:
                for vnf_name in sg.vnfs:
                    with tracer.span("orchestrator.start_vnf",
                                     vnf=vnf_name):
                        vnfs[vnf_name] = self._start_vnf(sg, mapping,
                                                         vnf_name)
                chain = DeployedChain(
                    self, sg, mapping, mapper, vnfs,
                    match if match is not None else self._default_match(sg))
                change = SteeringChange()
                kinds = ("seg", self._RETURN_ROUTES[return_path])
                for key in self._route_order(sg):
                    if key[0] in kinds:
                        chain.routes[key] = self._add_route(
                            change, chain, key,
                            partial(tracer.span,
                                    "orchestrator.install_segment",
                                    segment="%s->%s" % key[1:])
                            if key[0] == "seg" else None)
                self.steering.apply(change)
            except Exception as exc:
                self._m_deploy_failures.inc()
                events.error("core.orchestrator",
                             "orchestrator.deploy_failed",
                             "%s: %s" % (sg.name, exc), service=sg.name)
                self._rollback(sg, mapping, mapper, vnfs)
                raise
            self._count_protected(chain.path_ids)
        self.deployed[sg.name] = chain
        self._m_deploys.inc()
        self._m_deploy_time.observe(self.net.sim.now - started_at)
        events.info("core.orchestrator", "orchestrator.deployed",
                    "%s placed %s" % (
                        sg.name,
                        ", ".join("%s->%s" % item for item in
                                  sorted(mapping.vnf_placement.items()))),
                    service=sg.name, mapper=mapper.name)
        return chain

    # -- VNF lifecycle over NETCONF -------------------------------------------

    def _warn_unprotected(self, sg: ServiceGraph, mapping: Mapping) -> None:
        """Warn in the event log about every segment ``mapping``'s
        backup paths leave unprotected or under-protected."""
        events = self.telemetry.events
        for src, dst in mapping.link_paths:
            info = mapping.backup_info[(src, dst)]
            segment = "%s->%s" % (src, dst)
            reason = info.get("reason")
            shared = len(info.get("shared_edges", ()))
            if reason in ("no path", "no alternative"):
                events.warn("core.mapping", "protection.disabled",
                            "%s: no %s %s -> %s"
                            % (sg.name, "backup path" if reason == "no path"
                               else "disjoint alternative", src, dst),
                            chain=sg.name, segment=segment)
            elif shared:
                events.warn("core.mapping", "protection.degraded",
                            "%s: backup %s -> %s shares %d primary "
                            "edge(s)" % (sg.name, src, dst, shared),
                            chain=sg.name, segment=segment, shared=shared)

    def _start_vnf(self, sg: ServiceGraph, mapping: Mapping,
                   vnf_name: str) -> DeployedVNF:
        vnf = sg.vnfs[vnf_name]
        entry = self.catalog.get(vnf.vnf_type)
        container_name = mapping.vnf_placement[vnf_name]
        container = self.net.get(container_name)
        client = self.netconf_client(container_name)
        self._vnf_counter += 1
        vnf_id = "%s-%s-%d" % (sg.name, vnf_name, self._vnf_counter)
        cpu, mem = (vnf.cpu if vnf.cpu is not None else entry.cpu,
                    vnf.mem if vnf.mem is not None else entry.mem)
        config = entry.render(vnf.params)
        tracer = self.telemetry.tracer
        with tracer.span("netconf.rpc", op="startVNF",
                         container=container_name):
            client.rpc("startVNF", VNF_NS, {
                "id": vnf_id, "click-config": config,
                "devices": ",".join(entry.devices),
                "cpu": str(cpu), "mem": str(mem),
            }).result(self.net.sim)
        device_interfaces: Dict[str, str] = {}
        try:
            free = container.free_interfaces()
            for device in entry.devices:
                if not free:
                    raise OrchestratorError(
                        "container %r has no free interface for %s.%s"
                        % (container_name, vnf_name, device))
                intf_name = free.pop(0)
                with tracer.span("netconf.rpc", op="connectVNF",
                                 container=container_name):
                    client.rpc("connectVNF", VNF_NS, {
                        "id": vnf_id, "device": device,
                        "interface": intf_name,
                    }).result(self.net.sim)
                device_interfaces[device] = intf_name
        except Exception:
            # the VNF already runs: stop it so a failed deploy leaves
            # nothing behind (rollback only sees registered VNFs)
            self._stop_vnf(container_name, vnf_id, quiet=True)
            raise
        return DeployedVNF(vnf_name, vnf_id, container_name,
                           device_interfaces, cpu, mem)

    def _stop_vnf(self, container: str, vnf_id: str, timeout: float = 10.0,
                  quiet: bool = False) -> None:
        """``stopVNF`` over NETCONF; ``quiet`` ignores any failure."""
        try:
            self.netconf_client(container).rpc(
                "stopVNF", VNF_NS, {"id": vnf_id}).result(self.net.sim,
                                                          timeout)
        except Exception:
            if not quiet:
                raise

    # -- steering -------------------------------------------------------------

    def _default_match(self, sg: ServiceGraph) -> Match:
        source, sink = self._chain_endpoints(sg)
        src_host = self.net.get(source)
        dst_host = self.net.get(sink)
        return Match(dl_type=Ethernet.IP_TYPE, nw_src=src_host.ip,
                     nw_dst=dst_host.ip)

    def _chain_endpoints(self, sg: ServiceGraph) -> Tuple[str, str]:
        sources = [name for name in sg.saps
                   if sg.successors(name)
                   and not any(link.dst == name for link in sg.links)]
        sinks = [name for name in sg.saps
                 if not sg.successors(name)
                 and any(link.dst == name for link in sg.links)]
        if len(sources) != 1 or len(sinks) != 1:
            raise OrchestratorError(
                "cannot infer the chain flowspec (found %d source and %d "
                "sink SAPs); pass an explicit match" % (len(sources),
                                                        len(sinks)))
        return sources[0], sinks[0]

    def _ingress_device(self, entry_devices: List[str],
                        index: int = 0) -> str:
        ins = [dev for dev in entry_devices if dev.startswith("in")]
        return ins[index] if index < len(ins) else entry_devices[0]

    def _egress_device(self, entry_devices: List[str],
                       index: int = 0) -> str:
        outs = [dev for dev in entry_devices if dev.startswith("out")]
        if index < len(outs):
            return outs[index]
        raise OrchestratorError("VNF has no egress device #%d" % index)

    def _segment_hints(self, sg: ServiceGraph, vnfs: Dict[str, DeployedVNF],
                       src: str, dst: str
                       ) -> Tuple[Optional[str], Optional[str]]:
        """Interface names anchoring the segment ``src -> dst`` at
        container endpoints."""
        src_hint = None
        dst_hint = None
        if src in sg.vnfs:
            entry = self.catalog.get(sg.vnfs[src].vnf_type)
            # successive SG links out of one VNF use out0, out1, ...
            out_index = [l.dst for l in sg.links if l.src == src].index(dst)
            device = self._egress_device(entry.devices, out_index)
            src_hint = vnfs[src].device_interfaces[device]
        if dst in sg.vnfs:
            entry = self.catalog.get(sg.vnfs[dst].vnf_type)
            in_index = [l.src for l in sg.links if l.dst == dst].index(src)
            device = self._ingress_device(entry.devices, in_index)
            dst_hint = vnfs[dst].device_interfaces[device]
        return src_hint, dst_hint

    # the route kind each deploy(return_path=...) adds beside segments
    _RETURN_ROUTES = {"direct": "return", "chain": "rev", "none": None}

    @staticmethod
    def _route_order(sg: ServiceGraph) -> List[tuple]:
        """Every route key a chain of ``sg`` can have, in install order:
        its segments, the reverse segments, the direct return path."""
        return ([("seg", link.src, link.dst) for link in sg.links]
                + [("rev", link.src, link.dst)
                   for link in reversed(sg.links)]
                + [("return",)])

    def _add_route(self, change: SteeringChange, chain: DeployedChain,
                   key: tuple, within=None) -> Tuple[str, List[str]]:
        """Add the install of one of ``chain``'s routes to ``change``:
        a segment along its mapped path (protected by its backup path,
        if any), a reverse segment back along that path, or the direct
        return path along the view's shortest path, bypassing the
        chain.  Returns its path id and substrate node path."""
        sg, base = chain.sg, chain.base_match
        kind = key[0]
        backup = None
        if kind == "return":
            source, sink = self._chain_endpoints(sg)
            path = self.view.shortest_path(sink, source)
            if path is None:
                raise OrchestratorError("no return path %s -> %s"
                                        % (sink, source))
            hops = self._path_hops(path, None, None)
            label = "return"
        else:
            src, dst = key[1:]
            path = chain.mapping.link_paths[(src, dst)]
            src_hint, dst_hint = self._segment_hints(sg, chain.vnfs, src,
                                                     dst)
            if kind == "rev":
                path = path[::-1]
                hops = self._path_hops(path, dst_hint, src_hint)
                label = "rev/%s->%s" % (dst, src)
            else:
                hops = self._path_hops(path, src_hint, dst_hint)
                label = "%s->%s" % (src, dst)
                backup = (chain.mapping.backup_paths.get((src, dst))
                          if self.protection else None)
                if backup is not None:
                    backup = self._path_hops(backup, src_hint, dst_hint)
        self._path_counter += 1
        path_id = "%s/%s/%d" % (sg.name, label, self._path_counter)
        match = base if kind == "seg" else Match(  # replies: ends swapped
            dl_type=base.dl_type, nw_src=base.nw_dst, nw_dst=base.nw_src,
            nw_proto=base.nw_proto, tp_src=base.tp_dst, tp_dst=base.tp_src)
        change.install(path_id, hops, match, backup, within)
        return path_id, path

    def _count_protected(self, path_ids) -> None:
        count = len(set(path_ids) & set(self.steering.protected_paths()))
        if count:
            self._m_protected_segments.inc(count)

    def _path_hops(self, path: List[str], src_intf: Optional[str],
                   dst_intf: Optional[str]) -> List[PathHop]:
        """Turn a substrate node path into per-switch (in, out) hops."""
        hops: List[PathHop] = []
        for index in range(1, len(path) - 1):
            node = path[index]
            if self.view.kind(node) != ResourceView.SWITCH:
                continue  # paths may transit containers in odd topologies
            prev_name, next_name = path[index - 1], path[index + 1]
            in_hint = src_intf if index == 1 else None
            out_hint = dst_intf if index == len(path) - 2 else None
            in_port = self.ports.port(node, prev_name, in_hint)
            out_port = self.ports.port(node, next_name, out_hint)
            switch = self.net.get(node)
            hops.append(PathHop(switch.dpid, in_port, out_port))
        if not hops:
            raise OrchestratorError("path %r crosses no switch" % (path,))
        return hops

    # -- topology verification ------------------------------------------------

    def verify_topology(self, discovery) -> Dict[str, list]:
        """Run one LLDP probe round out of every switch-to-switch port
        and compare the adjacency it finds to the resource view.

        Returns ``{"missing": [...], "unexpected": [...]}`` — inter-
        switch links the view has but no probe crossed (down, or a
        switch not connected), and links the round found that the view
        lacks (miswired topology).  Empty lists mean the orchestrator's
        global network view matches reality.
        """
        name_of_dpid = {}
        for switch_name in self.view.switches():
            dpid = self.view.graph.nodes[switch_name].get("dpid")
            if dpid is not None:
                name_of_dpid[dpid] = switch_name
        discovered = set()
        for dpid1, _p1, dpid2, _p2 in discovery.discover(
                self.net.inter_switch_ports()):
            pair = frozenset((name_of_dpid.get(dpid1),
                              name_of_dpid.get(dpid2)))
            discovered.add(pair)
        expected = set()
        for node1, node2 in self.view.graph.edges():
            if self.view.kind(node1) == ResourceView.SWITCH \
                    and self.view.kind(node2) == ResourceView.SWITCH:
                expected.add(frozenset((node1, node2)))
        return {
            "missing": sorted(tuple(sorted(pair))
                              for pair in expected - discovered),
            "unexpected": sorted(tuple(sorted(str(x) for x in pair))
                                 for pair in discovered - expected),
        }

    # -- migration ------------------------------------------------------------

    def migrate_vnf(self, chain: DeployedChain, vnf_name: str,
                    target_container: str, force: bool = False) -> None:
        """Move a chain VNF to ``target_container`` and re-steer.

        The replacement instance starts on the target, the routes into
        and out of it are re-routed and re-steered (break-before-make,
        see :meth:`_resteer`), then the old instance stops.  Raises
        OrchestratorError when the target cannot host the VNF or no
        feasible re-route exists, SteeringError when the new routes
        would overwrite an entry; either leaves the old placement.

        ``force`` tolerates a failing stop of the old instance (its
        container crashed or its agent is unreachable) — the chain
        still moves over; the stranded instance is reaped when its
        container returns.
        """
        if not chain.active:
            raise OrchestratorError("chain %r is not active"
                                    % chain.sg.name)
        deployed = chain.vnfs.get(vnf_name)
        if deployed is None:
            raise OrchestratorError("chain has no VNF %r" % vnf_name)
        if target_container == deployed.container:
            return
        if target_container not in self.view.containers():
            raise OrchestratorError("no container %r" % target_container)
        sg = chain.sg
        cpu, mem, ports = chain.mapper.demand_of(sg, vnf_name)
        try:
            self.view.reserve_container(target_container, cpu, mem, ports)
        except ValueError as exc:
            raise OrchestratorError(str(exc))

        old_placement = chain.mapping.vnf_placement[vnf_name]
        chain.mapping.vnf_placement[vnf_name] = target_container
        new_deployed = None
        try:
            new_deployed = self._start_vnf(sg, chain.mapping, vnf_name)
            chain.vnfs[vnf_name] = new_deployed  # segments splice to it
            self._resteer(chain, self._routes_of_vnf(chain, vnf_name))
        except Exception:
            chain.mapping.vnf_placement[vnf_name] = old_placement
            chain.vnfs[vnf_name] = deployed
            if new_deployed is not None:
                self._stop_vnf(target_container, new_deployed.vnf_id,
                               quiet=True)
            self.view.release_container(target_container, cpu, mem,
                                        ports)
            raise

        # stop the old instance, release its resources
        try:
            # under force the old container is likely unreachable: use
            # a short deadline so failover doesn't stall on the timeout
            self._stop_vnf(deployed.container, deployed.vnf_id,
                           2.0 if force else 10.0)
        except Exception as exc:
            if not force:
                raise
            self.telemetry.events.warn(
                "core.orchestrator", "orchestrator.migrate_skip_stop",
                "%s/%s: old instance on %s not stopped (%s)"
                % (chain.sg.name, vnf_name, old_placement, exc),
                service=chain.sg.name, vnf=vnf_name,
                container=old_placement)
        self.view.release_container(old_placement, cpu, mem, ports)
        self._m_migrations.inc()
        self.telemetry.events.info(
            "core.orchestrator", "orchestrator.migrated",
            "%s/%s: %s -> %s" % (chain.sg.name, vnf_name, old_placement,
                                 target_container),
            service=chain.sg.name, vnf=vnf_name)

    def _resteer(self, chain: DeployedChain, keys) -> None:
        """Recompute ``keys`` of ``chain.routes`` under the chain's
        current placement and view, and re-steer them as one steering
        change: a segment takes a fresh path, a reverse segment follows
        its segment back, the direct return path takes the view's
        shortest path.

        The change removes the old routes before it installs the new
        ones: old and new routes can carry identical (match, in-port)
        entries on shared switches, which an add would replace and a
        delete would hit.  So this is break-before-make, and a frame
        reaching a switch between the two misses steering (ROADMAP.md,
        "consistent chain updates").  Nothing is sent, and the view and
        mapping are restored, when no re-route exists or the change is
        refused.
        """
        sg, mapping = chain.sg, chain.mapping
        keys = [key for key in self._route_order(sg) if key in keys]
        moved = {}  # SG link -> (new path, bandwidth, old path)
        try:
            for key in keys:
                if key[0] != "seg":
                    continue
                link = key[1:]
                src, dst = (chain.mapper._place_node(
                    sg, node, mapping.vnf_placement) for node in link)
                bandwidth = chain.mapper._link_bandwidth(sg, *link)
                old_path = mapping.link_paths[link]
                self.view.release_path_bandwidth(old_path, bandwidth)
                new_path = self.view.shortest_path(src, dst, bandwidth)
                if new_path is None:
                    self.view.reserve_path_bandwidth(old_path, bandwidth)
                    raise OrchestratorError(
                        "no feasible re-route %s -> %s" % (src, dst))
                self.view.reserve_path_bandwidth(new_path, bandwidth)
                moved[link] = (new_path, bandwidth, old_path)
                mapping.link_paths[link] = new_path
            change = SteeringChange().remove(
                *(chain.routes[key][0] for key in keys))
            notes = None
            if self.protection and moved:
                # re-provision backups against the updated view (the
                # old ones may traverse the edge that just died); the
                # gaps are logged once the old segments are gone
                compute_backup_paths(sg, mapping, self.view)
                notes = partial(self._noting_unprotected, sg, mapping)
            routes = {key: self._add_route(
                change, chain, key, notes if key == keys[0] else None)
                for key in keys}
            self.steering.apply(change)
        except Exception:
            for link, (new_path, bandwidth, old_path) in moved.items():
                self.view.release_path_bandwidth(new_path, bandwidth)
                self.view.reserve_path_bandwidth(old_path, bandwidth)
                mapping.link_paths[link] = old_path
            raise
        for key, route in routes.items():
            del chain.routes[key]  # re-steered routes move to the end
            chain.routes[key] = route
        self._count_protected(path_id for path_id, _path in routes.values())

    @contextmanager
    def _noting_unprotected(self, sg: ServiceGraph, mapping: Mapping):
        self._warn_unprotected(sg, mapping)
        yield

    # -- resilience (driven by repro.core.recovery) ---------------------------

    def restart_vnf(self, chain: DeployedChain, vnf_name: str) -> None:
        """Replace a crashed VNF instance in place (same container).

        Best-effort reap of the crashed instance first (``stopVNF``
        frees the budget the zombie still holds), then a fresh start
        from the catalog and a re-steer of the routes touching it —
        the replacement may splice to different container interfaces.
        The resource view is untouched: placement does not change.
        """
        if not chain.active:
            raise OrchestratorError("chain %r is not active"
                                    % chain.sg.name)
        deployed = chain.vnfs.get(vnf_name)
        if deployed is None:
            raise OrchestratorError("chain has no VNF %r" % vnf_name)
        # may fail: already reaped, or raced with a container outage
        self._stop_vnf(deployed.container, deployed.vnf_id, quiet=True)
        new_deployed = self._start_vnf(chain.sg, chain.mapping, vnf_name)
        chain.vnfs[vnf_name] = new_deployed
        self._resteer(chain, self._routes_of_vnf(chain, vnf_name))
        self._m_restarts.inc()
        self.telemetry.events.info(
            "core.orchestrator", "orchestrator.restarted",
            "%s/%s: %s -> %s on %s" % (
                chain.sg.name, vnf_name, deployed.vnf_id,
                new_deployed.vnf_id, deployed.container),
            service=chain.sg.name, vnf=vnf_name,
            container=deployed.container)

    @staticmethod
    def _routes_of_vnf(chain: DeployedChain, vnf_name: str) -> List[tuple]:
        """The keys of ``chain``'s routes into or out of ``vnf_name``."""
        return [key for key in chain.routes if vnf_name in key[1:]]

    @staticmethod
    def _routes_over_edge(chain: DeployedChain, edge: frozenset
                          ) -> List[tuple]:
        """The keys of ``chain``'s routes whose node path crosses the
        substrate edge ``edge``."""
        return [key for key, (_path_id, path) in chain.routes.items()
                if any(frozenset(pair) == edge
                       for pair in zip(path, path[1:]))]

    def chains_over_edge(self, node1: str, node2: str) -> List[str]:
        """Names of deployed chains with a route over substrate edge
        ``node1 -- node2``."""
        edge = frozenset((node1, node2))
        return sorted(chain.sg.name for chain in self.deployed.values()
                      if self._routes_over_edge(chain, edge))

    def reroute_chains_for_edge(self, node1: str, node2: str) -> List[str]:
        """Re-route every deployed chain with a route over substrate
        edge ``node1 -- node2`` (just marked down in the resource view).

        Returns the names of the chains that were re-steered.  Raises
        OrchestratorError when some route has no feasible detour —
        callers decide whether to retry (e.g. after the link heals).
        """
        edge = frozenset((node1, node2))
        rerouted: List[str] = []
        for chain in list(self.deployed.values()):
            keys = self._routes_over_edge(chain, edge)
            if not keys:
                continue
            self._resteer(chain, keys)
            rerouted.append(chain.sg.name)
            self.telemetry.events.info(
                "core.orchestrator", "orchestrator.rerouted",
                "%s re-steered around %s--%s" % (chain.sg.name,
                                                 node1, node2),
                service=chain.sg.name, edge="%s--%s" % (node1, node2))
        return rerouted

    # -- teardown -------------------------------------------------------------

    def _rollback(self, sg: ServiceGraph, mapping: Mapping, mapper: Mapper,
                  vnfs: Dict[str, DeployedVNF]) -> None:
        """Undo a failed deploy: stop its VNFs, release its mapping.  A
        deploy's steering is one change, applied last, so a failure
        left none behind."""
        for deployed in vnfs.values():
            self._stop_vnf(deployed.container, deployed.vnf_id, quiet=True)
        mapper.release(mapping, self.view)

    def _undeploy(self, chain: DeployedChain) -> None:
        self.steering.apply(SteeringChange().remove(*chain.path_ids))
        for deployed in chain.vnfs.values():
            self._stop_vnf(deployed.container, deployed.vnf_id)
        chain.mapper.release(chain.mapping, self.view)
        self.deployed.pop(chain.sg.name, None)
        self.telemetry.events.info("core.orchestrator",
                                   "orchestrator.undeployed",
                                   chain.sg.name, service=chain.sg.name)

    def __repr__(self) -> str:
        return "Orchestrator(%d chains deployed)" % len(self.deployed)
