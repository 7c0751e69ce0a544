"""The ESCAPE facade: all three UNIFY layers in one object (Fig. 1).

Construction wires, bottom-up:

* **infrastructure layer** — the emulated network (hosts, OpenFlow
  switches, VNF containers) plus a NETCONF agent per container on a
  dedicated control channel,
* **orchestration layer** — the POX-analog controller (learning switch
  fallback, on-demand LLDP discovery, traffic steering) and the
  Orchestrator with its pluggable mapping algorithms and per-container
  NETCONF clients,
* **service layer** — the catalog-backed service API with SLA checks.

Typical use::

    from repro.core import ESCAPE
    from repro.core.sgfile import load_topology, load_service_graph

    escape = ESCAPE.from_topology(load_topology(topo_json))
    escape.start()
    chain = escape.deploy_service(load_service_graph(sg_json))
    escape.run(2.0)
    print(chain.read_handler("fw", "fw.passed"))
"""

from typing import Dict, Optional, Union

from repro.core.catalog import default_catalog
from repro.core.mapping import (BacktrackingMapper, CongestionAwareMapper,
                                GreedyMapper, Mapper,
                                ShortestPathMapper)
from repro.core.monitor import VNFMonitor
from repro.core.nffg import ServiceGraph
from repro.core.orchestrator import DeployedChain, Orchestrator
from repro.core.recovery import RecoveryManager
from repro.core.sgfile import load_service_graph
from repro.core.sla import SLAMonitor
from repro.netconf import NetconfClient, TransportPair, VNFAgent
from repro.netem import CLI, FlightRecorder, Network, Topo
from repro.openflow import Match
from repro.pox import (Core, Discovery, L2LearningSwitch, OpenFlowNexus,
                       StatsCollector, TrafficSteering)
from repro.sim import Simulator
from repro.telemetry import to_json, to_prometheus, write_snapshot
from repro.telemetry.metrics import nearest_rank


class ESCAPE:
    """The prototyping framework, fully assembled."""

    STARTUP_SETTLE = 0.1  # simulated seconds for the OF handshakes
    CONTROL_LATENCY = 0.001  # one-way seconds on the management network

    def __init__(self, topo: Topo, control_network: str = "outband",
                 of_wire: bool = False,
                 protection: bool = False):
        """Demo step (1): containers + the rest of the topology."""
        net = self.net = Network.build(topo)
        # proactive chain protection: precomputed backup paths behind
        # fast-failover groups (see Orchestrator)
        self.protection = protection
        net.serialize_openflow = of_wire
        self.sim: Simulator = net.sim
        # one telemetry bundle per emulation, owned by the simulator:
        # the substrate built before this facade and every layer
        # constructed below read their instruments from the same sim
        self.telemetry = self.sim.telemetry
        self.catalog = default_catalog()

        # orchestration layer: controller platform
        self.core = Core(self.sim)
        self.nexus = OpenFlowNexus(self.core)
        self.l2_learning = L2LearningSwitch(self.nexus)
        self.discovery = Discovery(self.nexus)
        self.steering = TrafficSteering(self.nexus)
        self.stats = StatsCollector(self.nexus)
        self.core.register("openflow", self.nexus)
        self.core.register("stats", self.stats)
        self.core.register("l2_learning", self.l2_learning)
        self.core.register("discovery", self.discovery)
        self.core.register("steering", self.steering)
        net.add_controller(self.nexus)

        # infrastructure layer management plane: one NETCONF agent +
        # client per container over the dedicated control network.
        # "outband": in-memory latency-modelled pipes (the default).
        # "inband": an emulated hub network carrying the management
        # frames ("the establishment of dedicated control network is
        # also possible where the management agents of the VNFs are
        # connected", §2 of the paper).
        if control_network not in ("outband", "inband"):
            raise ValueError("control_network must be outband or inband")
        self.control_network = control_network
        self.agents: Dict[str, VNFAgent] = {}
        self.netconf_clients: Dict[str, NetconfClient] = {}
        if control_network == "inband":
            self._build_inband_control_network()
        else:
            for container in net.vnf_containers():
                self.netconf_clients[container.name] = NetconfClient(
                    self._outband_dial(container),
                    default_timeout=self.RPC_TIMEOUT)

        # orchestrator + service layer
        self._finish_init(net)

    RPC_TIMEOUT = 10.0  # per-RPC deadline on every NETCONF session

    def _outband_dial(self, container):
        """Control pipe to ``container``: a new transport pair with the
        container's agent on the server end."""
        pair = TransportPair(self.sim, latency=self.CONTROL_LATENCY)
        self.agents[container.name] = VNFAgent(container, pair.server)
        return pair.client

    def _build_inband_control_network(self) -> None:
        """Hang every container's management interface (and one
        orchestrator-side interface per agent) off a dedicated hub."""
        from repro.netconf.ethtransport import EthTransport
        from repro.netem.node import Node as PlainNode
        self.mgmt_hub = self.net.add_hub("mgmt0")
        self.mgmt_node = self.net.add_node(
            PlainNode("orchestrator-mgmt", self.sim))
        for container in self.net.vnf_containers():
            orch_link = self.net.add_link(self.mgmt_node, self.mgmt_hub,
                                          delay=self.CONTROL_LATENCY / 2)
            agent_link = self.net.add_link(container, self.mgmt_hub,
                                           delay=self.CONTROL_LATENCY / 2)
            orch_intf = (orch_link.intf1
                         if orch_link.intf1.node is self.mgmt_node
                         else orch_link.intf2)
            agent_intf = (agent_link.intf1
                          if agent_link.intf1.node is container
                          else agent_link.intf2)
            container.set_mgmt_interface(agent_intf)
            agent_transport = EthTransport(agent_intf, orch_intf.mac)
            client_transport = EthTransport(orch_intf, agent_intf.mac)
            self.agents[container.name] = VNFAgent(container,
                                                   agent_transport)
            self.netconf_clients[container.name] = NetconfClient(
                client_transport, default_timeout=self.RPC_TIMEOUT)

    def _finish_init(self, net: Network) -> None:
        self.orchestrator = Orchestrator(net, self.steering, self.catalog,
                                         self.netconf_clients,
                                         protection=self.protection)
        self.mappers: Dict[str, Mapper] = {
            "greedy": GreedyMapper(self.catalog),
            "shortest-path": ShortestPathMapper(self.catalog),
            "backtracking": BacktrackingMapper(self.catalog),
            "congestion-aware": CongestionAwareMapper(self.catalog),
        }
        self.recorder = FlightRecorder(net)
        self.recovery = RecoveryManager(
            self.orchestrator, net,
            protection=self.orchestrator.protection)
        self._m_service_deploys = self.telemetry.metrics.counter(
            "service.layer.deploys", "service requests submitted")
        self.telemetry.metrics.add_collector(self._collect_metrics)
        self._last_deploy = None
        self.started = self.stopped = False

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: pull the hot-path plain-int counters
        of all three layers into registry gauges (zero per-event cost)."""
        datapaths = [switch.datapath for switch in self.net.switches()]

        def total(attr: str) -> int:
            return sum(getattr(dp, attr) for dp in datapaths)

        registry.gauge("openflow.switch.packet_ins").set(
            total("packet_in_count"))
        registry.gauge("openflow.switch.flow_mods").set(
            total("flow_mod_count"))
        registry.gauge("openflow.switch.forwarded").set(
            total("forwarded_count"))
        registry.gauge("openflow.switch.dropped").set(
            total("dropped_count"))
        registry.gauge("openflow.switch.table_hits").set(
            total("table_hit_count"))
        registry.gauge("openflow.switch.table_misses").set(
            total("table_miss_count"))
        registry.gauge("openflow.switch.flow_entries").set(
            sum(len(dp.table) for dp in datapaths))
        registry.gauge("openflow.switch.group_mods").set(
            total("group_mod_count"))
        registry.gauge("openflow.switch.group_flips").set(
            total("group_flip_count"))
        registry.gauge("openflow.switch.group_entries").set(
            sum(len(dp.groups) for dp in datapaths))
        frames = self.sim.frames
        for name in ("parsed", "known", "resets"):
            registry.gauge("dataplane.frames." + name).set(
                getattr(frames, name))
        link_stats = self.net.link_stats()
        registry.gauge("netem.link.delivered").set(
            link_stats["delivered"])
        registry.gauge("netem.link.dropped").set(link_stats["dropped"])
        registry.gauge("netem.link.dropped_down").set(
            link_stats["dropped_down"])
        registry.gauge("netem.link.dropped_loss").set(
            link_stats["dropped_loss"])
        registry.gauge("netem.link.dropped_queue").set(
            link_stats["dropped_queue"])
        registry.gauge("netem.link.delivered_bytes").set(
            link_stats["delivered_bytes"])
        registry.gauge("netem.link.max_utilization").set(
            link_stats["max_utilization"])
        pushes = pulls = running = 0
        for container in self.net.vnf_containers():
            for process in container.vnfs.values():
                running += 1
                counts = process.router.transfer_counts()
                pushes += counts[0]
                pulls += counts[1]
        registry.gauge("click.element.pushes").set(pushes)
        registry.gauge("click.element.pulls").set(pulls)
        registry.gauge("netem.container.running_vnfs").set(running)
        registry.gauge("sim.heap.depth",
                       "events pending in the scheduler heap").set(
            self.sim.heap_depth)
        registry.gauge("sim.events.scheduled",
                       "events scheduled since simulator start").set(
            self.sim.scheduled)
        registry.gauge("sim.events.dispatched",
                       "callbacks executed since simulator start").set(
            self.sim.processed)
        registry.gauge("sim.events.cancelled_popped",
                       "cancelled events discarded by the loop").set(
            self.sim.cancelled_popped)
        registry.gauge("sim.events.wakeups",
                       "pull-driver activations armed event-driven "
                       "(notifier edges, hint/credit shots)").set(
            self.sim.wakeups)
        registry.gauge("sim.events.pending",
                       "not-cancelled events queued (O(1) live "
                       "counter)").set(self.sim.pending)
        registry.gauge("sim.heap.compactions",
                       "dead-entry heap compactions performed").set(
            self.sim.compactions)

    #: the constructor, under the name every demo script builds through
    from_topology = classmethod(type.__call__)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Bring the framework up: OF handshakes, NETCONF hellos."""
        if self.started:
            return
        if self.stopped:
            raise RuntimeError("a stopped emulation is unwired: build a "
                               "new ESCAPE")
        self.net.static_arp()
        self.net.start()
        self.net.run(self.STARTUP_SETTLE)
        # the OF handshake must complete before guards/steering can be
        # installed
        switches = len(self.net.switches())
        if not self.sim.wait(
                lambda: len(self.nexus.connections) >= switches, 5.0):
            raise RuntimeError("OpenFlow handshake did not complete")
        for client in self.netconf_clients.values():
            client.wait_connected()
        self._install_container_port_guards()
        self.net.run(0.01)  # let the guard flow-mods land
        self.started = True

    GUARD_PRIORITY = 0x3000  # above l2_learning, below steering

    def _install_container_port_guards(self) -> None:
        """Drop non-steered traffic entering from VNF-container ports.

        Learning-switch flooding copies frames into container ports;
        bump-in-the-wire VNFs would forward them back, and two VNFs on
        different switches turn that into a broadcast storm.  Container
        ports are not part of the L2 learning domain: anything a VNF
        emits either matches a steering entry (higher priority) or is
        chain-internal leakage to drop.
        """
        from repro.netem.node import Switch
        from repro.netem.vnf import VNFContainer
        from repro.openflow import FlowMod, Match
        for link in self.net.links:
            for intf, peer in ((link.intf1, link.intf2),
                               (link.intf2, link.intf1)):
                if not isinstance(intf.node, Switch):
                    continue
                if not isinstance(peer.node, VNFContainer):
                    continue
                switch = intf.node
                port_no = switch.port_number(intf)
                self.nexus.send(switch.dpid, FlowMod(
                    Match(in_port=port_no), actions=[],
                    priority=self.GUARD_PRIORITY))

    def stop(self) -> None:
        """Tear the framework down (the emulator's ``mn -c``): what it
        started stops and leaves no event on the heap.  Host traffic
        sources (``Host.start_udp_flow``) and armed chaos engines belong
        to whoever started them and are *not* stopped — run past the
        flow's end and the scenario's last heal first when an empty
        heap matters."""
        self.recorder.detach_all()
        chains = list(self.orchestrator.deployed.values())
        for chain in chains:
            chain.undeploy()  # stops the chain's SLA monitor first
        if chains:
            self.net.run(0.01)  # let the teardown flow-mods land
        self.net.stop()
        self.sim.frames.clear()
        self._unbind()
        self.started = False
        self.stopped = True

    def _unbind(self) -> None:
        """Break what building the emulation bound: snapshot
        collectors, the event subscription, the controller's components
        and the management sessions.  With the network's wiring (see
        ``Network.stop``) and the heap's dead entries gone too, a
        stopped emulation is freed by reference counting.  The gauges
        keep the values collected here."""
        metrics = self.telemetry.metrics
        metrics.collect()
        metrics.remove_collector(self._collect_metrics)
        metrics.remove_collector(self.recorder._collect)
        self.telemetry.events.unsubscribe(self.recovery._on_event)
        self.core.shutdown()
        self.nexus.connections.clear()  # the switches hung up
        for client in self.netconf_clients.values():
            client.transport.hang_up()
        for agent in self.agents.values():
            agent.server.hang_up()
        self.sim.compact()

    def run(self, duration: float) -> None:
        """Advance simulated time."""
        self.net.run(duration)

    # -- service layer API ----------------------------------------------------

    def add_mapper(self, name: str, mapper: Mapper) -> None:
        """Plug in a custom mapping algorithm."""
        self.mappers[name] = mapper

    def deploy_service(self, sg: Union[ServiceGraph, dict, str],
                       mapper: Union[str, Mapper] = "shortest-path",
                       match: Optional[Match] = None,
                       return_path: str = "direct") -> DeployedChain:
        """Demo steps (2)+(3): take an SG and map+deploy it."""
        if not self.started:
            raise RuntimeError("call start() before deploying services")
        tracer = self.telemetry.tracer
        with tracer.span("service.deploy") as root:
            self._last_deploy = root
            with tracer.span("service.parse_sg"):
                if not isinstance(sg, ServiceGraph):
                    sg = load_service_graph(sg)
            root.tags["service"] = sg.name
            if isinstance(mapper, str):
                if mapper not in self.mappers:
                    raise KeyError(
                        "unknown mapper %r (have: %s)"
                        % (mapper, ", ".join(sorted(self.mappers))))
                mapper = self.mappers[mapper]
            self._m_service_deploys.inc()
            chain = self.orchestrator.deploy(sg, mapper, match=match,
                                             return_path=return_path)
        if sg.requirements:  # a chain with an SLA is watched from birth
            self.watch_sla(chain)
        return chain

    def terminate_service(self, name: str) -> None:
        chain = self.orchestrator.deployed.get(name)
        if chain is None:
            raise KeyError("no deployed service %r" % name)
        chain.undeploy()

    def inject_chaos(self, scenario) -> "ChaosEngine":
        """Arm a chaos scenario (a :class:`~repro.chaos.ChaosScenario`,
        a dict, a JSON string, or a file path) against this instance.
        Faults fire as the simulation advances; the recovery manager
        repairs what they break.  The returned engine is the caller's:
        ``engine.heal_all()`` heals what is still active."""
        from repro.chaos import ChaosEngine, ChaosScenario
        if not isinstance(scenario, ChaosScenario):
            scenario = ChaosScenario.load(scenario)
        return ChaosEngine(self, scenario).arm()

    def monitor(self, chain: DeployedChain,
                interval: float = 0.5) -> VNFMonitor:
        """Demo step (5): a Clicky-style monitor on a running chain."""
        monitor = VNFMonitor(chain, interval=interval)
        monitor.watch_catalog_defaults()
        return monitor

    def watch_sla(self, chain: DeployedChain) -> SLAMonitor:
        """Start (or return the running) SLA conformance monitor for a
        deployed chain carrying NFFG requirements; the monitor hangs
        off the chain and stops when the chain is torn down."""
        monitor = chain.sla_monitor
        if monitor is None or not monitor.running:
            monitor = chain.sla_monitor = SLAMonitor(chain)
            monitor.start()
        return monitor

    @property
    def sla_monitors(self) -> Dict[str, SLAMonitor]:
        """The SLA monitors of the deployed chains, by chain name (a
        view over ``orchestrator.deployed``, built on each read)."""
        return {name: chain.sla_monitor for name, chain
                in self.orchestrator.deployed.items()
                if chain.sla_monitor is not None}

    # -- summaries (health() and the scenario bundle) -------------------------

    def sla_summary(self) -> dict:
        """Per-chain SLA state, breach/violation counts and the overall
        violation ratio."""
        per_chain = {}
        total_rounds = 0
        breach_rounds = 0
        for name, monitor in sorted(self.sla_monitors.items()):
            breaches = self.telemetry.metrics.get(
                "sla.breaches", labels={"chain": name})
            lost = self.telemetry.metrics.get(
                "sla.probes_lost", labels={"chain": name})
            breached = int(breaches.value) if breaches is not None else 0
            violations = sum(1 for _t, _old, new in monitor.transitions
                             if new == "VIOLATED")
            per_chain[name] = {
                "state": monitor.state,
                "rounds": monitor.rounds,
                "breach_rounds": breached,
                "violations": violations,
                "probes_lost": int(lost.value) if lost is not None else 0,
                "transitions": [list(item)
                                for item in monitor.transitions],
            }
            total_rounds += monitor.rounds
            breach_rounds += breached
        return {
            "per_chain": per_chain,
            "monitored_chains": len(per_chain),
            "rounds": total_rounds,
            "breach_rounds": breach_rounds,
            "violation_ratio": (breach_rounds / total_rounds
                                if total_rounds else 0.0),
        }

    def recovery_summary(self) -> dict:
        """The recovery manager's actions, MTTR statistics and the
        chains it left unrecovered or pending."""
        actions = [dict(action) for action in self.recovery.actions]
        mttrs = [action["mttr"] for action in actions
                 if action.get("ok") and action.get("mttr") is not None]
        return {
            "actions": actions,
            "repairs": sum(1 for action in actions if action.get("ok")),
            "gave_up": sum(1 for action in actions
                           if not action.get("ok")),
            "flips": sum(1 for action in actions
                         if action.get("kind") == "flip"),
            "mttr_avg": (sum(mttrs) / len(mttrs)) if mttrs else None,
            "mttr_p50": nearest_rank(mttrs, 50),
            "mttr_p90": nearest_rank(mttrs, 90),
            "mttr_max": max(mttrs) if mttrs else None,
            "unrecovered": self.recovery.unrecovered(),
            "pending": ["%s/%s" % key for key in self.recovery.pending()],
        }

    def protection_summary(self) -> dict:
        """Fast-failover state: enabled flag, protected path count and
        dataplane bucket flips."""
        return {
            "enabled": self.orchestrator.protection,
            "protected_paths": len(self.steering.protected_paths()),
            "flips": sum(switch.datapath.group_flip_count
                         for switch in self.net.switches()),
        }

    def health(self) -> dict:
        """One-look operational summary: deployed services, the
        bundle's SLA / recovery / protection sections, recent
        WARN/ERROR events, per-cause link drop attribution and
        flight-recorder occupancy."""
        from repro.telemetry import WARN as EV_WARN
        alerts = [event.to_dict() for event in
                  self.telemetry.events.query(min_severity=EV_WARN,
                                              limit=20)]
        return {
            "time": self.sim.now,
            "services": {name: chain.active for name, chain
                         in self.orchestrator.deployed.items()},
            "sla": self.sla_summary(),
            "alerts": alerts,
            "links": self.net.link_stats(),
            "flowtrace": self.telemetry.flowtrace.status(),
            "recorder": self.recorder.status(),
            "recovery": self.recovery_summary(),
            "protection": self.protection_summary(),
        }

    def status(self) -> dict:
        """Structured snapshot of the whole framework: the "real-time
        management information" the paper's orchestration layer exposes.
        """
        services = {}
        for name, chain in self.orchestrator.deployed.items():
            services[name] = {
                "active": chain.active,
                "mapper": chain.mapper.name,
                "placement": dict(chain.mapping.vnf_placement),
                "paths": len(chain.path_ids),
            }
        containers = {}
        for container in self.net.vnf_containers():
            snapshot = container.budget.snapshot()
            containers[container.name] = {
                "vnfs": sorted(container.vnfs),
                "cpu_used": snapshot["cpu_used"],
                "cpu_capacity": snapshot["cpu_capacity"],
                "mem_used": snapshot["mem_used"],
                "mem_capacity": snapshot["mem_capacity"],
                "free_interfaces": len(container.free_interfaces()),
            }
        switches = {}
        for switch in self.net.switches():
            switches[switch.name] = {
                "dpid": switch.dpid,
                "connected": switch.dpid in self.nexus.connections,
                "flows": len(switch.datapath.table),
                "packet_ins": switch.datapath.packet_in_count,
                "forwarded": switch.datapath.forwarded_count,
            }
        return {
            "time": self.sim.now,
            "started": self.started,
            "services": services,
            "containers": containers,
            "switches": switches,
            "steering_paths": len(self.steering.paths),
        }

    # -- telemetry ------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The unified metrics snapshot (all three layers)."""
        return self.telemetry.metrics.snapshot()

    def export_metrics(self, fmt: str = "json",
                       path: Optional[str] = None) -> str:
        """Serialize the telemetry snapshot as ``json`` or ``prom``
        text; optionally write it to ``path``.  Returns the text."""
        if path is not None:
            return write_snapshot(path, self.telemetry.metrics,
                                  self.telemetry.tracer, fmt=fmt,
                                  events=self.telemetry.events)
        if fmt == "json":
            return to_json(self.telemetry.metrics, self.telemetry.tracer,
                           events=self.telemetry.events)
        if fmt in ("prom", "prometheus"):
            return to_prometheus(self.telemetry.metrics)
        raise ValueError("unknown export format %r (json or prom)" % fmt)

    def last_trace(self):
        """The trace tree (root Span) of the most recent
        :meth:`deploy_service`, or None.  It is kept here, not looked up
        in the tracer's ring, which SLA probes and recoveries refill."""
        return self._last_deploy

    @property
    def profiler(self):
        """The scoped-region wall-clock profiler (off by default)."""
        return self.telemetry.profiler

    @property
    def flowtrace(self):
        """Sampled per-packet path tracing (off by default; see
        :mod:`repro.telemetry.flowtrace`)."""
        return self.telemetry.flowtrace

    def cli(self) -> CLI:
        """The interactive console: Mininet-style network commands plus
        ESCAPE service commands (services / deploy / undeploy / migrate
        / topology / catalog / status / metrics / trace) and the
        observability commands (health / sla / events / record).
        Profiling, flow tracing and faults are switched on by the
        scenario file (``profile:``, ``flowtrace:``, ``chaos:``) and
        read back with ``escape perf report`` / ``escape flowtrace``, or
        driven here through :attr:`profiler`, :attr:`flowtrace` and
        :meth:`inject_chaos`."""
        console = CLI(self.net)
        console.commands.update({
            "services": self._cli_services,
            "deploy": self._cli_deploy,
            "undeploy": self._cli_undeploy,
            "migrate": self._cli_migrate,
            "topology": self._cli_topology,
            "catalog": self._cli_catalog,
            "status": self._cli_status,
            "metrics": self._cli_metrics,
            "trace": self._cli_trace,
            "health": self._cli_health,
            "sla": self._cli_sla,
            "events": self._cli_events,
            "record": self._cli_record,
        })
        return console

    # -- CLI command handlers -------------------------------------------------

    def _cli_services(self, args) -> str:
        if not self.orchestrator.deployed:
            return "no services deployed"
        lines = []
        for name, chain in sorted(self.orchestrator.deployed.items()):
            placement = ", ".join("%s->%s" % item for item
                                  in chain.mapping.vnf_placement.items())
            lines.append("%s: %s [%s]"
                         % (name, placement,
                            "active" if chain.active else "down"))
        return "\n".join(lines)

    def _cli_deploy(self, args) -> str:
        if len(args) < 1:
            return ("usage: deploy <sg.json path> [mapper]\n"
                    "       (a JSON service-graph description file)")
        with open(args[0]) as handle:
            sg = load_service_graph(handle.read())
        mapper = args[1] if len(args) > 1 else "shortest-path"
        chain = self.deploy_service(sg, mapper=mapper)
        return "deployed %s: %r" % (sg.name, chain.mapping.vnf_placement)

    def _cli_undeploy(self, args) -> str:
        if len(args) != 1:
            return "usage: undeploy <service-name>"
        self.terminate_service(args[0])
        return "undeployed %s" % args[0]

    def _cli_migrate(self, args) -> str:
        if len(args) != 3:
            return "usage: migrate <service-name> <vnf> <container>"
        chain = self.orchestrator.deployed.get(args[0])
        if chain is None:
            return "*** no service %r" % args[0]
        chain.migrate(args[1], args[2])
        return "migrated %s/%s to %s" % (args[0], args[1], args[2])

    def _cli_topology(self, args) -> str:
        report = self.orchestrator.verify_topology(self.discovery)
        if not report["missing"] and not report["unexpected"]:
            return "topology verified: view matches discovery"
        lines = []
        for pair in report["missing"]:
            lines.append("MISSING   %s -- %s (in view, not discovered)"
                         % pair)
        for pair in report["unexpected"]:
            lines.append("UNEXPECTED %s -- %s (discovered, not in view)"
                         % pair)
        return "\n".join(lines)

    def _cli_status(self, args) -> str:
        import json
        return json.dumps(self.status(), indent=2, sort_keys=True)

    def _cli_metrics(self, args) -> str:
        fmt = args[0] if args else "json"
        if fmt not in ("json", "prom", "prometheus"):
            return "usage: metrics [json|prom] [output-file]"
        path = args[1] if len(args) > 1 else None
        text = self.export_metrics(fmt, path)
        if path is not None:
            return "wrote %s snapshot to %s" % (fmt, path)
        return text

    def _cli_trace(self, args) -> str:
        trace = self.last_trace()
        if trace is None:
            return "no deployment trace recorded yet"
        return trace.render()

    def _cli_health(self, args) -> str:
        health = self.health()
        lines = ["t=%.3f  %d service(s)" % (health["time"],
                                            len(health["services"]))]
        for name, active in sorted(health["services"].items()):
            sla = health["sla"]["per_chain"].get(name)
            sla_text = sla["state"] if sla else "unmonitored"
            lines.append("  %-20s %-8s sla=%s"
                         % (name, "active" if active else "down",
                            sla_text))
        if health["alerts"]:
            lines.append("recent alerts:")
            for alert in health["alerts"][-5:]:
                lines.append("  %.3f %-5s %s %s"
                             % (alert["time"], alert["severity"],
                                alert["name"], alert["message"]))
        else:
            lines.append("no WARN/ERROR events recorded")
        links = health["links"]
        lines.append("links: %d delivered, drops: down=%d loss=%d "
                     "queue=%d"
                     % (links["delivered"], links["dropped_down"],
                        links["dropped_loss"], links["dropped_queue"]))
        flowtrace = health["flowtrace"]
        if flowtrace["enabled"]:
            lines.append("flowtrace: 1/%d sampling, %d trace(s), "
                         "%d postcard(s)"
                         % (flowtrace["rate"], flowtrace["traces"],
                            flowtrace["postcards"]))
        taps = health["recorder"]
        lines.append("flight recorder: %d tap(s)" % len(taps))
        return "\n".join(lines)

    def _cli_sla(self, args) -> str:
        if args:
            monitor = self.sla_monitors.get(args[0])
            if monitor is None:
                return "*** no SLA monitor for %r" % args[0]
            return monitor.render()
        if not self.sla_monitors:
            return ("no SLA monitors running (deploy a service graph "
                    "with requirements)")
        return "\n".join(monitor.render() for _name, monitor
                         in sorted(self.sla_monitors.items()))

    def _cli_events(self, args) -> str:
        from repro.telemetry import SEVERITIES
        if args and args[0] == "jsonl":
            if len(args) != 2:
                return "usage: events jsonl <output-file>"
            count = self.telemetry.events.write_jsonl(args[1])
            return "wrote %d events to %s" % (count, args[1])
        from repro.telemetry import DEBUG as EV_DEBUG
        min_severity = EV_DEBUG
        limit = 20
        rest = list(args)
        if rest and rest[0].upper() in SEVERITIES:
            min_severity = rest.pop(0).upper()
        if rest:
            try:
                limit = int(rest[0])
            except ValueError:
                return "usage: events [debug|info|warn|error] [limit]"
        selected = self.telemetry.events.query(min_severity=min_severity,
                                               limit=limit)
        if not selected:
            return "no events recorded"
        return "\n".join(event.render() for event in selected)

    def _cli_record(self, args) -> str:
        recorder = self.recorder
        if not args or args[0] in ("list", "status"):
            return recorder.render()
        command, rest = args[0], args[1:]
        if command == "start":
            if len(rest) == 1:
                tap = recorder.attach(rest[0])
                return "recording %s" % tap.label
            if len(rest) == 2:
                links = self.net.links_between(rest[0], rest[1])
                if not links:
                    return "*** no link between %r and %r" % (rest[0],
                                                              rest[1])
                taps = [recorder.attach(link) for link in links]
                return "recording %s" % ", ".join(tap.label
                                                  for tap in taps)
            return "usage: record start <link-name> | <node1> <node2>"
        if command == "chain":
            if len(rest) != 1:
                return "usage: record chain <service-name>"
            chain = self.orchestrator.deployed.get(rest[0])
            if chain is None:
                return "*** no service %r" % rest[0]
            taps = recorder.attach_chain(chain)
            return "recording %d link(s) of %s" % (len(taps), rest[0])
        if command == "stop":
            if rest == ["all"] or not rest:
                count = len(recorder.taps)
                recorder.detach_all()
                return "stopped %d tap(s)" % count
            try:
                recorder.detach(rest[0])
            except Exception as exc:
                return "*** %s" % exc
            return "stopped %s" % rest[0]
        if command == "pcap":
            if not rest:
                return "usage: record pcap <output-file> [trace-id]"
            trace_id = None
            if len(rest) > 1:
                try:
                    trace_id = int(rest[1])
                except ValueError:
                    return "*** trace-id must be an integer"
            count = recorder.export_pcap(rest[0], trace_id=trace_id)
            return "wrote %d frames to %s" % (count, rest[0])
        if command == "flow":
            if len(rest) != 1:
                return "usage: record flow <flowtrace-id>"
            try:
                flow_trace = int(rest[0], 0)
            except ValueError:
                return "*** flowtrace-id must be an integer"
            selected = recorder.records(flow_trace=flow_trace)
            lines = ["%d ring record(s) for flowtrace %08x"
                     % (len(selected), flow_trace)]
            lines.extend(record.render() for record in selected)
            trace = self.flowtrace._traces.get(flow_trace)
            if trace is not None:
                lines.append("%d postcard(s):" % len(trace.hops))
                for hop_time, kind, hop, dpid in trace.hops:
                    lines.append("  %.6f %-9s %s%s"
                                 % (hop_time, kind, hop,
                                    " dpid=%d" % dpid
                                    if dpid is not None else ""))
            return "\n".join(lines)
        return ("usage: record [list|status] | start <link|node1 node2> "
                "| chain <service> | stop <tap|all> | pcap <file> "
                "[trace-id] | flow <flowtrace-id>")

    def _cli_catalog(self, args) -> str:
        lines = []
        for name in self.catalog.names():
            entry = self.catalog.get(name)
            params = ", ".join(entry.parameters()) or "-"
            lines.append("%-16s cpu=%.2f mem=%-6.0f params: %s"
                         % (name, entry.cpu, entry.mem, params))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "ESCAPE(%r, %d containers, %s)" % (
            self.net, len(self.agents),
            "started" if self.started else "stopped")
