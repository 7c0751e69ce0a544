"""The ``Network`` object — ESCAPE's (and Mininet's) top-level API for
building and running an emulated topology."""

from typing import Dict, List, Optional, Tuple, Union

from repro.netem.interface import Interface
from repro.netem.link import Link
from repro.netem.node import Host, Node, Switch
from repro.netem.topo import Topo
from repro.netem.vnf import VNFContainer
from repro.openflow import ControllerChannel
from repro.packet import EthAddr, IPAddr
from repro.sim import Simulator


class NetworkError(Exception):
    pass


class Network:
    """Builds and runs the emulated infrastructure layer.

    Mirrors Mininet's API surface::

        net = Network()
        h1 = net.add_host("h1")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1, bandwidth=10e6, delay=0.001)
        net.add_controller(controller)
        net.start()
        result = h1.ping(h2.ip); net.run(5.0)

    IPs default to 10.0.0.0/8 assigned in creation order, MACs to
    00:00:00:00:00:xx, like Mininet's auto-assignment.
    """

    def __init__(self, sim: Optional[Simulator] = None,
                 ip_base: str = "10.0.0.0", prefix_len: int = 8):
        self.sim = sim or Simulator()
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self.controllers: List = []
        self.started = False
        self._next_ip = IPAddr(ip_base) + 1
        self._next_mac = 1
        self._next_dpid = 1
        self.prefix_len = prefix_len
        # when True, control channels serialize every message through
        # the real OF 1.0 wire format (see repro.openflow.wire)
        self.serialize_openflow = False

    # -- address assignment ---------------------------------------------

    def _allocate_ip(self) -> IPAddr:
        ip = self._next_ip
        self._next_ip = self._next_ip + 1
        return ip

    def _allocate_mac(self) -> EthAddr:
        mac = EthAddr(self._next_mac)
        self._next_mac += 1
        return mac

    # -- node management ----------------------------------------------------

    def _register(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise NetworkError("node %r already exists" % node.name)
        self.nodes[node.name] = node
        return node

    def add_host(self, name: str, ip: Optional[Union[str, IPAddr]] = None,
                 mac: Optional[Union[str, EthAddr]] = None,
                 prefix_len: Optional[int] = None) -> Host:
        host = Host(name, self.sim,
                    ip if ip is not None else self._allocate_ip(),
                    mac if mac is not None else self._allocate_mac(),
                    prefix_len if prefix_len is not None else self.prefix_len)
        self._register(host)
        return host

    def add_switch(self, name: str, dpid: Optional[int] = None) -> Switch:
        if dpid is None:
            dpid = self._next_dpid
        self._next_dpid = max(self._next_dpid, dpid) + 1
        switch = Switch(name, self.sim, dpid)
        self._register(switch)
        return switch

    def add_vnf_container(self, name: str, cpu: float = 4.0,
                          mem: float = 4096.0,
                          isolation: str = "cgroup") -> VNFContainer:
        container = VNFContainer(name, self.sim, cpu, mem, isolation)
        self._register(container)
        return container

    def add_hub(self, name: str):
        """A plain repeater (for the dedicated control network)."""
        from repro.netem.hub import Hub
        hub = Hub(name, self.sim)
        self._register(hub)
        return hub

    def add_node(self, node: Node) -> Node:
        """Register an externally constructed node (e.g. a management
        endpoint)."""
        return self._register(node)

    def get(self, name: str) -> Node:
        node = self.nodes.get(name)
        if node is None:
            raise NetworkError("no node named %r" % name)
        return node

    def __getitem__(self, name: str) -> Node:
        return self.get(name)

    def hosts(self) -> List[Host]:
        return [node for node in self.nodes.values()
                if isinstance(node, Host)]

    def switches(self) -> List[Switch]:
        return [node for node in self.nodes.values()
                if isinstance(node, Switch)]

    def vnf_containers(self) -> List[VNFContainer]:
        return [node for node in self.nodes.values()
                if isinstance(node, VNFContainer)]

    # -- links ----------------------------------------------------------------

    def _link_endpoint(self, node: Node) -> Interface:
        """The interface a new link should use on ``node``.

        Hosts reuse their primary interface while it is unattached
        (single-homed hosts keep their configured IP); every other case
        gets a fresh interface.
        """
        if isinstance(node, Host):
            primary = node.default_interface()
            if not primary.connected:
                return primary
            return node.add_interface(self._allocate_mac(),
                                      self._allocate_ip(), self.prefix_len)
        return node.add_interface(self._allocate_mac())

    def add_link(self, node1: Union[str, Node], node2: Union[str, Node],
                 bandwidth: Optional[float] = None, delay: float = 0.0,
                 loss: float = 0.0, max_queue: int = 1000) -> Link:
        if isinstance(node1, str):
            node1 = self.get(node1)
        if isinstance(node2, str):
            node2 = self.get(node2)
        intf1 = self._link_endpoint(node1)
        intf2 = self._link_endpoint(node2)
        link = Link(self.sim, intf1, intf2, bandwidth, delay, loss,
                    max_queue)
        self.links.append(link)
        return link

    def links_of(self, node: Union[str, Node]) -> List[Link]:
        if isinstance(node, str):
            node = self.get(node)
        names = set(node.interfaces)
        return [link for link in self.links
                if link.intf1.name in names or link.intf2.name in names]

    def links_between(self, node1: Union[str, Node],
                      node2: Union[str, Node]) -> List[Link]:
        """All links directly connecting ``node1`` and ``node2``."""
        if isinstance(node1, str):
            node1 = self.get(node1)
        if isinstance(node2, str):
            node2 = self.get(node2)
        return [link for link in self.links
                if {link.intf1.node, link.intf2.node} == {node1, node2}]

    # -- topology construction ------------------------------------------------

    @classmethod
    def build(cls, topo: Topo, sim: Optional[Simulator] = None,
              **net_opts) -> "Network":
        """Instantiate a :class:`Topo` description."""
        net = cls(sim=sim, **net_opts)
        for name, (role, opts) in topo.nodes.items():
            if role == Topo.HOST:
                net.add_host(name, ip=opts.get("ip"), mac=opts.get("mac"))
            elif role == Topo.SWITCH:
                net.add_switch(name, dpid=opts.get("dpid"))
            elif role == Topo.VNF_CONTAINER:
                net.add_vnf_container(name, cpu=opts.get("cpu", 4.0),
                                      mem=opts.get("mem", 4096.0),
                                      isolation=opts.get("isolation",
                                                         "cgroup"))
            else:
                raise NetworkError("unknown role %r for node %r"
                                   % (role, name))
        for node1, node2, opts in topo.links:
            net.add_link(node1, node2, bandwidth=opts.get("bandwidth"),
                         delay=opts.get("delay", 0.0),
                         loss=opts.get("loss", 0.0),
                         max_queue=opts.get("max_queue", 1000))
        return net

    # -- lifecycle ------------------------------------------------------------

    def add_controller(self, controller) -> None:
        """Attach a controller platform (must expose
        ``accept_connection(channel)``, as the POX nexus does)."""
        self.controllers.append(controller)

    def start(self) -> None:
        """Connect every switch to the controller(s)."""
        if self.started:
            return
        self.started = True
        for switch in self.switches():
            for controller in self.controllers:
                channel = ControllerChannel(
                    self.sim, serialize=self.serialize_openflow)
                controller.accept_connection(channel)
                switch.datapath.connect_controller(channel)

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()
        self.started = False

    def run(self, duration: float) -> None:
        """Advance the simulation ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    def static_arp(self) -> None:
        """Pre-populate every host's ARP table (Mininet's --arp flag).

        With static ARP no broadcast resolution traffic exists, which
        keeps learning switches clean when chains re-inject frames at
        container ports.
        """
        hosts = self.hosts()
        for src in hosts:
            for dst in hosts:
                if src is not dst:
                    src.arp_table[dst.ip] = dst.mac

    # -- diagnostics ----------------------------------------------------------

    def link_stats(self) -> Dict[str, float]:
        """Aggregate link telemetry: delivery/drop totals and the peak
        utilisation across finite-bandwidth links (delivered bits over
        elapsed simulated time, as a fraction of link capacity)."""
        delivered = delivered_bytes = 0
        dropped_down = dropped_loss = dropped_queue = 0
        max_utilization = 0.0
        elapsed = self.sim.now
        for link in self.links:
            delivered += link.delivered
            dropped_down += link.dropped_down
            dropped_loss += link.dropped_loss
            dropped_queue += link.dropped_queue
            delivered_bytes += link.delivered_bytes
            if link.bandwidth and elapsed > 0:
                utilization = (link.delivered_bytes * 8.0
                               / (elapsed * link.bandwidth))
                if utilization > max_utilization:
                    max_utilization = utilization
        return {
            "delivered": delivered,
            "dropped": dropped_down + dropped_loss + dropped_queue,
            "dropped_down": dropped_down,
            "dropped_loss": dropped_loss,
            "dropped_queue": dropped_queue,
            "delivered_bytes": delivered_bytes,
            "max_utilization": max_utilization,
        }

    def find_link(self, name: str):
        """Look up a link by its name (``intf1<->intf2`` by default)."""
        for link in self.links:
            if link.name == name:
                return link
        raise NetworkError("no link named %r" % name)

    PING_ALL_TIMEOUT = 5.0  # seconds allowed after the last ping

    def ping_all(self) -> Tuple[int, int]:
        """Ping between every ordered host pair (Mininet's pingall).

        Returns (sent, received) across all pairs; pairs are staggered
        slightly so ARP floods don't collide.
        """
        results = []
        offset = 0.0
        hosts = self.hosts()
        for src in hosts:
            for dst in hosts:
                if src is dst:
                    continue
                self.sim.schedule(offset, lambda s=src, d=dst:
                                  results.append(s.ping(d.ip, count=1)))
                offset += 0.001
        self.run(offset + self.PING_ALL_TIMEOUT)
        sent = sum(result.sent for result in results)
        received = sum(result.received for result in results)
        return sent, received

    def __repr__(self) -> str:
        return "Network(%d nodes, %d links, %s)" % (
            len(self.nodes), len(self.links),
            "started" if self.started else "stopped")
