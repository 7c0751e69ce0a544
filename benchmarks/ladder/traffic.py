"""Seeded traffic for the bench ladder.

Everything a run's ``--seed`` decides lives here: which SAP pairs carry
chains, which UDP source port each flow uses, and the payload filler.
The program under test never sees the seed — only the frames that come
out of :class:`Generator` (or, for the identical-frame workload, out of
its own ``Host.start_udp_flow``).

Traffic is *open loop in simulated time*: datagram ``i`` is offered at
``i / rate_pps`` simulated seconds whatever the emulator's host-time
speed, so the same seed always offers the same frames at the same
simulated instants.
"""

import random
import struct

#: payload prefix: flow id, sequence number, simulated send time
HEADER = struct.Struct("!IId")
PORT = 47000
SPORT_BASE = 40000
SPORT_SPAN = 4096
FILLER_SIZE = 1400


class Flow:
    """One (chain, source port) pair; ``src``/``dst`` are live hosts."""

    __slots__ = ("flow_id", "chain", "src", "dst", "dst_ip", "sport")

    def __init__(self, flow_id, chain, src, dst, sport):
        self.flow_id = flow_id
        self.chain = chain
        self.src = src
        self.dst = dst
        self.dst_ip = dst.ip
        self.sport = sport


class Plan:
    """What one seed decides for one workload."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.filler = b""
        self.flows = []

    def demo_pair(self):
        """Orientation of the two-host demo substrate's single chain."""
        return ("h1", "h2") if self.rng.random() < 0.5 else ("h2", "h1")

    def fat_tree_pairs(self, topo):
        """One chain per edge switch of a fat-tree: a seeded host of the
        switch is the source, and the sink is a seeded host in another
        pod that is nobody's source.  Which hosts talk is the seed's
        choice; how far they are apart is not - every chain crosses the
        core, its VNFs land on the source's own edge switch, and so the
        work per datagram is the same for every seed."""
        switches, hosts = set(topo.switches()), set(topo.hosts())
        hosts_of = {}    # edge switch -> its hosts
        uplinks = {}     # switch -> neighbouring switches
        for node1, node2, _opts in topo.links:
            for node, peer in ((node1, node2), (node2, node1)):
                if node in switches and peer in switches:
                    uplinks.setdefault(node, set()).add(peer)
                elif node in switches and peer in hosts:
                    hosts_of.setdefault(node, []).append(peer)
        edges = sorted(hosts_of)
        # edge switches of one pod share their aggregation switches
        pod = {edge: frozenset(uplinks[edge]) for edge in edges}
        sources = [self.rng.choice(hosts_of[edge]) for edge in edges]
        sinks = [self.rng.choice([host for host in hosts_of[edge]
                                  if host != source])
                 for edge, source in zip(edges, sources)]
        order = list(range(len(edges)))
        while any(pod[edges[i]] == pod[edges[j]]
                  for i, j in enumerate(order)):
            self.rng.shuffle(order)
        return [(source, sinks[j]) for source, j in zip(sources, order)]

    def make_flows(self, net, pairs, flows_per_chain):
        """``flows_per_chain`` flows per SAP pair, each on its own
        seeded source port; also draws the payload filler."""
        for chain, (src, dst) in enumerate(pairs):
            sports = self.rng.sample(
                range(SPORT_BASE, SPORT_BASE + SPORT_SPAN), flows_per_chain)
            for sport in sports:
                self.flows.append(Flow(len(self.flows), chain, net.get(src),
                                       net.get(dst), sport))
        self.filler = self.rng.randbytes(FILLER_SIZE)
        return self.flows


class Generator:
    """Offers stamped datagrams round-robin over chains, then over each
    chain's flows, with payload sizes cycling through ``sizes``.  Every
    payload is unique (flow id, sequence, send time), so no frame ever
    repeats on the wire."""

    def __init__(self, sim, plan, sizes, rate_pps):
        self.sim = sim
        self.interval = 1.0 / rate_pps
        chains = max(flow.chain for flow in plan.flows) + 1
        self.by_chain = [[flow for flow in plan.flows if flow.chain == chain]
                         for chain in range(chains)]
        self.tails = [plan.filler[:size - HEADER.size] for size in sizes]
        self.offered = [0] * len(plan.flows)
        self.sequence = 0
        self.remaining = 0

    def offer(self, count):
        """Start offering ``count`` datagrams from the current instant."""
        self.remaining = count
        self.sim.schedule(0.0, self._send)

    def _send(self):
        index = self.sequence
        self.sequence = index + 1
        flows = self.by_chain[index % len(self.by_chain)]
        flow = flows[(index // len(self.by_chain)) % len(flows)]
        payload = (HEADER.pack(flow.flow_id, index, self.sim.now)
                   + self.tails[index % len(self.tails)])
        flow.src.send_udp(flow.dst_ip, PORT, payload, flow.sport)
        self.offered[flow.flow_id] += 1
        self.remaining -= 1
        if self.remaining:
            self.sim.schedule(self.interval, self._send)


class Sink:
    """Receives stamped datagrams: per-flow delivery counts, one-way
    simulated delay from the payload timestamp, payload integrity, and
    the event heap's depth as seen at each arrival."""

    def __init__(self, sim, plan):
        self.sim = sim
        self.filler = plan.filler
        self.sports = [flow.sport for flow in plan.flows]
        self.received = [0] * len(plan.flows)
        self.delays = []
        self.corrupt = 0
        self.heap_depth_max = 0
        for host in {flow.dst for flow in plan.flows}:
            host.bind_udp(PORT, self.receive)

    @property
    def delivered(self):
        return sum(self.received)

    def receive(self, _srcip, sport, payload):
        flow_id, _sequence, sent_at = HEADER.unpack_from(payload)
        if (flow_id >= len(self.sports) or sport != self.sports[flow_id]
                or payload[HEADER.size:]
                != self.filler[:len(payload) - HEADER.size]):
            self.corrupt += 1
            return
        self.received[flow_id] += 1
        self.delays.append(self.sim.now - sent_at)
        depth = self.sim.heap_depth
        if depth > self.heap_depth_max:
            self.heap_depth_max = depth


class ConstantFlowSink:
    """Sink for ``Host.start_udp_flow``: every datagram is the same
    zero-filled payload, so the send time is not in the packet.  The
    flow is FIFO at a fixed interval, so arrival ``k`` left at the
    flow's start plus ``k`` intervals — accumulated with the same float
    additions the simulator's clock makes, which keeps the delay exact.
    """

    def __init__(self, sim, flow, payload_size):
        self.sim = sim
        self.sport = flow.sport
        self.payload = b"\x00" * payload_size
        self.received = [0]
        self.delays = []
        self.corrupt = 0
        self.heap_depth_max = 0
        self.interval = 0.0
        self.next_sent_at = 0.0
        flow.dst.bind_udp(PORT, self.receive)

    @property
    def delivered(self):
        return self.received[0]

    def expect(self, started_at, rate_pps):
        self.interval = 1.0 / rate_pps
        self.next_sent_at = started_at

    def receive(self, _srcip, sport, payload):
        if sport != self.sport or payload != self.payload:
            self.corrupt += 1
            return
        self.received[0] += 1
        self.delays.append(self.sim.now - self.next_sent_at)
        self.next_sent_at += self.interval
        depth = self.sim.heap_depth
        if depth > self.heap_depth_max:
            self.heap_depth_max = depth
