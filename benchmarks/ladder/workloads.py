"""The four rungs of the ladder.

Each workload builds its network once (:meth:`Workload.build`), warms
up, and then runs *segments*: a fixed amount of offered work (datagrams
or deploy cycles) followed by enough simulated time for it to drain.
The emulator is never idle in host time, so a segment's wall time is
the cost of the work at the stated size.

Segments are sized to take about a quarter of a second on the seed: a
shared sandbox slows some stretches of a run by tens of percent, and
many short segments let the reported quantile step over them.
"""

import time

from repro.core import ESCAPE
from repro.netem.topo import Topo
from repro.scenario.workload import build_chain_requests
from repro.scenario.zoo import FatTreeTopo

import traffic

#: simulated seconds left after the last datagram so it can arrive
DRAIN = 0.05
#: per-switch and per-link program counters summed into one snapshot
COUNTERS = ("events", "switch_passes", "microflow_hits", "packet_ins",
            "link_delivered", "link_drops", "rpcs", "flow_mods", "of_msgs",
            "click_transfers", "queue_drops")


def demo_topology():
    """h1 - s1 - s2 - h2 with one six-port VNF container per switch."""
    topo = Topo()
    for host in ("h1", "h2"):
        topo.add_host(host)
    for switch in ("s1", "s2"):
        topo.add_switch(switch)
    topo.add_link("h1", "s1", bandwidth=1e9, delay=0.001)
    topo.add_link("s1", "s2", bandwidth=1e9, delay=0.002)
    topo.add_link("h2", "s2", bandwidth=1e9, delay=0.001)
    for container, switch in (("nc1", "s1"), ("nc2", "s2")):
        topo.add_vnf_container(container, cpu=16.0, mem=16384.0)
        for _ in range(6):
            topo.add_link(container, switch, delay=0.0005)
    return topo


def fat_tree():
    return FatTreeTopo(k=4, containers_per_pod=2, container_ports=6)


class Workload:
    """Common machinery: lifecycle, program counters, correctness."""

    name = ""   # the reason for each rung is in BENCHMARK.json
    of_wire = False
    segment_ops = 0   # operations per segment at --scale 1
    min_ops = 1

    def __init__(self, seed, scale):
        self.plan = traffic.Plan(seed)
        self.ops = max(self.min_ops, round(self.segment_ops * scale))
        self.escape = None
        self.net = None
        self.sim = None
        self.sink = None
        self.offered = 0
        self.errors = []
        self.entries_max = 0
        # wall seconds from deploy_service to the probe's arrival
        self.deploy_s = []
        # click counters of VNFs already torn down (deploy_churn)
        self._retired = [0, 0]
        # standing chains: (DeployedChain, first VNF name, callable giving
        # the datagrams steered to it, discovery probes sent at deploy)
        self.chains = []

    # -- lifecycle ----------------------------------------------------------

    def topology(self):
        raise NotImplementedError

    def build(self):
        self.escape = ESCAPE.from_topology(self.topology(),
                                           of_wire=self.of_wire)
        self.net = self.escape.net
        self.sim = self.escape.sim
        self.escape.start()
        self.switch_ports = sum(len(switch.datapath.ports)
                                for switch in self.net.switches())
        self.deploy()

    def deploy(self):
        raise NotImplementedError

    def segment(self, ops):
        """Offer ``ops`` operations and run until they complete; by
        default, datagrams from ``self.generator``."""
        self.generator.offer(ops)
        self.offered += ops
        self.escape.run(ops / self.rate_pps + DRAIN)

    def warm_up(self):
        """A quarter segment: fills the ARP-free fast paths, the switch
        caches and the interpreter's own caches before anything is
        timed, and is part of ``setup_s``."""
        self.segment(max(self.min_ops, self.ops // 4))
        self.check()
        self.take_delays()
        self.deploy_s = []

    def close(self):
        self.escape.stop()

    # -- what the engine reads ------------------------------------------------

    @property
    def delivered(self):
        return self.sink.delivered

    def take_delays(self):
        delays, self.sink.delays = self.sink.delays, []
        return delays

    def take_errors(self):
        errors, self.errors = self.errors, []
        return errors

    def counters(self):
        """Cumulative program counters, keyed as :data:`COUNTERS`."""
        datapaths = [switch.datapath for switch in self.net.switches()]
        transfers, drops = self._click_counts(
            process for container in self.net.vnf_containers()
            for process in container.vnfs.values())
        self._note_table_sizes()
        return {
            "events": self.sim.processed,
            "switch_passes": sum(dp.table_hit_count + dp.table_miss_count
                                 for dp in datapaths),
            "microflow_hits": sum(dp.microflow_hit_count
                                  for dp in datapaths),
            "packet_ins": sum(dp.packet_in_count for dp in datapaths),
            "link_delivered": sum(link.delivered for link in self.net.links),
            "link_drops": sum(link.dropped for link in self.net.links),
            "rpcs": sum(client.rpcs_sent for client
                        in self.escape.netconf_clients.values()),
            "flow_mods": self.escape.steering.flow_mods_sent,
            "of_msgs": sum(dp.channel.to_controller_count
                           + dp.channel.to_switch_count for dp in datapaths),
            "click_transfers": self._retired[0] + transfers,
            "queue_drops": self._retired[1] + drops,
        }

    def _note_table_sizes(self):
        self.entries_max = max(self.entries_max, max(
            len(switch.datapath.table) for switch in self.net.switches()))

    @staticmethod
    def _click_counts(processes):
        transfers = drops = 0
        for process in processes:
            transfers += sum(process.router.transfer_counts())
            drops += sum(getattr(element, "drops", 0)
                         for element in process.router.elements.values())
        return transfers, drops

    def _processes(self, chain):
        return [self.net.get(vnf.container).get_vnf(vnf.vnf_id)
                for vnf in chain.vnfs.values()]

    def _probes_sent(self):
        return self.escape.discovery.probes_sent

    def _check_first_vnf(self, chain, vnf_name, steered, probes_at_deploy):
        """The chain's first VNF must have counted every datagram that
        was steered to it.  LLDP discovery floods one probe out of every
        switch port per round, VNF-facing ports included, so the counter
        may also hold up to one frame per round since the deploy."""
        vnf = chain.vnfs[vnf_name]
        process = self.net.get(vnf.container).get_vnf(vnf.vnf_id)
        counted = int(process.read_handler("cnt_in.count"))
        rounds = ((self._probes_sent() - probes_at_deploy)
                  // self.switch_ports)
        if not steered <= counted <= steered + rounds:
            self.errors.append(
                "%s: first VNF counted %d, %d were steered to it (%d "
                "discovery rounds)" % (chain.sg.name, counted, steered,
                                       rounds))

    # -- correctness ----------------------------------------------------------

    def check(self):
        """Every datagram offered so far arrived intact on its own flow,
        and every chain's first VNF counted exactly the datagrams that
        were steered to it."""
        if self.sink.corrupt:
            self.errors.append("%d corrupt datagram(s)" % self.sink.corrupt)
        if self.sink.received != self.offered_per_flow():
            self.errors.append(
                "per-flow delivery differs from what was offered "
                "(%d of %d delivered)" % (self.delivered, self.offered))
        for chain, vnf_name, steered, probes in self.chains:
            self._check_first_vnf(chain, vnf_name, steered(), probes)

    def offered_per_flow(self):
        return self.generator.offered


class _DemoChain(Workload):
    """The two-switch demo substrate carrying one forwarder chain."""

    rate_pps = 5000
    payload_size = 64

    def topology(self):
        return demo_topology()

    def deploy(self):
        src, dst = self.plan.demo_pair()
        probes = self._probes_sent()
        chain = self.escape.deploy_service({
            "name": "ladder-chain", "saps": [src, dst],
            "vnfs": [{"name": "v0", "type": "forwarder"}],
            "chain": [src, "v0", dst]})
        self.chains.append((chain, "v0", lambda: self.offered, probes))
        self.bind(src, dst)

    def bind(self, src, dst):
        raise NotImplementedError


class ChainDistinct(_DemoChain):
    name = "chain_distinct"
    segment_ops = 1000
    flows = 64

    def bind(self, src, dst):
        self.plan.make_flows(self.net, [(src, dst)], self.flows)
        self.generator = traffic.Generator(
            self.sim, self.plan, [self.payload_size], self.rate_pps)
        self.sink = traffic.Sink(self.sim, self.plan)


class ChainRepeat(_DemoChain):
    name = "chain_repeat"
    segment_ops = 10000

    def bind(self, src, dst):
        flow, = self.plan.make_flows(self.net, [(src, dst)], 1)
        self.flow = flow
        self.sink = traffic.ConstantFlowSink(self.sim, flow,
                                             self.payload_size)

    def segment(self, ops):
        self.sink.expect(self.sim.now, self.rate_pps)
        self.flow.src.start_udp_flow(
            self.flow.dst_ip, traffic.PORT, rate_pps=self.rate_pps,
            duration=ops / self.rate_pps,
            payload_size=self.payload_size, sport=self.flow.sport)
        self.offered += ops
        self.escape.run(ops / self.rate_pps + DRAIN)

    def offered_per_flow(self):
        return [self.offered]


class _FatTree(Workload):
    """k=4 fat-tree, one seeded chain request per edge switch (eight),
    cycling through four templates."""

    templates = ("web", "bump", "secure", "shaped")

    def topology(self):
        topo = fat_tree()
        self.requests = build_chain_requests(
            topo, {"templates": list(self.templates),
                   "sap_pairs": self.plan.fat_tree_pairs(topo)},
            None, self.plan.rng)
        return topo

    def pairs(self):
        return [(request["src"], request["dst"])
                for request in self.requests]


class FatTreeVnfMix(_FatTree):
    name = "fattree_vnf_mix"
    segment_ops = 512
    min_ops = 8
    rate_pps = 4000
    sizes = (64, 64, 512, 1400)
    flows = 32

    def deploy(self):
        self.plan.make_flows(self.net, self.pairs(), self.flows)
        self.generator = traffic.Generator(self.sim, self.plan, self.sizes,
                                           self.rate_pps)
        self.sink = traffic.Sink(self.sim, self.plan)
        for index, request in enumerate(self.requests):
            probes = self._probes_sent()
            chain = self.escape.deploy_service(request["sg"])
            self.chains.append((chain, request["sg"]["chain"][1],
                                lambda index=index: self.steered(index),
                                probes))

    def steered(self, chain_index):
        return sum(self.generator.offered[flow.flow_id]
                   for flow in self.plan.flows if flow.chain == chain_index)


class DeployChurn(_FatTree):
    name = "deploy_churn"
    of_wire = True
    segment_ops = 64
    payload_size = 64
    probe_timeout = 1.0   # simulated seconds a probe may take

    def deploy(self):
        self.plan.make_flows(self.net, self.pairs(), 1)
        self.sink = traffic.Sink(self.sim, self.plan)
        self.tail = self.plan.filler[:self.payload_size
                                     - traffic.HEADER.size]
        self.offered_flows = [0] * len(self.plan.flows)

    def segment(self, ops):
        for _ in range(ops):
            self.cycle()

    def cycle(self):
        index = self.offered % len(self.requests)
        request = self.requests[index]
        flow = self.plan.flows[index]
        arrived = self.sink.received[index]
        probes = self._probes_sent()
        started = time.perf_counter()
        chain = self.escape.deploy_service(request["sg"])
        payload = traffic.HEADER.pack(flow.flow_id, self.offered,
                                      self.sim.now) + self.tail
        flow.src.send_udp(flow.dst_ip, traffic.PORT, payload, flow.sport)
        deadline = self.sim.now + self.probe_timeout
        while (self.sink.received[index] == arrived
               and self.sim.now < deadline and self.sim.step()):
            pass
        self.deploy_s.append(time.perf_counter() - started)
        self.offered += 1
        self.offered_flows[index] += 1
        self._check_first_vnf(chain, request["sg"]["chain"][1], 1, probes)
        self._note_table_sizes()
        transfers, drops = self._click_counts(self._processes(chain))
        self._retired[0] += transfers
        self._retired[1] += drops
        self.escape.terminate_service(request["name"])

    def offered_per_flow(self):
        return self.offered_flows


WORKLOADS = {cls.name: cls for cls in (ChainDistinct, ChainRepeat,
                                       FatTreeVnfMix, DeployChurn)}
