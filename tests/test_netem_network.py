"""Tests for hosts, switches, topologies and the Network object."""

import gc
import struct

import pytest

from repro.core import ESCAPE
from repro.netem import (CLI, FlightRecorder, Interface, LinearTopo, Network,
                         NetworkError, SingleSwitchTopo, Topo, TreeTopo)
from repro.openflow import Output, PacketOut, PortStatsRequest
from repro.packet import LLDP, EthAddr, Ethernet, IPv4, UDP
from repro.pox import Core, L2LearningSwitch, OpenFlowNexus
from repro.sim import Simulator


def controlled_network(sim=None):
    net = Network(sim=sim)
    core = Core(net.sim)
    nexus = OpenFlowNexus(core)
    L2LearningSwitch(nexus)
    net.add_controller(nexus)
    return net


class TestAddressAssignment:
    def test_sequential_ips(self):
        net = Network()
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        assert str(h1.ip) == "10.0.0.1"
        assert str(h2.ip) == "10.0.0.2"

    def test_explicit_ip_honoured(self):
        net = Network()
        host = net.add_host("h1", ip="192.168.7.7")
        assert str(host.ip) == "192.168.7.7"

    def test_unique_macs(self):
        net = Network()
        macs = {str(net.add_host("h%d" % i).mac) for i in range(20)}
        assert len(macs) == 20

    def test_duplicate_name_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(NetworkError):
            net.add_switch("x")

    def test_get_unknown_raises(self):
        with pytest.raises(NetworkError):
            Network().get("nope")

    def test_getitem(self):
        net = Network()
        host = net.add_host("h1")
        assert net["h1"] is host


class TestLinks:
    def test_host_reuses_primary_interface(self):
        net = Network()
        h1 = net.add_host("h1")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1)
        assert len(h1.interfaces) == 1

    def test_second_host_link_adds_interface(self):
        net = Network()
        h1 = net.add_host("h1")
        s1, s2 = net.add_switch("s1"), net.add_switch("s2")
        net.add_link(h1, s1)
        net.add_link(h1, s2)
        assert len(h1.interfaces) == 2

    def test_links_by_name(self):
        net = Network()
        net.add_host("h1")
        net.add_switch("s1")
        link = net.add_link("h1", "s1")
        assert link in net.links_of("h1")
        assert link in net.links_of("s1")

    def test_switch_ports_numbered_in_order(self):
        net = Network()
        s1 = net.add_switch("s1")
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        net.add_link(h1, s1)
        net.add_link(h2, s1)
        assert sorted(s1.datapath.ports) == [1, 2]


class TestPingAndUdp:
    def test_ping_through_one_switch(self):
        net = controlled_network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1, delay=0.001)
        net.add_link(h2, s1, delay=0.001)
        net.start()
        result = h1.ping(h2.ip, count=3, interval=0.1)
        net.run(2.0)
        assert result.received == 3
        assert result.loss_percent == 0.0
        assert result.min_rtt > 0.002  # at least 4 link traversals

    def test_ping_unreachable_loses_everything(self):
        net = controlled_network()
        h1 = net.add_host("h1")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1)
        net.start()
        result = h1.ping("10.9.9.9", count=2, interval=0.1)
        net.run(3.0)
        assert result.received == 0
        assert result.loss_percent == 100.0

    def test_ping_all_full_mesh(self):
        net = controlled_network()
        topo_hosts = [net.add_host("h%d" % i) for i in range(1, 4)]
        s1 = net.add_switch("s1")
        for host in topo_hosts:
            net.add_link(host, s1)
        net.start()
        sent, received = net.ping_all()
        assert sent == 6
        assert received == 6

    def test_udp_delivery_and_handler(self):
        net = controlled_network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1)
        net.add_link(h2, s1)
        net.start()
        net.static_arp()
        got = []
        h2.bind_udp(5001, lambda src, sport, data: got.append(data))
        h1.send_udp(h2.ip, 5001, b"payload-1")
        net.run(1.0)
        assert got == [b"payload-1"]
        assert h2.udp_rx_count == 1

    def test_udp_flow_rate(self):
        net = controlled_network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1)
        net.add_link(h2, s1)
        net.start()
        net.static_arp()
        report = h1.start_udp_flow(h2.ip, 7000, rate_pps=100,
                                   duration=1.0, payload_size=100)
        net.run(2.0)
        assert report.finished
        assert report.sent == 100
        assert h2.udp_rx_count == 100

    def test_finished_sessions_leave_no_cyclic_garbage(self):
        """A finished ping or UDP flow is freed by reference counting:
        with the collector off, nothing is left for it to find."""
        net = controlled_network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1, delay=0.001)
        net.add_link(h2, s1, delay=0.001)
        net.start()
        net.static_arp()
        h1.ping(h2.ip, count=2, interval=0.1)  # warm the switch up
        net.run(1.0)
        gc.collect()
        gc.disable()
        try:
            flows = [h1.start_udp_flow(h2.ip, 7000, rate_pps=100,
                                       duration=0.1, payload_size=64)
                     for _ in range(4)]
            pings = [h1.ping(h2.ip, count=3, interval=0.1)
                     for _ in range(4)]
            net.run(1.0)
            assert all(report.finished for report in flows)
            assert all(result.received == 3 for result in pings)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_static_arp_suppresses_arp_traffic(self):
        net = controlled_network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1)
        net.add_link(h2, s1)
        net.start()
        net.static_arp()
        intf = h1.default_interface()
        tap = FlightRecorder(net).attach(intf.link, port=intf.name)
        h1.ping(h2.ip, count=1)
        net.run(1.0)
        assert tap.records  # the ping crossed h1's port
        assert not any(record.frame.type == Ethernet.ARP_TYPE
                       for record in tap.records)

    def test_capture_records_frames(self):
        net = controlled_network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1)
        net.add_link(h2, s1)
        net.start()
        net.static_arp()
        intf = h2.default_interface()
        tap = FlightRecorder(net).attach(intf.link, port=intf.name)
        h1.send_udp(h2.ip, 1234, b"x")
        net.run(1.0)
        assert tap.matched >= 1
        assert any(record.direction == "rx" for record in tap.records)


class TestTopoBuilders:
    def test_single_switch(self):
        topo = SingleSwitchTopo(k=4)
        assert len(topo.hosts()) == 4
        assert len(topo.switches()) == 1
        assert len(topo.links) == 4

    def test_linear(self):
        topo = LinearTopo(k=3, n=2)
        assert len(topo.switches()) == 3
        assert len(topo.hosts()) == 6
        assert len(topo.links) == 2 + 6  # switch spine + host links

    def test_tree(self):
        topo = TreeTopo(depth=2, fanout=2)
        assert len(topo.switches()) == 3
        assert len(topo.hosts()) == 4

    def test_build_and_ping(self):
        net = controlled_network()
        built = Network.build(LinearTopo(k=2, n=1), sim=net.sim)
        # rebuild with controller: simpler to attach controller first
        net2 = Network.build(LinearTopo(k=2, n=1))
        core = Core(net2.sim)
        nexus = OpenFlowNexus(core)
        L2LearningSwitch(nexus)
        net2.add_controller(nexus)
        net2.start()
        sent, received = net2.ping_all()
        assert sent == received == 2

    def test_duplicate_node_rejected(self):
        topo = Topo()
        topo.add_host("x")
        with pytest.raises(ValueError):
            topo.add_switch("x")

    def test_link_to_unknown_rejected(self):
        topo = Topo()
        topo.add_host("a")
        with pytest.raises(ValueError):
            topo.add_link("a", "ghost")


class TestCLI:
    def _net(self):
        net = controlled_network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        s1 = net.add_switch("s1")
        net.add_link(h1, s1)
        net.add_link(h2, s1)
        net.start()
        return net

    def test_nodes(self):
        cli = CLI(self._net())
        output = cli.run_command("nodes")
        assert "h1" in output and "s1" in output

    def test_net_shows_peers(self):
        cli = CLI(self._net())
        assert "s1:" in cli.run_command("net")

    def test_pingall(self):
        cli = CLI(self._net())
        assert "0% dropped" in cli.run_command("pingall")

    def test_ping_between_hosts(self):
        cli = CLI(self._net())
        output = cli.run_command("ping h1 h2 2")
        assert "2 packets transmitted, 2 received" in output

    def test_flows_lists_entries(self):
        net = self._net()
        cli = CLI(net)
        cli.run_command("pingall")
        assert "dpid 1" in cli.run_command("flows")

    def test_unknown_command(self):
        cli = CLI(self._net())
        assert "Unknown command" in cli.run_command("frobnicate")

    def test_error_surfaced_not_raised(self):
        cli = CLI(self._net())
        assert "Error" in cli.run_command("ping h1 ghost")

    def test_empty_line(self):
        cli = CLI(self._net())
        assert cli.run_command("   ") == ""

    def test_unclosed_quote_is_an_error_not_a_crash(self):
        cli = CLI(self._net())
        assert cli.run_command('ping "h1 h2') == (
            "*** Error: No closing quotation")
        script = iter(['ping "h1 h2', "nodes", "exit"])
        outputs = []
        cli.interact(input_fn=lambda prompt: next(script),
                     output_fn=outputs.append)
        assert outputs[1] == "*** Error: No closing quotation"
        assert "h1" in outputs[2]  # the REPL kept reading

    def test_vnfs_and_resources_empty(self):
        cli = CLI(self._net())
        assert "no VNF containers" in cli.run_command("vnfs")
        assert "no VNF containers" in cli.run_command("resources")

    def test_help(self):
        assert "pingall" in CLI(self._net()).run_command("help")

    def test_interact_repl_scripted(self):
        cli = CLI(self._net())
        script = iter(["nodes", "bogus-command", "exit"])
        outputs = []
        cli.interact(input_fn=lambda prompt: next(script),
                     output_fn=outputs.append)
        joined = "\n".join(outputs)
        assert "h1" in joined
        assert "Unknown command" in joined

    def test_interact_handles_eof(self):
        cli = CLI(self._net())

        def raise_eof(prompt):
            raise EOFError

        outputs = []
        cli.interact(input_fn=raise_eof, output_fn=outputs.append)
        assert outputs  # greeted, then exited cleanly


def chain_escape(before_deploy=None, **core_link):
    """h1 - s1 - s2 - h2 carrying one forwarder chain through a container
    on s1; ``core_link`` shapes the s1 - s2 link, and ``before_deploy``
    (if given) is called with the started ESCAPE before the chain is
    deployed."""
    topo = Topo()
    for host in ("h1", "h2"):
        topo.add_host(host)
    for switch in ("s1", "s2"):
        topo.add_switch(switch)
    topo.add_link("h1", "s1", bandwidth=1e9, delay=0.001)
    topo.add_link("s1", "s2", **core_link)
    topo.add_link("h2", "s2", bandwidth=1e9, delay=0.001)
    topo.add_vnf_container("nc1", cpu=4, mem=2048)
    for _ in range(2):
        topo.add_link("nc1", "s1", delay=0.0005)
    escape = ESCAPE.from_topology(topo)
    escape.start()
    if before_deploy is not None:
        before_deploy(escape)
    chain = escape.deploy_service({
        "name": "c", "saps": ["h1", "h2"],
        "vnfs": [{"name": "v0", "type": "forwarder"}],
        "chain": ["h1", "v0", "h2"]})
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    h1.send_udp(h2.ip, 7000, b"resolve ARP first")
    escape.run(0.1)
    return escape, chain


def offer(escape, count, size, rate_pps=1000.0):
    """``count`` distinct datagrams h1 -> h2 at ``rate_pps``."""
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    for index in range(count):
        escape.sim.schedule(
            index / rate_pps, h1.send_udp, h2.ip, 7000,
            struct.pack("!I", index).ljust(size, b"."))


def switch_ports(escape):
    """(switch port, its interface) for every port of every switch."""
    return [(switch.datapath.ports[switch.port_number(intf)], intf)
            for switch in escape.net.switches()
            for intf in switch.interfaces.values()]


def port_facing(switch, far_intf):
    """The port of ``switch`` at the other end of ``far_intf``'s link."""
    near = far_intf.link.other_end(far_intf)
    return switch.datapath.ports[switch.port_number(near)]


def port_stats_replies(escape):
    """What each datapath answers to a PortStatsRequest, as
    ``{(switch, port_no): (rx/tx packets, rx/tx bytes, rx/tx dropped)}``."""
    table = {}
    for switch in escape.net.switches():
        replies = []
        channel = switch.datapath.channel
        channel.send_to_controller = replies.append
        switch.datapath._handle_controller_message(PortStatsRequest())
        del channel.send_to_controller
        for stat in replies[0].stats:
            table[switch.name, stat.port_no] = (
                stat.rx_packets, stat.tx_packets, stat.rx_bytes,
                stat.tx_bytes, stat.rx_dropped, stat.tx_dropped)
    return table


def lldp_out_of_every_port(escape):
    """One 33-byte LLDP frame out of every switch port, sent through
    the controller: what ``PARENT_PORT_STATS`` counts beside the
    datagrams (one discovery round out of every port, sent at start-up
    when the counts were recorded)."""
    for switch in escape.net.switches():
        for intf in switch.interfaces.values():
            port_no = switch.port_number(intf)
            frame = Ethernet(src=intf.mac, dst="01:80:c2:00:00:0e",
                             type=Ethernet.LLDP_TYPE,
                             payload=LLDP.discovery_frame(switch.dpid,
                                                          port_no))
            escape.nexus.send(switch.dpid, PacketOut(
                actions=[Output(port_no)], data=frame.pack()))


# 50 datagrams of 142 bytes, the 59-byte one that resolved ARP, and one
# 33-byte LLDP frame per port; s1: 1 = h1, 2 = s2, 3/4 = the VNF's in/out
PARENT_PORT_STATS = {
    ("s1", 1): (51, 1, 7159, 33, 0, 0),
    ("s1", 2): (1, 52, 33, 7192, 0, 0),
    ("s1", 3): (0, 52, 0, 7192, 0, 0),
    ("s1", 4): (51, 1, 7159, 33, 0, 0),
    ("s2", 1): (52, 1, 7192, 33, 0, 0),
    ("s2", 2): (0, 52, 0, 7192, 0, 0),
}


class TestPortCounters:
    def test_every_copy_agrees_on_a_lossy_overflowing_link(self):
        escape, _ = chain_escape(bandwidth=2e6, delay=0.002, loss=0.1,
                                 max_queue=5)
        offer(escape, 400, 500, rate_pps=2000.0)   # 8 Mbit/s into 2
        escape.run(2.0)
        core, = escape.net.links_between("s1", "s2")
        assert core.dropped_loss > 0 and core.dropped_queue > 0
        assert escape.net.get("h2").udp_rx_count \
            == 401 - core.dropped_loss - core.dropped_queue
        replies = port_stats_replies(escape)
        for port, intf in switch_ports(escape):
            far = intf.link.other_end(intf)
            assert (port.rx_packets, port.rx_bytes, port.rx_dropped) \
                == (intf.rx_packets, intf.rx_bytes, 0)
            assert (port.tx_packets, port.tx_bytes, port.tx_dropped) \
                == (intf.tx_packets, intf.tx_bytes, 0)
            assert replies[intf.node.name, port.port_no] == (
                intf.rx_packets, intf.tx_packets, intf.rx_bytes,
                intf.tx_bytes, 0, 0)
            if intf.link is not core:  # one direction, no drops
                assert (far.rx_packets, far.rx_bytes) \
                    == (intf.tx_packets, intf.tx_bytes)
        for link in escape.net.links:   # nothing is left in flight
            assert link.intf1.tx_packets + link.intf2.tx_packets \
                == link.delivered + link.dropped
            assert link.delivered == (link.intf1.rx_packets
                                      + link.intf2.rx_packets)
        stats = escape.net.link_stats()
        assert stats["delivered"] + stats["dropped"] == sum(
            link.intf1.tx_packets + link.intf2.tx_packets
            for link in escape.net.links)
        assert (stats["dropped_loss"], stats["dropped_queue"],
                stats["dropped_down"]) == (core.dropped_loss,
                                           core.dropped_queue, 0)

    def test_port_stats_reply_without_drops_is_the_parents(self):
        escape, _ = chain_escape(lldp_out_of_every_port, bandwidth=1e9,
                                 delay=0.002)
        offer(escape, 50, 100)
        escape.run(0.5)
        # recorded on the commit before the per-hop path was flattened
        assert port_stats_replies(escape) == PARENT_PORT_STATS

    def test_every_frame_is_delivered_or_a_named_drop(self):
        escape, chain = chain_escape(bandwidth=1e9, delay=0.002)
        net, sim = escape.net, escape.sim
        h1, h2, s1, s2, nc1 = (net.get(name) for name
                               in ("h1", "h2", "s1", "s2", "nc1"))
        process = nc1.get_vnf(chain.vnfs["v0"].vnf_id)
        nc_in = nc1.interfaces[nc1._splices[process.vnf_id, "in0"]]
        nc_out = nc1.interfaces[nc1._splices[process.vnf_id, "out0"]]
        core, = net.links_between("s1", "s2")
        core_s1, core_s2 = ((core.intf1, core.intf2)
                            if core.intf1.node is s1
                            else (core.intf2, core.intf1))
        from_h1 = port_facing(s1, h1.default_interface())
        to_vnf, from_vnf = port_facing(s1, nc_in), port_facing(s1, nc_out)
        to_s2, from_s1 = port_facing(s1, core_s2), port_facing(s2, core_s1)
        to_h2 = port_facing(s2, h2.default_interface())

        def counters():
            return {
                "h1 tx": h1.default_interface().tx_packets,
                "s1<h1 rx": from_h1.rx_packets,
                "s1<h1 rx_dropped": from_h1.rx_dropped,
                "s1>vnf tx": to_vnf.tx_packets,
                "nc1 in rx": nc_in.rx_packets,
                "in0 rx": process.devices["in0"].rx_packets,
                "out0 tx": process.devices["out0"].tx_packets,
                "out0 tx_dropped": process.devices["out0"].tx_dropped,
                "s1>out0 tx": from_vnf.tx_packets,
                "nc1 out rx": nc_out.rx_packets,
                "out0 rx": process.devices["out0"].rx_packets,
                "out0 rx_dropped": process.devices["out0"].rx_dropped,
                "nc1 out tx": nc_out.tx_packets,
                "s1<vnf rx": from_vnf.rx_packets,
                "s1>s2 tx": to_s2.tx_packets,
                "s2<s1 rx": from_s1.rx_packets,
                "s2>h2 tx": to_h2.tx_packets,
                "s2>h2 tx_dropped": to_h2.tx_dropped,
                "h2 rx": h2.default_interface().rx_packets,
                "h2 udp": h2.udp_rx_count,
            }

        before = counters()
        offer(escape, 100, 64)   # 0.1 s of traffic, faults in mid-flow
        sim.schedule(0.020, s1.datapath.set_port_up, from_h1.port_no, False)
        sim.schedule(0.040, s1.datapath.set_port_up, from_h1.port_no, True)
        sim.schedule(0.050, s2.datapath.set_port_up, to_h2.port_no, False)
        sim.schedule(0.070, s2.datapath.set_port_up, to_h2.port_no, True)
        sim.schedule(0.080, nc1.disconnect_vnf, process.vnf_id, "out0")
        # what a discovery round or an ARP flood does: frames out of the
        # port facing the VNF's output side, which no FromDevice reads
        for index in range(3):
            sim.schedule(0.010 * index, from_vnf.send, b"flooded %d" % index)
        escape.run(0.5)
        after = counters()
        moved = {hop: after[hop] - before[hop] for hop in before}

        dead_port, dead_out, unspliced = (moved["s1<h1 rx_dropped"],
                                          moved["s2>h2 tx_dropped"],
                                          moved["out0 tx_dropped"])
        assert dead_port > 0 and dead_out > 0 and unspliced > 0
        assert moved["h1 tx"] == 100
        assert moved["h2 udp"] == 100 - dead_port - unspliced - dead_out
        # hop by hop: each counter is the previous one minus a named drop
        assert moved["s1<h1 rx"] == 100 - dead_port
        for hop in ("s1>vnf tx", "nc1 in rx", "in0 rx"):
            assert moved[hop] == moved["s1<h1 rx"], hop
        assert moved["out0 tx"] == moved["in0 rx"] - unspliced
        for hop in ("nc1 out tx", "s1<vnf rx", "s1>s2 tx", "s2<s1 rx"):
            assert moved[hop] == moved["out0 tx"], hop
        assert moved["s2>h2 tx"] == moved["s2<s1 rx"] - dead_out
        assert moved["h2 rx"] == moved["h2 udp"] == moved["s2>h2 tx"]
        # the other way: nobody reads out0, and the device says so
        assert moved["s1>out0 tx"] == moved["nc1 out rx"] == 3
        assert (moved["out0 rx"], moved["out0 rx_dropped"]) == (0, 3)

        # datagrams queued behind an ARP request that nobody answers
        sent = h1.default_interface().tx_packets
        for index in range(3):
            h1.send_udp("10.0.0.99", 7000, b"anybody? %d" % index)
        assert h1.arp_dropped == 0
        escape.run(h1.ARP_TIMEOUT + 0.1)
        assert h1.default_interface().tx_packets == sent + 1  # the request
        assert h1.arp_dropped == 3
        timeout, = [event for event in escape.telemetry.events.events()
                    if event.name == "arp.timeout"]
        assert timeout.tags["target"] == "10.0.0.99"
        assert timeout.tags["frames"] == 3

    def test_a_loose_end_counts_what_it_cannot_carry(self):
        intf = Interface("x-eth0", None, EthAddr(1))
        intf.send(b"nowhere to go")
        intf.receive(b"nobody to tell")
        assert (intf.tx_packets, intf.tx_dropped) == (0, 1)
        assert (intf.rx_packets, intf.rx_dropped) == (0, 1)
