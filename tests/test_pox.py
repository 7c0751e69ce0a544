"""Tests for the POX-analog controller platform."""

import pytest

from repro.netem import Network
from repro.openflow import Match, Output
from repro.pox import (ConnectionUp, Core, Discovery, L2LearningSwitch,
                       OpenFlowNexus, PacketInEvent, PathHop,
                       SteeringChange, SteeringError, TrafficSteering)
from repro.pox.events import Event, EventMixin
from repro.sim import Simulator


class TestEventMixin:
    class Ping(Event):
        pass

    class Pong(Event):
        pass

    def test_listener_receives_event(self):
        bus = EventMixin()
        got = []
        bus.add_listener(self.Ping, got.append)
        bus.raise_event(self.Ping())
        assert len(got) == 1

    def test_listener_filtered_by_type(self):
        bus = EventMixin()
        got = []
        bus.add_listener(self.Ping, got.append)
        bus.raise_event(self.Pong())
        assert got == []

    def test_halt_stops_propagation(self):
        bus = EventMixin()
        order = []

        def first(event):
            order.append("first")
            event.halt = True

        bus.add_listener(self.Ping, first)
        bus.add_listener(self.Ping, lambda e: order.append("second"))
        bus.raise_event(self.Ping())
        assert order == ["first"]

    def test_remove_listener(self):
        bus = EventMixin()
        got = []
        callback = bus.add_listener(self.Ping, got.append)
        bus.remove_listener(self.Ping, callback)
        bus.raise_event(self.Ping())
        assert got == []

    def test_add_listeners_by_naming_convention(self):
        bus = EventMixin()

        class Component:
            def __init__(self):
                self.seen = []

            def _handle_Ping(self, event):
                self.seen.append(event)

        component = Component()
        bus.add_listeners(component)
        bus.raise_event(self.Ping())
        assert len(component.seen) == 1


class TestCore:
    def test_register_and_lookup(self):
        core = Core()
        core.register("thing", 42)
        assert core.component("thing") == 42
        assert core.thing == 42
        assert core.has_component("thing")

    def test_duplicate_rejected(self):
        core = Core()
        core.register("x", 1)
        with pytest.raises(ValueError):
            core.register("x", 2)

    def test_missing_attribute(self):
        with pytest.raises(AttributeError):
            Core().nothing_here


def build_controlled(topo_builder):
    """Create a network + nexus + learning switch + discovery."""
    net = Network()
    core = Core(net.sim)
    nexus = OpenFlowNexus(core)
    learning = L2LearningSwitch(nexus)
    discovery = Discovery(nexus)
    topo_builder(net)
    net.add_controller(nexus)
    net.start()
    return net, nexus, learning, discovery


def two_switch_topo(net):
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    s1, s2 = net.add_switch("s1"), net.add_switch("s2")
    net.add_link(h1, s1, delay=0.001)
    net.add_link(s1, s2, delay=0.001)
    net.add_link(h2, s2, delay=0.001)


class TestNexus:
    def test_connections_registered_after_handshake(self):
        net, nexus, _l2, _disc = build_controlled(two_switch_topo)
        net.run(0.1)
        assert sorted(nexus.connections) == [1, 2]

    def test_connection_up_events(self):
        events = []
        net = Network()
        core = Core(net.sim)
        nexus = OpenFlowNexus(core)
        nexus.add_listener(ConnectionUp, events.append)
        net.add_switch("s1")
        net.add_controller(nexus)
        net.start()
        net.run(0.1)
        assert len(events) == 1
        assert events[0].dpid == 1

    def test_connection_ports_populated(self):
        net, nexus, _l2, _disc = build_controlled(two_switch_topo)
        net.run(0.1)
        connection = nexus.connection(1)
        assert len(connection.ports) == 2

    def test_send_by_dpid(self):
        net, nexus, _l2, _disc = build_controlled(two_switch_topo)
        net.run(0.1)
        from repro.openflow import FlowMod
        nexus.send(1, FlowMod(Match(), [Output(1)]))
        net.run(0.1)
        switch = net.get("s1")
        assert len(switch.datapath.table) == 1

    def test_unknown_dpid_raises(self):
        net, nexus, _l2, _disc = build_controlled(two_switch_topo)
        net.run(0.1)
        with pytest.raises(KeyError):
            nexus.connection(99)


class TestL2Learning:
    def test_hosts_reach_each_other(self):
        net, _nexus, _l2, _disc = build_controlled(two_switch_topo)
        net.run(0.2)
        h1, h2 = net.get("h1"), net.get("h2")
        result = h1.ping(h2.ip, count=2, interval=0.2)
        net.run(2.0)
        assert result.received == 2

    def test_flows_installed_after_learning(self):
        net, _nexus, learning, _disc = build_controlled(two_switch_topo)
        net.run(0.2)
        h1, h2 = net.get("h1"), net.get("h2")
        h1.ping(h2.ip, count=1)
        net.run(1.0)
        assert learning.flows_installed > 0
        assert learning.mac_table  # learned something

    def test_second_ping_faster_than_first(self):
        """First exchange pays packet-in RTTs; repeats hit the tables."""
        net, _nexus, _l2, _disc = build_controlled(two_switch_topo)
        net.run(0.2)
        h1, h2 = net.get("h1"), net.get("h2")
        result = h1.ping(h2.ip, count=3, interval=0.5)
        net.run(3.0)
        assert result.rtts[0] > result.rtts[-1]


class TestDiscovery:
    @staticmethod
    def _discovered():
        net, _nexus, _l2, discovery = build_controlled(two_switch_topo)
        net.run(0.1)  # the OF handshakes
        discovery.discover(net.inter_switch_ports())
        return net, discovery

    def test_nothing_sent_until_asked(self):
        net, _nexus, _l2, discovery = build_controlled(two_switch_topo)
        net.run(5.0)
        assert discovery.probes_sent == 0
        assert discovery.adjacency == {}

    def test_inter_switch_link_found(self):
        _net, discovery = self._discovered()
        assert discovery.links() == {(1, 2, 2, 1)} \
            or discovery.links() == {(2, 1, 1, 2)}

    def test_peer_of(self):
        _net, discovery = self._discovered()
        peer = discovery.peer_of(1, 2)
        assert peer == (2, 1)

    def test_host_ports_not_links(self):
        _net, discovery = self._discovered()
        # only the single switch-switch adjacency (both directions)
        assert len(discovery.adjacency) == 2
        assert discovery.probes_sent == 2

    def test_consumed_probes_do_not_exhaust_switch_buffers(self):
        """Discovery consumes LLDP packet-ins without releasing their
        buffers.  On a looped topology with a four-buffer pool, a table
        miss after a few probe rounds must still be buffered: a
        ``miss_send_len`` slice with a buffer id, not the whole frame."""
        from repro.packet import EthAddr, IPAddr
        net = Network()
        nexus = OpenFlowNexus(Core(net.sim))
        discovery = Discovery(nexus)
        h1 = net.add_host("h1")
        s1, s2, s3 = (net.add_switch(name) for name in ("s1", "s2", "s3"))
        for a, b in ((s1, s2), (s2, s3), (s3, s1)):
            net.add_link(a, b, delay=0.001)
        net.add_link(h1, s1, delay=0.001)
        for switch in (s1, s2, s3):
            switch.datapath.n_buffers = 4
        net.add_controller(nexus)
        net.start()
        net.run(0.1)
        for _ in range(3):  # two probes reach each switch per round
            discovery.discover(net.inter_switch_ports())
        assert s1.datapath.packet_in_count > 4
        misses = []
        nexus.add_listener(PacketInEvent, misses.append)
        h1.arp_table[IPAddr("10.0.0.99")] = EthAddr("00:00:00:00:00:99")
        h1.send_udp("10.0.0.99", 9, bytes(400))
        net.run(0.1)
        miss, = [event.ofp for event in misses if event.parsed.type
                 == event.parsed.IP_TYPE]
        assert miss.buffer_id is not None
        assert len(miss.data) == s1.datapath.miss_send_len < miss.total_len
        assert len(s1.datapath._buffers) == 4


def test_discovery_has_no_patrol_settings():
    """Discovery runs one round when asked: there is no interval, no
    link time-out and no link event to subscribe to."""
    import inspect
    import repro.pox
    from repro.core import ESCAPE
    assert "discovery_interval" not in inspect.signature(ESCAPE).parameters
    assert list(inspect.signature(Discovery).parameters) == ["nexus"]
    assert not hasattr(repro.pox, "LinkEvent")
    assert "LinkEvent" not in repro.pox.__all__


class TestSteering:
    def _ready(self):
        net = Network()
        core = Core(net.sim)
        nexus = OpenFlowNexus(core)
        steering = TrafficSteering(nexus)
        two_switch_topo(net)
        net.add_controller(nexus)
        net.start()
        net.run(0.1)
        return net, steering

    @staticmethod
    def _install(steering, path_id, hops, match=None, **options):
        steering.apply(SteeringChange().install(
            path_id, hops, match or Match(), **options))

    def test_exact_mode_one_flowmod_per_hop(self):
        net, steering = self._ready()
        hops = [PathHop(1, 1, 2), PathHop(2, 1, 2)]
        self._install(steering, "p1", hops, Match(nw_src="10.0.0.1"))
        assert steering.flow_mod_count("p1") == 2
        net.run(0.1)
        assert len(net.get("s1").datapath.table) == 1
        assert len(net.get("s2").datapath.table) == 1

    def test_remove_path_clears_entries(self):
        net, steering = self._ready()
        self._install(steering, "p1", [PathHop(1, 1, 2)],
                      Match(nw_src="10.0.0.1"))
        net.run(0.1)
        assert len(net.get("s1").datapath.table) == 1
        steering.apply(SteeringChange().remove("p1"))
        net.run(0.1)
        assert len(net.get("s1").datapath.table) == 0

    def test_duplicate_path_id_rejected(self):
        _net, steering = self._ready()
        self._install(steering, "p1", [PathHop(1, 1, 2)])
        with pytest.raises(SteeringError):
            self._install(steering, "p1", [PathHop(1, 1, 2)])
        with pytest.raises(SteeringError):
            steering.apply(SteeringChange()
                           .install("p2", [PathHop(1, 1, 2)], Match())
                           .install("p2", [PathHop(2, 1, 2)], Match()))
        with pytest.raises(SteeringError):
            steering.apply(SteeringChange().remove("p1", "p1"))
        assert sorted(steering.paths) == ["p1"]

    def test_empty_hops_rejected(self):
        _net, steering = self._ready()
        with pytest.raises(SteeringError):
            self._install(steering, "p1", [])

    def test_unknown_switch_rejected(self):
        _net, steering = self._ready()
        with pytest.raises(SteeringError):
            self._install(steering, "p1", [PathHop(77, 1, 2)])
        with pytest.raises(SteeringError):
            self._install(steering, "p1", [PathHop(1, 1, 2)],
                          backup_hops=[PathHop(77, 1, 2)])

    def test_remove_unknown_rejected(self):
        _net, steering = self._ready()
        with pytest.raises(SteeringError):
            steering.apply(SteeringChange().remove("ghost"))

    def test_refused_change_sends_nothing(self):
        """The bad install comes last; the removal and the good install
        before it are not sent either."""
        net, steering = self._ready()
        self._install(steering, "old", [PathHop(1, 1, 2)])
        sent = steering.flow_mods_sent
        with pytest.raises(SteeringError, match="dpid=77"):
            steering.apply(SteeringChange()
                           .remove("old")
                           .install("new", [PathHop(1, 1, 2)], Match())
                           .install("bad", [PathHop(77, 1, 2)], Match()))
        assert steering.flow_mods_sent == sent
        assert sorted(steering.paths) == ["old"]
        net.run(0.1)
        assert len(net.get("s1").datapath.table) == 1

    def test_change_removes_before_it_installs(self):
        """A path may be re-installed under its own id in one change:
        the DELETE_STRICT goes first, so the fresh entry survives."""
        from repro.openflow import FlowMod
        net, steering = self._ready()
        self._install(steering, "p1", [PathHop(1, 1, 2)],
                      Match(nw_src="10.0.0.1"))
        commands = []
        send = steering.nexus.send
        steering.nexus.send = lambda dpid, message: (
            commands.append(message.command), send(dpid, message))
        steering.apply(SteeringChange().remove("p1").install(
            "p1", [PathHop(1, 1, 2)], Match(nw_src="10.0.0.1")))
        assert commands == [FlowMod.DELETE_STRICT, FlowMod.ADD]
        net.run(0.1)
        assert len(net.get("s1").datapath.table) == 1

    def test_steering_beats_learning_priority(self):
        from repro.pox.l2_learning import LEARNING_PRIORITY
        from repro.pox.steering import STEERING_PRIORITY
        assert STEERING_PRIORITY > LEARNING_PRIORITY

class TestSharedEntries:
    """A switch holds one entry per (match, priority): each steering
    entry has one owning path, and a change that would overwrite
    another path's entry is refused having sent nothing."""

    HOPS = [PathHop(1, 1, 2), PathHop(2, 1, 2)]
    MATCH = Match(nw_src="10.0.0.1")

    def _ready(self):
        net, steering = TestSteering()._ready()
        steering.apply(SteeringChange().install("p1", self.HOPS, self.MATCH))
        net.run(0.1)
        return net, steering

    @staticmethod
    def _state(steering):
        return (steering.flow_mods_sent, steering.group_mods_sent,
                sorted(steering.paths), dict(steering._group_index),
                steering._next_group_id)

    def test_identical_entry_of_a_live_path_refused(self):
        net, steering = self._ready()
        # a protected install, so a failover group is planned too
        before = self._state(steering)
        with pytest.raises(SteeringError, match="'p2' would overwrite an "
                           "entry of path 'p1' at dpid=1"):
            steering.apply(SteeringChange().install(
                "p2", self.HOPS, self.MATCH,
                backup_hops=[PathHop(1, 1, 3)]))
        assert self._state(steering) == before
        net.run(0.1)
        assert audit_tables_of(net, steering) == []

    def test_colliding_installs_of_one_change_refused(self):
        _net, steering = self._ready()
        before = self._state(steering)
        with pytest.raises(SteeringError, match="'p3'.*'p2'.*dpid=2"):
            steering.apply(SteeringChange()
                           .install("p2", [PathHop(2, 1, 2)],
                                    Match(nw_src="10.0.0.2"))
                           .install("p3", [PathHop(2, 1, 3)],
                                    Match(nw_src="10.0.0.2")))
        assert self._state(steering) == before

    def test_removing_the_holder_in_the_same_change_accepted(self):
        """Re-steering removes the old route and installs the new one
        in one change: the new one may take over the old one's
        entries."""
        net, steering = self._ready()
        steering.apply(SteeringChange().remove("p1")
                       .install("p2", self.HOPS, self.MATCH))
        net.run(0.1)
        assert sorted(steering.paths) == ["p2"]
        assert [len(net.get(name).datapath.table)
                for name in ("s1", "s2")] == [1, 1]
        assert audit_tables_of(net, steering) == []

    def test_a_different_match_accepted(self):
        net, steering = self._ready()
        steering.apply(SteeringChange().install(
            "p2", self.HOPS, Match(nw_src="10.0.0.2")))
        net.run(0.1)
        assert [len(net.get(name).datapath.table)
                for name in ("s1", "s2")] == [2, 2]
        assert audit_tables_of(net, steering) == []

    def test_a_different_priority_accepted(self):
        """An entry one priority below (where a backup hop sits) does
        not collide with a primary entry of the same match."""
        from repro.openflow import FlowMod
        from repro.pox.steering import STEERING_PRIORITY, _InstalledPath
        net, steering = TestSteering()._ready()
        match = Match(nw_src="10.0.0.1", in_port=1)
        steering.paths["low"] = _InstalledPath(
            "low", [PathHop(1, 1, 3)], self.MATCH,
            [(1, FlowMod(match, [Output(3)],
                         priority=STEERING_PRIORITY - 1))], [], [])
        steering.apply(SteeringChange().install("p1", self.HOPS, self.MATCH))
        assert sorted(steering.paths) == ["low", "p1"]

    def test_steering_entries_ask_for_no_flow_removed(self):
        net, _steering = self._ready()
        entry = net.get("s1").datapath.table.entries[0]
        assert entry.flags == 0


def test_one_steering_granularity():
    """Exact-match steering is the one granularity: the controller
    sends Output and Group, the codec decodes no other action, and
    there is no mode to choose."""
    import inspect
    import struct
    from repro.core import ESCAPE
    from repro.openflow import Action, Group
    from repro.openflow.wire import WireError, unpack_actions
    assert set(Action.__subclasses__()) == {Output, Group}
    for action_type in (1, 6):  # OFPAT_SET_VLAN_VID, OFPAT_SET_NW_SRC
        with pytest.raises(WireError,
                           match="unknown action type %d" % action_type):
            unpack_actions(struct.pack("!HH4x", action_type, 8))
    steering = TrafficSteering(OpenFlowNexus(Core(Simulator())))
    assert not hasattr(steering, "mode")
    assert "mode" not in inspect.signature(TrafficSteering).parameters
    assert "steering_mode" not in inspect.signature(ESCAPE).parameters


def audit_tables_of(net, steering):
    """``tests.audit.audit_tables`` for a bare network and steering."""
    from types import SimpleNamespace
    from tests.audit import audit_tables
    return audit_tables(SimpleNamespace(net=net, steering=steering))
