"""Property-based tests (hypothesis) on the core data structures."""

import functools
import random
import struct
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.nffg import ResourceView
from repro.netconf import messages as nc
from repro.netconf.framing import ChunkedFramer, EomFramer
from repro.openflow import (ControllerChannel, FlowEntry, FlowMod, FlowTable,
                            Group, GroupBucket, GroupMod, Match,
                            OpenFlowSwitch, Output, OFPP_CONTROLLER,
                            OFPP_FLOOD, OFPP_IN_PORT)
from repro.netem import Host
from repro.openflow import messages as of_msg
from repro.openflow.match import NO_VLAN, flow_key
from repro.openflow.wire import (WireError, pack_actions, pack_message,
                                 unpack_actions, unpack_message)
from repro.packet import (ARP, ICMP, EthAddr, Ethernet, IPAddr, IPv4, TCP,
                          UDP, Vlan, pack_udp_frame, unpack_udp_frame)
from repro.packet.base import PacketError, checksum
from repro.packet.probe import PROBE_MAGIC
from repro.sim import Simulator


# -- simulator ordering -------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                          allow_nan=False), min_size=1, max_size=50))
def test_simulator_fires_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=40))
def test_simulator_cancellation_is_exact(entries):
    sim = Simulator()
    fired = []
    events = []
    for index, (delay, cancel) in enumerate(entries):
        events.append((sim.schedule(delay, fired.append, index), cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    sim.run()
    expected = {index for index, (_delay, cancel) in enumerate(entries)
                if not cancel}
    assert set(fired) == expected


# -- event core vs a sorted-list model -----------------------------------

# multiples of 1/32: every sum of them is exact in a float, so the model
# can compare instants with ==
_ticks = st.integers(min_value=0, max_value=96).map(lambda k: k / 32.0)
_core_ops = st.one_of(
    st.tuples(st.just("schedule"), _ticks),
    st.tuples(st.just("cancel"), st.integers(0, 999)),
    st.tuples(st.sampled_from(["arm", "arm_at", "arm_before"]),
              st.integers(0, 1), _ticks),
    st.tuples(st.just("disarm"), st.integers(0, 1)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), _ticks),
    st.tuples(st.just("wait"), st.integers(0, 3), _ticks))


class _SortedListCore:
    """What ``repro.sim`` promises, with no heap: live entries ``(time,
    seq, label)`` in a list, the next to fire is their minimum."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.live = []
        self.log = []
        self.armed = [None, None]  # the pending entry of each wakeup

    def add(self, when, label):
        entry = (when, self.seq, label)
        self.seq += 1
        self.live.append(entry)
        return entry

    def drop(self, entry):
        if entry in self.live:
            self.live.remove(entry)

    def arm_at(self, index, when):
        when = max(when, self.now)
        entry = self.armed[index]
        if entry is not None:
            if entry[0] == when:
                return
            self.live.remove(entry)
        self.armed[index] = self.add(when, ("wakeup", index))

    def fire_next(self, horizon=None):
        if not self.live or (horizon is not None
                             and min(self.live)[0] > horizon):
            return False
        when, _seq, label = entry = min(self.live)
        self.live.remove(entry)
        self.now = when
        self.log.append((when, label))
        if label[0] == "wakeup":
            self.armed[label[1]] = None
        return True


@given(st.lists(_core_ops, min_size=1, max_size=60))
@settings(max_examples=400, deadline=None)
def test_event_core_equals_a_sorted_list(ops):
    """Random interleavings of everything the core offers: callbacks
    fire in (time, seq) order, a wakeup fires once at its last armed
    instant, and every scheduled event has exactly one heap entry until
    it is dispatched or discarded."""
    sim = Simulator()
    sim.COMPACT_MIN = 2  # compactions within reach of 60 operations
    model = _SortedListCore()
    log = []

    def record(label):
        log.append((sim.now, label))

    wakeups = [sim.wakeup(record, ("wakeup", index)) for index in (0, 1)]
    events = []  # (sim event, model entry)
    for op in ops:
        kind = op[0]
        if kind == "schedule":
            label = ("event", len(events))
            events.append((sim.schedule(op[1], record, label),
                           model.add(model.now + op[1], label)))
        elif kind == "cancel":
            if events:
                event, entry = events[op[1] % len(events)]
                event.cancel()
                model.drop(entry)
        elif kind == "arm":
            wakeups[op[1]].arm(op[2])
            model.arm_at(op[1], model.now + op[2])
        elif kind == "arm_at":
            when = model.now + op[2] - 1.0  # a third of them in the past
            wakeups[op[1]].arm_at(when)
            model.arm_at(op[1], when)
        elif kind == "arm_before":
            when = model.now + op[2]
            wakeups[op[1]].arm_before(when)
            entry = model.armed[op[1]]
            if entry is None or entry[0] > when:
                model.arm_at(op[1], when)
        elif kind == "disarm":
            wakeups[op[1]].disarm()
            if model.armed[op[1]] is not None:
                model.drop(model.armed[op[1]])
                model.armed[op[1]] = None
        elif kind == "step":
            assert sim.step() == model.fire_next()
        elif kind == "run":
            horizon = model.now + op[1]
            expected = 0
            while model.fire_next(horizon):
                expected += 1
            model.now = horizon
            assert sim.run(until=horizon) == expected
        else:
            goal, deadline = len(log) + op[1], model.now + op[2]
            expected = True
            while len(model.log) < goal and expected:
                expected = model.fire_next(deadline)
            assert sim.wait(lambda: len(log) >= goal, op[2]) is expected
        assert log == model.log
        assert sim.now == model.now
        assert sim.pending == len(model.live)
        assert sim.processed == len(log)
        assert sim.scheduled == (sim.processed + sim.cancelled_popped
                                 + sim.heap_depth)
        for wakeup, entry in zip(wakeups, model.armed):
            assert wakeup.armed == (entry is not None)
            assert entry is None or wakeup.event.time == entry[0]
    sim.run()
    while model.fire_next():
        pass
    assert log == model.log and sim.heap_depth == 0


# -- flow table vs brute force ------------------------------------------


def _random_match(rng):
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["in_port"] = rng.randint(1, 3)
    if rng.random() < 0.5:
        kwargs["nw_src"] = "10.0.0.%d" % rng.randint(1, 3)
    if rng.random() < 0.5:
        kwargs["tp_dst"] = rng.choice([80, 443])
    return Match(**kwargs)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=1))
@settings(max_examples=60)
def test_flowtable_lookup_matches_brute_force(seed, in_port, host_octet,
                                              port_choice):
    rng = random.Random(seed)
    table = FlowTable()
    entries = []
    for index in range(rng.randint(1, 10)):
        entry = FlowEntry(_random_match(rng), [Output(index)],
                          priority=rng.randint(0, 5))
        table.add(entry)
    # the table may have deduplicated (same match+priority replaces)
    entries = table.entries
    packet = Ethernet(
        src="00:00:00:00:00:01", dst="00:00:00:00:00:02",
        type=Ethernet.IP_TYPE,
        payload=IPv4(srcip="10.0.0.%d" % host_octet, dstip="10.0.0.9",
                     protocol=IPv4.UDP_PROTOCOL,
                     payload=UDP(srcport=1111,
                                 dstport=[80, 443][port_choice]))).pack()
    result = table.lookup(packet, in_port, now=0.0)
    brute = [entry for entry in entries
             if entry.match.matches_packet(packet, in_port)]
    if not brute:
        assert result is None
    else:
        best_priority = max(entry.priority for entry in brute)
        assert result is not None
        assert result.priority == best_priority
        assert result.match.matches_packet(packet, in_port)


# -- framing under arbitrary segmentation -----------------------------------


@given(st.lists(st.binary(min_size=1, max_size=60), min_size=1,
                max_size=6),
       st.lists(st.integers(min_value=1, max_value=64), max_size=30))
def test_chunked_framer_survives_any_segmentation(payloads, cut_sizes):
    tx, rx = ChunkedFramer(), ChunkedFramer()
    stream = b"".join(tx.frame(payload) for payload in payloads)
    received = []
    position = 0
    cuts = list(cut_sizes) or [len(stream)]
    cut_index = 0
    while position < len(stream):
        size = cuts[cut_index % len(cuts)]
        cut_index += 1
        received.extend(rx.feed(stream[position:position + size]))
        position += size
    assert received == payloads


@given(st.lists(st.binary(min_size=1, max_size=60).filter(
    lambda data: b"]]>]]>" not in data), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=7))
def test_eom_framer_survives_fixed_segmentation(payloads, chunk):
    tx, rx = EomFramer(), EomFramer()
    stream = b"".join(tx.frame(payload) for payload in payloads)
    received = []
    for start in range(0, len(stream), chunk):
        received.extend(rx.feed(stream[start:start + chunk]))
    assert received == payloads


# -- resource view conservation -------------------------------------------


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=2.0),
                          st.floats(min_value=1.0, max_value=512.0),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=20))
def test_resource_view_conservation(demands):
    view = ResourceView()
    view.add_container("nc", cpu=100.0, mem=100000.0, ports=100)
    granted = []
    for index, (cpu, mem, ports) in enumerate(demands):
        if view.container_fits("nc", cpu, mem, ports):
            view.reserve_container("nc", cpu, mem, ports)
            granted.append((cpu, mem, ports))
    data = view.graph.nodes["nc"]
    assert data["cpu_used"] <= data["cpu"] + 1e-9
    assert abs(data["cpu_used"] - sum(g[0] for g in granted)) < 1e-6
    assert data["ports_used"] == sum(g[2] for g in granted)
    for cpu, mem, ports in granted:
        view.release_container("nc", cpu, mem, ports)
    assert view.graph.nodes["nc"]["cpu_used"] < 1e-6
    assert view.graph.nodes["nc"]["ports_used"] == 0


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30)
def test_shortest_path_is_optimal(seed):
    """Dijkstra's result never beats a brute-force enumeration."""
    import itertools
    rng = random.Random(seed)
    view = ResourceView()
    names = ["s%d" % index for index in range(5)]
    for index, name in enumerate(names):
        view.add_switch(name, index + 1)
    edges = []
    for a, b in itertools.combinations(names, 2):
        if rng.random() < 0.7:
            delay = rng.uniform(0.001, 0.01)
            view.add_link(a, b, delay=delay)
            edges.append((a, b, delay))
    path = view.shortest_path("s0", "s4")
    if path is None:
        return
    found_delay = view.path_delay(path)
    # brute force over all simple paths
    import networkx as nx
    oracle = nx.Graph()
    oracle.add_nodes_from(view.graph)
    oracle.add_edges_from(view.graph.edges())
    best = min(view.path_delay(candidate) for candidate in
               nx.all_simple_paths(oracle, "s0", "s4"))
    assert found_delay <= best + 1e-12


# -- memoised shortest paths vs a view that has no memo yet ----------------

_NAMES = ["s0", "s1", "s2", "s3", "c0", "late"]
_name = st.sampled_from(_NAMES)
_view_op = st.one_of(
    st.tuples(st.just("link"), _name, _name,
              st.sampled_from([0.001, 0.002, 0.003]),   # ties are likely
              st.sampled_from([None, 10.0, 10.0])),
    # (re)declare a node: a switch that turns container is no hairpin
    st.tuples(st.just("node"), _name, st.booleans()),
    # the n-th link goes down or comes back
    st.tuples(st.just("up"), st.integers(0, 14), st.booleans()),
    st.tuples(st.just("reserve"), _name, _name, st.sampled_from([4.0, 6.0])))


def _declare(view, name, switch):
    if switch:
        view.add_switch(name)
    else:
        view.add_container(name, cpu=1.0, mem=1.0)


@given(st.lists(_view_op, min_size=1, max_size=30))
@settings(max_examples=120, deadline=None)
def test_memoised_shortest_path_equals_a_fresh_view(ops):
    """Whatever was asked before, ``shortest_path`` answers as a view
    does that was built the same way and has answered nothing yet -
    same path, same tie-break, with and without a bandwidth floor - and
    editing an answer changes no later one."""
    live = ResourceView()
    built = []   # the add_* / add_link calls made on ``live``, in order

    def fresh():
        view = ResourceView()
        for step in built:
            if step[0] == "node":
                _declare(view, *step[1:])
            else:
                view.add_link(*step[1:])
        for node1, node2 in live.down_links():
            view.set_link_up(node1, node2, False)
        for node1, node2, data in live.graph.edges(data=True):
            view.graph.edges[node1, node2]["bw_used"] = data["bw_used"]
        return view

    def check():
        reference = fresh()
        for src in live.graph:
            for dst in live.graph:
                for floor in (0.0, 5.0):
                    expected = reference.shortest_path(src, dst, floor)
                    answer = live.shortest_path(src, dst, floor)
                    assert answer == expected
                    if answer is not None:
                        assert all(live.link_free_bandwidth(a, b) >= floor
                                   for a, b in zip(answer, answer[1:]))
                        answer.reverse()
                        answer.append("poison")
        return reference

    # a ring of four switches with a container on it, then the edits
    start = [("node", name, name.startswith("s")) for name in _NAMES[:-1]]
    start += [("link", "s%d" % index, "s%d" % ((index + 1) % 4), 0.001,
               10.0) for index in range(4)] + [("link", "c0", "s0", 0.001,
                                                10.0)]
    for op in start + ops:
        kind = op[0]
        present = all(name in live.graph for name in op[1:3]
                      if isinstance(name, str))
        if kind == "node":
            built.append(op)
            _declare(live, *op[1:])
        elif kind == "link" and present and op[1] != op[2]:
            built.append(op)
            live.add_link(*op[1:])
        elif kind == "up" and live.graph.number_of_edges():
            edges = sorted(live.graph.edges)
            live.set_link_up(*edges[op[1] % len(edges)], op[2])
        elif kind == "reserve" and present:
            path = live.shortest_path(op[1], op[2], op[3])
            if path is not None:
                try:
                    live.reserve_path_bandwidth(path, op[3])
                except ValueError:
                    pass   # a hairpin asks its one link twice
        reference = check()
    # a copy keeps the down set; Graph.copy() re-adds edges node by
    # node, so it may break a tie the other way - equal cost, not
    # equal path
    clone = live.copy()
    clone._paths.clear()
    for src in live.graph:
        for dst in live.graph:
            path = clone.shortest_path(src, dst)
            expected = reference.shortest_path(src, dst)
            assert (path is None) == (expected is None)
            if path is not None:
                assert all(clone.link_is_up(a, b)
                           for a, b in zip(path, path[1:]))
                assert clone.path_delay(path) == pytest.approx(
                    reference.path_delay(expected), abs=1e-12)


# -- one-pass NETCONF serialiser vs ElementTree ----------------------------

_URIS = ["urn:example:n%d" % index for index in range(13)] + [
    nc.BASE_NS, "", "urn:x&y", 'urn:"quoted"<uri>']
_chars = st.text(alphabet=st.sampled_from(
    list("ab -:/;()") + ["&", "<", ">", '"', "'", "\r", "\n", "\t",
                         "\u00e9", "\u20ac", "\ud800"]), max_size=12)
_attributes = st.dictionaries(
    st.sampled_from(["message-id", "type", "a", "xmlns-like"]), _chars,
    max_size=3)


def _reference(tree):
    return ET.tostring(tree, encoding="utf-8", xml_declaration=True)


def _outcome(serialise, tree):
    try:
        return serialise(tree)
    except Exception as exc:
        return type(exc)


#: every tree shape ``to_xml`` hands to ElementTree, as an edit of one
#: element of an otherwise plain tree
_QUIRKS = {
    "unqualified tag": lambda el: setattr(el, "tag", "plain"),
    "well-known namespace": lambda el: setattr(
        el, "tag", "{http://www.w3.org/2001/XMLSchema-instance}nil"),
    "xml namespace": lambda el: setattr(
        el, "tag", "{http://www.w3.org/XML/1998/namespace}lang"),
    "unterminated namespace": lambda el: setattr(el, "tag", "{urn:oops"),
    "QName tag": lambda el: setattr(el, "tag", ET.QName("urn:q", "t")),
    "no tag": lambda el: setattr(el, "tag", None),
    "comment": lambda el: el.append(ET.Comment("note")),
    "processing instruction": lambda el: el.append(
        ET.ProcessingInstruction("target", "data")),
    "qualified attribute": lambda el: el.set("{urn:attr}a", "1"),
    "QName attribute name": lambda el: el.set(ET.QName("urn:q", "a"), "1"),
    "QName attribute value": lambda el: el.set("a", ET.QName("urn:q", "v")),
    "QName text": lambda el: setattr(el, "text", ET.QName("urn:q", "v")),
    "int attribute value": lambda el: el.set("a", 7),
    "int text": lambda el: setattr(el, "text", 7),
    "bytes text": lambda el: setattr(el, "text", b"raw"),
    "tail": lambda el: setattr(el, "tail", "after"),
}


@st.composite
def _trees(draw, quirks=False):
    """An Element tree of the shape NETCONF builds; with ``quirks``,
    some elements are edited into shapes it never builds."""
    edits = []

    def element(depth):
        tag = "{%s}%s" % (draw(st.sampled_from(_URIS)),
                          draw(st.sampled_from(["rpc", "ok", "a-b", "x"])))
        node = ET.Element(tag, draw(_attributes))
        node.text = draw(st.one_of(st.none(), _chars))
        if depth < 3:
            for _ in range(draw(st.integers(0, 2 if depth else 4))):
                node.append(element(depth + 1))
        if quirks and draw(st.integers(0, 9)) == 0:
            edits.append((draw(st.sampled_from(sorted(_QUIRKS))), node))
        return node

    root = element(0)
    for name, node in edits:
        _QUIRKS[name](node)
    return root


@given(_trees())
@settings(max_examples=400, deadline=None)
def test_one_pass_serialiser_equals_elementtree(tree):
    with mock.patch.object(ET, "tostring", wraps=ET.tostring) as slow:
        fast = nc.to_xml(tree)
    assert not slow.called
    assert fast == _reference(tree)


@given(_trees(quirks=True))
@settings(max_examples=400, deadline=None)
def test_serialiser_equals_elementtree_on_any_tree(tree):
    assert _outcome(nc.to_xml, tree) == _outcome(_reference, tree)


@pytest.mark.parametrize("quirk", sorted(_QUIRKS))
@pytest.mark.parametrize("where", ["root", "leaf"])
def test_serialiser_leaves_other_shapes_to_elementtree(quirk, where):
    operation = ET.Element(nc.qn("getVNFInfo", "urn:example:vnf"))
    ET.SubElement(operation, nc.qn("id", "urn:example:vnf")).text = "v1"
    ET.SubElement(operation, nc.qn("handler", "urn:example:vnf"))
    rpc = nc.build_rpc(7, operation)
    _QUIRKS[quirk](rpc if where == "root" else list(rpc.iter())[-1])
    expected = _outcome(_reference, rpc)
    with mock.patch.object(ET, "tostring", wraps=ET.tostring) as slow:
        assert _outcome(nc.to_xml, rpc) == expected
    assert slow.call_count == 1


def test_serialiser_orders_prefixes_as_text():
    """Twelve namespaces: ``ns10`` and ``ns11`` are declared before
    ``ns2``, as ElementTree's sort on the prefix string does."""
    root = ET.Element("{urn:example:n0}root")
    for index in range(1, 12):
        ET.SubElement(root, "{urn:example:n%d}leaf" % index)
    ET.SubElement(root[4], "{urn:example:n2}again")
    data = nc.to_xml(root)
    assert data == _reference(root)
    assert data.index(b"xmlns:ns10=") < data.index(b"xmlns:ns2=")


# -- click packet clone roundtrip ------------------------------------------


@given(st.binary(max_size=200))
def test_click_packet_clone_preserves_all(data):
    from repro.click import ClickPacket
    packet = ClickPacket(data)
    clone = packet.clone()
    assert clone is not packet
    assert clone.data == data


# -- match subset relation is consistent with matching ------------------------


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60)
def test_match_subset_implication(seed):
    """If A.is_subset_of(B), every packet matching A also matches B."""
    rng = random.Random(seed)
    match_a = _random_match(rng)
    match_b = _random_match(rng)
    if not match_a.is_subset_of(match_b):
        return
    for in_port in (1, 2, 3):
        for octet in (1, 2, 3):
            for dport in (80, 443):
                packet = Ethernet(
                    type=Ethernet.IP_TYPE,
                    payload=IPv4(srcip="10.0.0.%d" % octet,
                                 dstip="10.0.0.9",
                                 protocol=IPv4.UDP_PROTOCOL,
                                 payload=UDP(srcport=1,
                                             dstport=dport))).pack()
                if match_a.matches_packet(packet, in_port):
                    assert match_b.matches_packet(packet, in_port)


# -- the OpenFlow decoder under corruption ----------------------------------


def _wire_match(rng):
    match = _random_match(rng)
    if rng.random() < 0.5:
        match.dl_src = EthAddr("00:00:00:00:00:%02x" % rng.randint(1, 255))
    if rng.random() < 0.5:
        match.dl_vlan = rng.randint(0, 4095)
    if rng.random() < 0.5:
        match.nw_dst = (IPAddr("10.1.0.0"), rng.randint(1, 31))
    return match


def _wire_actions(rng):
    pool = [Output(rng.randint(1, 48)), Output(rng.randint(1, 48)),
            Group(rng.randint(0, 2 ** 32 - 1))]
    return rng.sample(pool, rng.randint(1, len(pool)))


def _wire_port(rng):
    return of_msg.PortDescription(
        rng.randint(1, 48), "s%d-eth%d" % (rng.randint(1, 9),
                                           rng.randint(1, 9)),
        "00:00:00:00:01:%02x" % rng.randint(0, 255),
        state=rng.randint(0, 1))


#: A random instance of each message class ``pack_message`` serialises.
_WIRE_MESSAGES = {
    "Hello": lambda rng: of_msg.Hello(),
    "EchoRequest": lambda rng: of_msg.EchoRequest(rng.randbytes(4)),
    "EchoReply": lambda rng: of_msg.EchoReply(rng.randbytes(4)),
    "FeaturesRequest": lambda rng: of_msg.FeaturesRequest(),
    "FeaturesReply": lambda rng: of_msg.FeaturesReply(
        rng.randint(1, 2 ** 40), [_wire_port(rng), _wire_port(rng)]),
    "PacketIn": lambda rng: of_msg.PacketIn(
        rng.choice([None, rng.randint(0, 1000)]), rng.randint(1, 48),
        rng.randbytes(rng.randint(0, 30))),
    "PacketOut": lambda rng: of_msg.PacketOut(
        _wire_actions(rng), data=rng.randbytes(rng.randint(1, 20)),
        in_port=rng.choice([None, rng.randint(1, 48)])),
    "FlowMod": lambda rng: FlowMod(
        _wire_match(rng), _wire_actions(rng), priority=rng.randint(0, 99),
        cookie=rng.randint(0, 2 ** 64 - 1)),
    "GroupMod": lambda rng: GroupMod(
        rng.randint(0, 2), rng.randint(0, 99), buckets=[
            GroupBucket(_wire_actions(rng), watch_port=rng.randint(1, 48)),
            GroupBucket(_wire_actions(rng))]),
    "FlowRemoved": lambda rng: of_msg.FlowRemoved(
        _wire_match(rng), rng.randint(0, 99), rng.randint(0, 99),
        rng.randint(0, 2), rng.randint(0, 10 ** 6) / 1000.0,
        rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 9)),
    "PortStatus": lambda rng: of_msg.PortStatus(rng.randint(0, 2),
                                                _wire_port(rng)),
    "BarrierRequest": lambda rng: of_msg.BarrierRequest(),
    "BarrierReply": lambda rng: of_msg.BarrierReply(),
    "FlowStatsRequest": lambda rng: of_msg.FlowStatsRequest(
        _wire_match(rng)),
    "PortStatsRequest": lambda rng: of_msg.PortStatsRequest(
        rng.choice([None, rng.randint(1, 48)])),
    "FlowStatsReply": lambda rng: of_msg.FlowStatsReply([
        of_msg.FlowStats(_wire_match(rng), rng.randint(0, 99),
                         rng.randint(0, 99), rng.randint(0, 999) / 8.0,
                         rng.randint(0, 999), rng.randint(0, 999),
                         _wire_actions(rng))
        for _ in range(rng.randint(1, 2))]),
    "PortStatsReply": lambda rng: of_msg.PortStatsReply([
        of_msg.PortStats(*(rng.randint(0, 999) for _ in range(7)))]),
    "ErrorMessage": lambda rng: of_msg.ErrorMessage(
        rng.randint(0, 5), rng.randint(0, 9), rng.randbytes(8)),
}


def _decodes_to_a_message_or_wire_error(data):
    try:
        message = unpack_message(data)
    except WireError:
        return
    pack_message(message)


@pytest.mark.parametrize("kind", sorted(_WIRE_MESSAGES))
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_corrupt_openflow_bytes_end_in_wire_error_or_a_message(kind, seed):
    """Every single-bit flip and every truncation of a packed message
    either decodes to a message that packs again or raises
    ``WireError`` — never a ``struct.error`` or ``ValueError`` from
    deeper down."""
    message = _WIRE_MESSAGES[kind](random.Random(seed))
    message.xid = seed
    packed = pack_message(message)
    assert pack_message(unpack_message(packed)) == packed
    for bit in range(len(packed) * 8):
        flipped = bytearray(packed)
        flipped[bit // 8] ^= 1 << (bit % 8)
        _decodes_to_a_message_or_wire_error(bytes(flipped))
    for length in range(len(packed)):
        _decodes_to_a_message_or_wire_error(packed[:length])


def test_an_action_of_the_wrong_length_is_a_wire_error():
    packed = bytearray(pack_message(FlowMod(Match(), [Output(2)])))
    packed[75] ^= 0x10  # OFPAT_OUTPUT's length field: 8 -> 24 bytes
    with pytest.raises(WireError, match="action type 0 is 8 bytes, not 24"):
        unpack_message(bytes(packed))


def test_a_truncated_action_says_what_is_missing():
    with pytest.raises(WireError, match="truncated action: type 0 declares "
                                        "8 bytes, 6 are left"):
        unpack_actions(pack_actions([Output(1)])[:-2])


# -- flow_key vs the packet classes -----------------------------------------


def _object_walk_key(data):
    """What ``Match.from_packet`` read off the parsed object tree before
    ``flow_key`` replaced it — kept here as the oracle."""
    packet = Ethernet.unpack(data)
    vlan = packet.find(Vlan)
    nw_tos = nw_proto = nw_src = nw_dst = tp_src = tp_dst = None
    ip = packet.find(IPv4)
    arp = packet.find(ARP)
    if ip is not None:
        nw_tos, nw_proto = ip.tos, ip.protocol
        nw_src, nw_dst = ip.srcip.to_int(), ip.dstip.to_int()
        l4 = ip.find(TCP) or ip.find(UDP)
        icmp = ip.find(ICMP)
        if l4 is not None:
            tp_src, tp_dst = l4.srcport, l4.dstport
        elif icmp is not None:
            tp_src, tp_dst = icmp.type, icmp.code
    elif arp is not None:
        nw_proto = arp.opcode
        nw_src, nw_dst = arp.protosrc.to_int(), arp.protodst.to_int()
    return (packet.src.raw, packet.dst.raw,
            vlan.vid if vlan is not None else NO_VLAN,
            packet.effective_type(), nw_tos, nw_proto, nw_src, nw_dst,
            tp_src, tp_dst)


_u16 = st.integers(0, 0xFFFF)
_u32 = st.integers(0, 0xFFFFFFFF)
_blob = st.binary(max_size=40)


def _patched(data, offset, patch):
    return data[:offset] + patch + data[offset + len(patch):]


@st.composite
def _ipv4_packets(draw, nw_dst=_u32, udp_payload=_blob):
    """An IPv4 packet built by hand so it can carry what the classes
    never emit: options, fragments, a wrong IHL, checksum or length.
    Each defect is drawn on its own so most packets have at most one."""
    def rare(*values):  # one of the defects in ~1 packet of 8
        return st.sampled_from([None] * 7 * len(values) + list(values))

    protocol = draw(st.sampled_from([1, 6, 6, 17, 17, 47]))
    if protocol == 17:
        payload = UDP(draw(_u16), draw(_u16),
                      payload=draw(udp_payload)).pack()
        if draw(st.booleans()):  # a checksum this stack did not compute
            payload = _patched(payload, 6, b"\xbe\xef")
        length = draw(rare(7, len(payload) - 1, len(payload) + 1))
        if length is not None:
            payload = _patched(payload, 4, struct.pack("!H", length))
    elif protocol == 6:
        payload = TCP(draw(_u16), draw(_u16), payload=draw(_blob)).pack()
        offset = draw(rare(4, 6, 15))
        if offset is not None:
            payload = _patched(payload, 12, bytes([offset << 4]))
    elif protocol == 1:
        payload = ICMP(type=draw(st.sampled_from([0, 3, 8])),
                       code=draw(st.integers(0, 3)),
                       payload=draw(_blob)).pack()
        if draw(rare(True)):
            payload = _patched(payload, 2, b"\x12\x34")
    else:
        payload = draw(_blob)
    options = draw(st.sampled_from([b"", b"", b"\x01" * 4, b"\x01" * 40]))
    header_len = 20 + len(options)
    total_len = draw(rare(0, 19, header_len, header_len + 7, 2000))
    if total_len is None:
        total_len = header_len + len(payload)
    ver_ihl = draw(rare(0x44, 0x46, 0x4F, 0x65)) or 0x40 | header_len // 4
    header = struct.pack(
        "!BBHHHBBHII", ver_ihl, draw(st.integers(0, 255)), total_len,
        draw(_u16), draw(st.sampled_from([0, 0x2000, 0x00B9])), 64,
        protocol, 0, draw(_u32), draw(nw_dst)) + options
    csum = checksum(header[:(ver_ihl & 0xF) * 4].ljust(20, b"\x00")) \
        ^ (draw(rare(1)) or 0)
    return _patched(header, 10, struct.pack("!H", csum)) + payload


@st.composite
def _frames(draw, **ipv4):
    ethertype, body = draw(st.one_of(
        st.tuples(st.just(Ethernet.IP_TYPE), _ipv4_packets(**ipv4)),
        st.tuples(st.just(Ethernet.IP_TYPE), _ipv4_packets(**ipv4)),
        st.tuples(st.just(Ethernet.IP_TYPE), _ipv4_packets(**ipv4)),
        st.tuples(st.just(Ethernet.ARP_TYPE), st.builds(
            lambda op, src, dst, defect: _patched(
                ARP(op, protosrc=src, protodst=dst).pack(), defect, b"\x09"),
            st.sampled_from([1, 2, 9]), _u32, _u32,
            st.sampled_from([28] * 8 + [1, 3, 4, 5]))),
        st.tuples(st.sampled_from([0x88CC, 0x86DD, 0x8100, 0x88A8]),
                  _blob)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):  # Q-in-Q
        body = struct.pack("!HH", draw(_u16), ethertype) + body
        ethertype = Ethernet.VLAN_TYPE
    frame = draw(st.binary(min_size=12, max_size=12)) \
        + struct.pack("!H", ethertype) + body
    mutation = draw(st.sampled_from(["none"] * 6 + ["cut", "flip", "pad"]))
    if mutation == "cut":  # truncation at every layer, runts included
        frame = frame[:draw(st.integers(0, len(frame)))]
    elif mutation == "flip":
        index = draw(st.integers(12, len(frame) - 1))
        frame = _patched(frame, index, bytes([draw(st.integers(0, 255))]))
    elif mutation == "pad":
        frame += bytes(draw(st.integers(1, 20)))
    return frame


@given(_frames())
@settings(max_examples=1000, deadline=None)
def test_flow_key_equals_the_object_walk(frame):
    if len(frame) < Ethernet.MIN_LEN:
        with pytest.raises(PacketError):
            flow_key(frame)
        with pytest.raises(PacketError):
            Ethernet.unpack(frame)
        return
    assert flow_key(frame) == _object_walk_key(frame)
    concrete = Match.from_packet(frame, in_port=3)
    assert concrete == Match(3, *flow_key(frame))


# -- the one-pass host codec vs the packet classes --------------------------


def _rfc1071(data):
    """The Internet checksum, word by word as RFC 1071 states it."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for index in range(0, len(data), 2):
        total += data[index] << 8 | data[index + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@given(st.one_of(st.binary(max_size=1600),
                 st.builds(lambda byte, size: bytes([byte]) * size,
                           st.sampled_from([0x00, 0xFF]),
                           st.integers(0, 1600))))
@settings(max_examples=1000, deadline=None)
def test_checksum_equals_the_word_by_word_sum(data):
    assert checksum(data) == _rfc1071(data)
    if len(data) % 2 == 0:  # a buffer carrying its own checksum verifies
        assert checksum(data + struct.pack("!H", checksum(data))) == 0


_mac = st.binary(min_size=6, max_size=6)
_port = st.integers(0, 0xFFFF)
_datagram = st.one_of(st.binary(max_size=64), st.binary(max_size=1472),
                      st.builds(PROBE_MAGIC.__add__, _blob))


@given(_mac, _mac, _u32, _u32, _port, _port, _datagram)
@settings(max_examples=500, deadline=None)
def test_one_pass_builder_equals_the_header_classes(dl_dst, dl_src, srcip,
                                                    dstip, srcport, dstport,
                                                    payload):
    reference = Ethernet(dst=dl_dst, src=dl_src, type=Ethernet.IP_TYPE,
                         payload=IPv4(srcip=srcip, dstip=dstip,
                                      protocol=IPv4.UDP_PROTOCOL,
                                      payload=UDP(srcport, dstport,
                                                  payload))).pack()
    assert pack_udp_frame(dl_dst, dl_src, srcip, dstip, srcport, dstport,
                          payload) == reference


@given(st.sampled_from([-1, 0x10000, 1 << 40]), _port, st.booleans())
def test_one_pass_builder_rejects_what_udp_rejects(bad, good, bad_is_source):
    ports = (bad, good) if bad_is_source else (good, bad)
    with pytest.raises(ValueError):
        UDP(*ports)
    with pytest.raises(ValueError):
        pack_udp_frame(b"\x02" * 6, b"\x04" * 6, 1, 2, *ports, b"x")


_HOST_MAC = bytes.fromhex("020000000001")
_HOST_IP = 0x0A000001
_PEER_IP = 0x0A000002
_NOT_HOST_MACS = [bytes.fromhex("020000000002"), bytes.fromhex("020000000101"),
                  bytes.fromhex("01005e000001"), b"\xff" * 6]


def _host():
    """A host at ``_HOST_MAC`` / ``_HOST_IP`` that knows its peer's MAC
    and records what leaves its interface and what its stack delivers."""
    host = Host("h", Simulator(), _HOST_IP, _HOST_MAC)
    host.arp_table[IPAddr(_PEER_IP)] = EthAddr(_NOT_HOST_MACS[0])
    host.sent, host.got = [], []
    host.default_interface().send = host.sent.append
    host._deliver_udp = lambda *datagram: host.got.append(datagram)
    return host


@given(_port, _port, _datagram, st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_host_sends_the_same_bytes_on_either_codec(sport, dport, payload,
                                                   repeats):
    """The one-pass sends against the header classes: the reference
    host builds every datagram as ``Ethernet(IPv4(UDP()))`` through
    ``send_ip``, addressed to the MAC its ARP table holds at that send,
    at the instants the flow sends."""
    fast, reference = _host(), _host()

    def send_with_classes(data):
        reference.send_ip(IPv4(srcip=reference.ip, dstip=IPAddr(_PEER_IP),
                               protocol=IPv4.UDP_PROTOCOL,
                               payload=UDP(srcport=sport, dstport=dport,
                                           payload=data)))

    for _ in range(repeats):
        fast.send_udp(_PEER_IP, dport, payload, sport)
        send_with_classes(payload)
    fast.start_udp_flow(_PEER_IP, dport, rate_pps=10.0, duration=0.4,
                        payload_size=len(payload), sport=sport)
    for index in range(4):
        reference.sim.schedule(index / 10.0, send_with_classes,
                               bytes(len(payload)))
    for host in (fast, reference):
        # the peer moves to another MAC halfway through the flow
        host.sim.schedule(0.15, host.arp_table.__setitem__,
                          IPAddr(_PEER_IP), EthAddr(_NOT_HOST_MACS[1]))
        host.sim.run()
    assert fast.sent == reference.sent
    assert len(fast.sent) == repeats + 4
    assert {frame[:6] for frame in fast.sent[repeats:]} \
        == set(_NOT_HOST_MACS[:2])


def _resealed(frame):
    """``frame`` with the checksum of its option-free IPv4 header redone,
    so a patched field is what gets judged, not the checksum."""
    header = _patched(frame[14:34], 10, b"\x00\x00")
    return _patched(frame, 24, struct.pack("!H", checksum(header)))


@st.composite
def _host_frames(draw):
    """What a host may find on its wire.  Half are whatever ``_frames``
    builds (ARP, ICMP, TCP, options, Q-in-Q, every defect it knows),
    mostly aimed at the host's MAC and IP; half are one good datagram
    for the host with a single named thing wrong - or nothing."""
    if draw(st.booleans()):
        frame = draw(_frames(
            nw_dst=st.sampled_from([_HOST_IP] * 7 + [_PEER_IP]),
            udp_payload=_datagram))
        dl_dst = draw(st.sampled_from([_HOST_MAC] * 6 + _NOT_HOST_MACS))
        return dl_dst[:len(frame)] + frame[6:]
    payload = draw(_datagram)
    frame = pack_udp_frame(_HOST_MAC, draw(_mac), draw(_u32), _HOST_IP,
                           draw(_port), draw(_port), payload)
    defect = draw(st.sampled_from(
        ["none", "none", "cut", "pad", "dl_dst", "dl_type", "checksum",
         "version", "ihl", "options", "total_len", "udp_len", "vlan",
         "nw_dst", "nw_proto"]))
    if defect == "cut":
        frame = frame[:draw(st.integers(0, len(frame) - 1))]
    elif defect == "pad":
        frame += bytes(draw(st.integers(1, 20)))
    elif defect == "dl_dst":  # a stranger's, a group's or everybody's
        frame = draw(st.sampled_from(_NOT_HOST_MACS)) + frame[6:]
    elif defect == "dl_type":
        frame = _patched(frame, 12, struct.pack("!H", draw(
            st.sampled_from([0x0806, 0x8100, 0x86DD]))))
    elif defect == "checksum":
        frame = _patched(frame, 24, bytes([frame[24] ^ 0x10]))
    elif defect == "version":
        frame = _resealed(_patched(frame, 14, b"\x65"))
    elif defect == "ihl":  # claims options that are not there
        frame = _resealed(_patched(frame, 14, b"\x46"))
    elif defect == "options":  # a valid header the one pass must decline
        header = _patched(frame[14:34] + b"\x01" * 4, 0, struct.pack(
            "!BBH", 0x46, 0, len(frame) - 10))
        header = _patched(header, 10, b"\x00\x00")
        header = _patched(header, 10, struct.pack("!H", checksum(header)))
        frame = frame[:14] + header + frame[34:]
    elif defect == "total_len":
        frame = _resealed(_patched(frame, 16, struct.pack("!H", draw(
            st.sampled_from([0, 19, 20, 27, 28, len(frame) - 15,
                             len(frame) - 13, 2000])))))
    elif defect == "udp_len":
        frame = _patched(frame, 38, struct.pack("!H", draw(
            st.sampled_from([0, 7, 8, len(payload) + 7, len(payload) + 9]))))
    elif defect == "vlan":
        frame = frame[:12] + struct.pack("!HH", 0x8100, draw(_u16)) \
            + frame[12:]
    elif defect == "nw_dst":
        frame = _resealed(_patched(frame, 30, struct.pack("!I", _PEER_IP)))
    elif defect == "nw_proto":
        frame = _resealed(_patched(frame, 23, bytes([draw(
            st.sampled_from([1, 6, 47]))])))
    return frame


@given(st.lists(_host_frames(), min_size=1, max_size=4))
@settings(max_examples=1000, deadline=None)
def test_host_receives_the_same_datagrams_on_either_codec(frames):
    """``_receive`` against its own object-codec half, which the
    reference host is handed every frame through."""
    fast, reference = _host(), _host()
    # each frame as one object twice (the second finds the known frame's
    # view) and as an equal-content copy (which nobody knows yet)
    offered = [same for frame in frames
               for same in (frame, frame, bytes(bytearray(frame)))]
    for frame in offered + frames[:1]:
        fast._receive(fast.default_interface(), frame)
        reference._receive_objects(reference.default_interface(), frame)
    assert fast.got == reference.got
    assert not reference.sim.frames  # the object codec remembers nothing
    # and the parser alone never claims a frame the classes refuse
    claimed = 0
    for frame in frames:
        parsed = unpack_udp_frame(frame, _HOST_MAC, _HOST_IP)
        if parsed is not None:
            claimed += 1
            udp = Ethernet.unpack(frame).find(UDP)
            assert parsed[1:] == (udp.srcport, udp.dstport,
                                  udp.raw_payload())
    # what it claims, the second delivery of the object found known
    assert fast.sim.frames.known >= claimed


_SECOND_MAC = bytes.fromhex("020000000011")
_SECOND_IP = 0x0A000011


@given(st.lists(st.tuples(_datagram, st.booleans(), st.booleans()),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_two_interface_host_answers_per_interface(datagrams):
    """One frame object handed to both interfaces of a multi-homed host
    is judged against each interface's own MAC and IP - the known
    frame's view names the interface that accepted it."""
    fast, reference = _host(), _host()
    for host in (fast, reference):
        host.add_interface(_SECOND_MAC, _SECOND_IP)
    for payload, for_second, second_first in datagrams:
        dl_dst, nw_dst = ((_SECOND_MAC, _SECOND_IP) if for_second
                          else (_HOST_MAC, _HOST_IP))
        frame = pack_udp_frame(dl_dst, _NOT_HOST_MACS[0], _PEER_IP, nw_dst,
                               1000, 2000, payload)
        for host, receive in ((fast, fast._receive),
                              (reference, reference._receive_objects)):
            first, second = host.interfaces.values()
            before = len(host.got)
            for intf in (second, first, second) if second_first \
                    else (first, second, first):
                receive(intf, frame)
            # accepted on its own interface (twice), refused on the other
            assert len(host.got) == before + (
                2 if for_second == second_first else 1)
    assert fast.got == reference.got


# -- cached switch vs an uncached twin --------------------------------------


class _Twin:
    """One 4-port switch - or two in series on one simulator, ports 3
    and 4 of the first feeding ports 1 and 2 of the second - each with a
    (never answered) controller; every frame a switch sends is recorded
    per switch and port.  The uncached twin is the parse-every-time
    oracle: before every frame a switch receives it forgets all flow
    caches and all known frames."""

    def __init__(self, cached, switches=1):
        self.cached = cached
        self.sim = Simulator()
        self.switches = [OpenFlowSwitch(self.sim, dpid=dpid)
                         for dpid in range(1, switches + 1)]
        self.sent = []
        for switch in self.switches:
            for number in range(1, 5):
                switch.add_port(number).transmit = functools.partial(
                    self._send, switch.dpid, number)
            switch.connect_controller(ControllerChannel(self.sim))

    def _send(self, dpid, number, data):
        self.sent.append((dpid, number, data))
        if dpid < len(self.switches) and number > 2:
            self.receive(dpid, number - 2, data)

    def receive(self, index, in_port, frame):
        if not self.cached:
            for switch in self.switches:
                switch._flush_caches()
            self.sim.frames.clear()
        self.switches[index].ports[in_port].receive(frame)

    def state(self):
        return (self.sent,
                [[getattr(switch, name + "_count") for name in (
                    "table_hit", "table_miss", "dropped", "forwarded",
                    "packet_in", "group_flip")]
                 for switch in self.switches],
                [(switch.dpid, entry.priority, entry.match,
                  entry.packet_count, entry.byte_count)
                 for switch in self.switches
                 for entry in switch.table.entries])


def _twin_frames(rng):
    frames = [b"\x00" * 10]  # a runt
    for index in range(12):
        l4 = rng.choice([UDP, TCP])(
            srcport=rng.choice([1000, 1001]), dstport=rng.choice([80, 443]),
            payload=b"payload %d" % rng.randrange(4))
        l3 = IPv4(srcip="10.0.%d.%d" % (rng.randrange(2), rng.randrange(3)),
                  dstip="10.0.0.9", tos=rng.choice([0, 32]),
                  protocol=6 if isinstance(l4, TCP) else 17, payload=l4)
        ethertype = Ethernet.IP_TYPE
        if rng.random() < 0.4:
            l3 = Vlan(vid=rng.choice([5, 6]), type=ethertype, payload=l3)
            ethertype = Ethernet.VLAN_TYPE
        frame = Ethernet(src="00:00:00:00:00:01",
                         dst="00:00:00:00:00:0%d" % rng.randint(2, 3),
                         type=ethertype, payload=l3).pack()
        frames.append(frame if index % 3 else frame.ljust(60, b"\x00"))
    frames.append(Ethernet(type=Ethernet.ARP_TYPE, payload=ARP(
        protosrc="10.0.0.1", protodst="10.0.0.9")).pack())
    return frames


def _twin_match(rng):
    choices = {
        "in_port": lambda: rng.randint(1, 4),
        "dl_dst": lambda: "00:00:00:00:00:0%d" % rng.randint(2, 3),
        "dl_vlan": lambda: rng.choice([5, 6, NO_VLAN]),
        "dl_type": lambda: rng.choice([Ethernet.IP_TYPE, Ethernet.ARP_TYPE]),
        "nw_tos": lambda: rng.choice([0, 32]),
        "nw_proto": lambda: rng.choice([1, 6, 17]),
        "nw_src": lambda: rng.choice(["10.0.0.1", "10.0.1.0/24",
                                      "10.0.0.0/16"]),
        "tp_src": lambda: rng.choice([1000, 1001]),
        "tp_dst": lambda: rng.choice([80, 443]),
    }
    return Match(**{field: choose() for field, choose in choices.items()
                    if rng.random() < 0.25})


def _twin_actions(rng):
    port = rng.randint(1, 4)
    return rng.choice([
        [Output(port)], [Output(port)], [], [Group(1)],
        [Output(port), Output(rng.randint(1, 4))],
        [Output(OFPP_FLOOD)], [Output(OFPP_IN_PORT)],
        [Output(OFPP_CONTROLLER)], [Group(1), Output(port)],
        [Output(port), Group(1)]])


def _twin_operation(rng, frames, switches):
    """One random step, as a function applied to both twins."""
    kind, index = rng.random(), rng.randrange(switches)
    if kind < 0.6:
        in_port, frame = rng.randint(1, 4), rng.choice(frames)
        return lambda twin: twin.receive(index, in_port, frame)
    if kind < 0.66:
        delay = rng.choice([0.1, 0.4, 0.7])
        return lambda twin: twin.sim.run(until=twin.sim.now + delay)
    if kind < 0.72:
        port, up = rng.randint(1, 4), rng.random() < 0.5
        return lambda twin: twin.switches[index].set_port_up(port, up)
    if kind < 0.8:
        buckets = [GroupBucket([Output(port)], watch_port=port)
                   for port in rng.sample([1, 2, 3, 4], rng.randint(1, 3))]
        message = GroupMod(rng.choice([GroupMod.ADD, GroupMod.MODIFY,
                                       GroupMod.DELETE]), 1,
                           buckets=buckets)
    else:
        message = FlowMod(
            _twin_match(rng), _twin_actions(rng),
            command=rng.choice([FlowMod.ADD] * 4 + [
                FlowMod.MODIFY, FlowMod.DELETE, FlowMod.DELETE_STRICT]),
            priority=rng.randint(0, 4),
            idle_timeout=rng.choice([0.0, 0.0, 0.5]),
            hard_timeout=rng.choice([0.0, 0.0, 0.0, 1.0]))
    return lambda twin: twin.switches[index]._handle_controller_message(
        message)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_cached_switch_equals_uncached_twin(seed, switches):
    """The flow cache and the known frames replay exactly what the full
    parse + lookup + action path does, across table, group and
    port-state changes - on one switch, and on two in series, where the
    second meets frame objects the first has parsed and passed on."""
    rng = random.Random(seed)
    frames = _twin_frames(rng)
    cached, uncached = (_Twin(cached=True, switches=switches),
                        _Twin(cached=False, switches=switches))
    if switches > 1:  # until a random FlowMod says otherwise, pass it on
        for twin in (cached, uncached):
            for flow_mod in (
                    FlowMod(Match(), [Output(3)], priority=0),
                    FlowMod(Match(dl_vlan=5), [Output(4)], priority=1),
                    FlowMod(Match(nw_tos=32), [Output(3), Output(4)],
                            priority=2)):
                twin.switches[0]._handle_controller_message(flow_mod)
    for _ in range(rng.randint(20, 120)):
        operation = _twin_operation(rng, frames, switches)
        operation(cached)
        operation(uncached)
        assert cached.state() == uncached.state()
    assert all(switch.microflow_hit_count == 0
               for switch in uncached.switches)
    assert uncached.sim.frames.known == 0
