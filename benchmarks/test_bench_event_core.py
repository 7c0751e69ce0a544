"""EVT — event-core efficiency of the notifier-driven pull path.

A per-event-kind dispatch table showed the fixed-interval
``_PullDriver`` poll dominating every profile: a parked pull driver
still burned one event per interval whether or not a packet existed.
With Click-style
notifiers the drivers sleep on empty upstreams and are woken by the
0->1 push transition, so this suite pins the property that made the
rewrite worth doing:

* an **idle** network dispatches zero events per simulated second —
  a bare Click pipeline and a full started ESCAPE substrate alike: the
  control plane has no heartbeat (LLDP and port statistics run when
  asked, a switch sweeps its table only at a flow deadline);
* re-arming an armed :class:`Wakeup` stays O(log n) amortized - one
  cancel, one push, and a heap that compaction keeps bounded;
* a datagram crossing the demo chain costs a bounded number of Python
  calls: the per-hop path stays one call per layer per hop;
* the dataplane parses a frame once, not once per hop, and keeps no
  frame longer than the bounded table of known frames does;
* a torn-down chain is freed by reference counting: deploy / terminate
  churn leaves nothing for the cyclic garbage collector, and the event
  log's memory stops growing once its live view is full; so is a
  stopped emulation.
"""

import gc
import random
import resource
import struct
import sys
import tracemalloc
import types

import pytest

from benchmarks.helpers import chain_sg, demo_topology, started_escape
from repro.click import Router
from repro.click.elements import Device
from repro.core import ESCAPE
from repro.openflow import match as match_module, switch as switch_module
from repro.scenario.workload import build_chain_requests
from repro.scenario.zoo import FatTreeTopo
from repro.sim import KnownFrames, Simulator, Wakeup
import repro.telemetry.events as events_module

IDLE_SIM_SECONDS = 100.0


def _fed_pipeline(sim, stages, packets, interval):
    """``FromDevice(in0) -> stages -> cnt :: Counter -> Discard``,
    started, with ``packets`` frames scheduled onto in0 ``interval``
    apart."""
    router = Router.from_config(
        "FromDevice(in0) -> %s -> cnt :: Counter -> Discard;" % stages,
        sim=sim)
    device = Device("in0")
    router.device_map = {"in0": device}
    router.start()
    for index in range(1, packets + 1):
        sim.schedule(index * interval, device.deliver, b"x" * 64)
    return router


def test_idle_click_pipeline_dispatches_zero_events(benchmark):
    """An armed pull pipeline with nothing queued parks on its
    notifier.  Under the old poll storm this run cost one event per
    driver interval (~100k dispatches for 100 sim-seconds at the 1ms
    default); event-driven it must cost exactly zero."""
    sim = Simulator()
    router = _fed_pipeline(sim, "Queue(64) -> Unqueue(BURST 8)", 100,
                           interval=0.001)
    sim.run(until=sim.now + 1.0)  # drain the priming traffic
    assert int(router.read_handler("cnt.count")) == 100
    before = sim.processed
    rounds = 3

    def idle():
        sim.run(until=sim.now + IDLE_SIM_SECONDS)
    benchmark.pedantic(idle, rounds=rounds, iterations=1)
    dispatched = sim.processed - before
    rate = dispatched / (rounds * IDLE_SIM_SECONDS)
    benchmark.extra_info["events_per_sim_second"] = rate
    assert dispatched == 0


def _demo_substrate_with_chain():
    escape = started_escape(containers=2, container_ports=4)
    escape.deploy_service(chain_sg(1, name="idle-chain"))
    return escape


def _fattree_substrate():
    escape = ESCAPE.from_topology(FatTreeTopo(k=4))
    escape.start()
    return escape


IDLE_SUBSTRATES = {"demo_chain": _demo_substrate_with_chain,
                   "fattree_k4": _fattree_substrate}


@pytest.mark.parametrize("substrate", sorted(IDLE_SUBSTRATES))
def test_idle_escape_network_event_rate(benchmark, substrate):
    """A started substrate with no offered load — the demo substrate
    with a deployed chain, and the k=4 fat-tree with none: the
    container VNFs' pull drivers (Unqueue/ToDevice inside every Click
    pipeline) are parked on their notifiers, no frame crosses a link
    (discovery probes only when asked), no port statistics are asked
    for (they are sampled when asked) and no switch sweeps a table
    without a timed entry.  Exactly zero events, as for the bare
    pipeline above: any heartbeat, however rare, trips it."""
    escape = IDLE_SUBSTRATES[substrate]()
    escape.run(1.0)  # let start-up and deployment control traffic settle
    sim = escape.sim
    before = sim.processed

    def idle():
        escape.run(IDLE_SIM_SECONDS)
    benchmark.pedantic(idle, rounds=1, iterations=1)
    dispatched = sim.processed - before
    benchmark.extra_info["events_per_sim_second"] = \
        dispatched / IDLE_SIM_SECONDS
    assert dispatched == 0


def test_wakeup_rearm_cost(benchmark):
    """Moving an armed Wakeup's shot cancels it and schedules a fresh
    one: however often a pull path retargets, one event stays pending
    and compaction keeps the cancelled ones from piling up."""
    sim = Simulator()
    wakeup = Wakeup(sim, lambda: None)
    wakeup.arm(1.0)
    deadline = [sim.now + 1.0]
    deepest = [0]

    def rearm():
        deadline[0] += 1e-6
        wakeup.arm_at(deadline[0])
        deepest[0] = max(deepest[0], sim.heap_depth)
    benchmark(rearm)
    assert sim.pending == 1
    assert deepest[0] < 2 * sim.COMPACT_MIN


def test_busy_pipeline_events_track_packets(benchmark):
    """Under load the event count must scale with packets moved, not
    with wall duration: BURST-sized packet trains drain in same-time
    continuation shots."""
    packets = 5000
    sim = Simulator()
    router = _fed_pipeline(sim, "Queue(256) -> Unqueue(BURST 32)", packets,
                           interval=1e-4)
    before = sim.processed

    def drain():
        sim.run(until=sim.now + 2.0)
    benchmark.pedantic(drain, rounds=1, iterations=1)
    dispatched = sim.processed - before
    assert int(router.read_handler("cnt.count")) == packets
    benchmark.extra_info["events_per_packet"] = dispatched / packets
    # one delivery + one wake-drain per packet (frames arrive one at a
    # time, so trains never build up); the point is the count tracks
    # *packets*, not duration/interval
    assert dispatched <= 2 * packets + 2


#: Python-level calls per delivered datagram on the two-switch demo chain
#: (h1 - s1 - VNF - s1 - s2 - h2: five links, three switch passes, one
#: four-element Click graph).  Measured 67 / 51 on CPython 3.11 with one
#: parse per datagram and the switch pass calling neither
#: ``FlowTable.expire`` nor ``FlowEntry.note_hit`` (79 / 57 with a parse
#: per pass; 168 / 102 before the per-hop path was flattened).  The
#: headroom is for interpreters that count comprehensions and
#: generators differently, and for one more thin call per hop - not for
#: a second one.
CALL_BUDGET = {"send_udp": 98, "start_udp_flow": 74}


@pytest.mark.parametrize("source", sorted(CALL_BUDGET))
def test_calls_per_datagram_stay_in_budget(benchmark, source):
    """Counts ``call`` events with ``sys.setprofile`` while 2,000
    datagrams cross the chain: distinct payloads on 64 flows through
    ``Host.send_udp`` (every frame is a new object, parsed once), or
    one ``Host.start_udp_flow`` replaying one frame object.
    Deterministic; a count, not a speed."""
    datagrams, rate = 2000, 5000.0
    escape = started_escape()
    escape.deploy_service(chain_sg(1))
    sim = escape.sim
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    delivered = []
    h2.bind_udp(5000, lambda srcip, sport, payload: delivered.append(sport))
    h1.send_udp(h2.ip, 5000, b"resolve ARP, fill the flow caches")
    escape.run(0.5)
    del delivered[:]
    dst = h2.ip

    def send(index):
        h1.send_udp(dst, 5000, struct.pack("!Id", index, sim.now) + b"." * 52,
                    40000 + index % 64)
        if index + 1 < datagrams:
            sim.schedule(1.0 / rate, send, index + 1)

    calls = [0]

    def count(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    def offer():
        if source == "send_udp":
            send(0)
        else:
            h1.start_udp_flow(dst, 5000, rate_pps=rate,
                              duration=datagrams / rate, payload_size=64)
        sys.setprofile(count)
        try:
            escape.run(datagrams / rate + 0.05)
        finally:
            sys.setprofile(None)

    benchmark.pedantic(offer, rounds=1, iterations=1)
    assert len(delivered) == datagrams
    per_datagram = calls[0] / datagrams
    benchmark.extra_info["calls_per_datagram"] = per_datagram
    assert per_datagram <= CALL_BUDGET[source]



def _reachable_frames(root, marker):
    """``bytes`` objects holding ``marker`` behind a header, reachable
    from ``root`` through instance data (bytes are not gc-tracked, so
    they are found from what refers to them)."""
    skip = (type, types.ModuleType, types.FunctionType, types.CodeType)
    seen, frames, stack = {id(root)}, 0, [root]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if id(referent) in seen or isinstance(referent, skip):
                continue
            seen.add(id(referent))
            if type(referent) is bytes:
                frames += marker in referent[14:]
            else:
                stack.append(referent)
    return frames


def test_dataplane_retains_no_frames(benchmark, monkeypatch):
    """Twenty ``fattree_vnf_mix`` segments' worth of distinct datagrams
    (10,240 after a warm-up; eight chains over four templates on the
    k=4 fat-tree, payloads 64-1400 bytes).  The frames still reachable
    from the emulation afterwards - switches, hosts, the table of known
    frames - number at most the table's two generations, whatever was
    sent, and ``flow_key`` ran about once per datagram, not once per hop
    (6.25 with a parse per pass).  Exact counts; the resident-memory growth is
    reported (the exact-frame memos grew it by 19 MB here) and only
    loosely guarded."""
    segments, per_segment, rate = 20, 512, 4000.0
    marker, sizes = b"retained?", (64, 64, 512, 1400)
    rng = random.Random(20)
    topo = FatTreeTopo(k=4, containers_per_pod=2, container_ports=6)
    requests = build_chain_requests(
        topo, {"templates": ["web", "bump", "secure", "shaped"],
               "count": 8}, None, rng)
    escape = ESCAPE.from_topology(topo)
    escape.start()
    escape.net.static_arp()
    for request in requests:
        assert escape.deploy_service(request["sg"]).active
    sim, net = escape.sim, escape.net
    filler = rng.randbytes(max(sizes))
    delivered = [0]

    def receive(_srcip, _sport, payload):
        delivered[0] += payload.startswith(marker)

    for request in requests:
        net.get(request["dst"]).bind_udp(47000, receive)
    parses = [0]

    def counted(data, flow_key=match_module.flow_key):
        parses[0] += 1
        return flow_key(data)

    monkeypatch.setattr(switch_module, "flow_key", counted)
    monkeypatch.setattr(match_module, "flow_key", counted)

    def send(index, last):
        request = requests[index % len(requests)]
        payload = (marker + struct.pack("!Id", index, sim.now)
                   + filler)[:sizes[index % len(sizes)]]
        net.get(request["src"]).send_udp(
            net.get(request["dst"]).ip, 47000, payload,
            40000 + index // len(requests) % 32)
        if index + 1 < last:
            sim.schedule(1.0 / rate, send, index + 1, last)

    def segment(first, count):
        send(first, first + count)
        escape.run(count / rate + 0.05)

    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    segment(0, per_segment // 4)  # warm-up, as the ladder's
    assert delivered[0] == per_segment // 4
    warm, delivered[0], parses[0] = peak_rss_mb(), 0, 0
    offered = segments * per_segment

    def run():
        for index in range(segments):
            segment(per_segment // 4 + index * per_segment, per_segment)

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert delivered[0] == offered >= 10000
    retained = _reachable_frames(escape, marker)
    growth = peak_rss_mb() - warm
    benchmark.extra_info.update(
        retained_frames=retained, rss_growth_mb=round(growth, 2),
        parses_per_datagram=parses[0] / offered,
        table_resets=sim.frames.resets)
    assert len(sim.frames) <= KnownFrames.CAP
    assert len(sim.frames.old) <= KnownFrames.CAP
    assert 0 < retained <= 2 * KnownFrames.CAP
    assert not any(hasattr(node, name) for name in
                   ("_microflow", "_udp_rx_cache")
                   for node in net.hosts() + [switch.datapath for switch
                                              in net.switches()])
    assert 1.0 <= parses[0] / offered <= 1.1
    assert growth <= 8.0
    escape.stop()
    assert _reachable_frames(escape, marker) == 0


#: gc-tracked objects a warm churn loop may hold beyond its starting
#: level: flow-table and cache entries rebuilt at other sizes, dead heap
#: entries awaiting compaction (-12..+158 measured over 20 x 64 cycles).
#: Over the test's 64 cycles, a leak of 8 reachable objects per cycle
#: exceeds it.
CHURN_GROWTH_BOUND = 500


def _churn_loop():
    """``deploy_churn``'s loop on the k=4 fat-tree with ``of_wire=True``:
    returns the started ESCAPE and ``cycle(index)``, one deploy, one
    probe datagram and one terminate over the four templates."""
    rng = random.Random(34)
    topo = FatTreeTopo(k=4, containers_per_pod=2, container_ports=6)
    requests = build_chain_requests(
        topo, {"templates": ["web", "bump", "secure", "shaped"],
               "count": 8}, None, rng)
    escape = ESCAPE.from_topology(topo, of_wire=True)
    escape.start()
    sim, net = escape.sim, escape.net
    delivered = [0]

    def receive(_srcip, _sport, _payload):
        delivered[0] += 1

    for request in requests:
        net.get(request["dst"]).bind_udp(47000, receive)

    def cycle(index):
        request = requests[index % len(requests)]
        before = delivered[0]
        assert escape.deploy_service(request["sg"]).active
        net.get(request["src"]).send_udp(
            net.get(request["dst"]).ip, 47000, b"probe %d" % index, 40000)
        assert sim.wait(lambda: delivered[0] > before, 1.0)
        escape.terminate_service(request["name"])

    return escape, cycle


def test_deploy_churn_leaves_no_cyclic_garbage(benchmark):
    """``deploy_churn``'s loop with the collector off: 64 cycles of
    deploy, one probe datagram, terminate over the four fat-tree
    templates (``ESCAPE(of_wire=True)``).  Everything a torn-down chain
    built is freed by reference counting: ``gc.collect()`` then finds
    no unreachable object, and the gc-tracked object count is back at
    its starting level within ``CHURN_GROWTH_BOUND``.  The warm-up runs
    until the bounded event log is full, so its ring no longer grows."""
    escape, cycle = _churn_loop()
    sim = escape.sim
    log, warm = escape.telemetry.events, 0
    while len(log) < log.capacity:
        cycle(warm)
        warm += 1
    cycles = 64

    def tracked():
        sim.frames.clear()  # a bounded cache, refilled at any level
        gc.collect()
        return len(gc.get_objects())

    start = tracked()

    def run():
        gc.disable()
        try:
            for index in range(cycles):
                cycle(warm + index)
            return gc.collect()
        finally:
            gc.enable()

    unreachable = benchmark.pedantic(run, rounds=1, iterations=1)
    growth = tracked() - start
    benchmark.extra_info.update(warm_cycles=warm, unreachable=unreachable,
                                tracked_growth=growth)
    assert unreachable == 0
    assert growth <= CHURN_GROWTH_BOUND
    assert not escape.orchestrator.deployed
    escape.stop()


def _demo_with_chain():
    """The ladder's demo substrate carrying one forwarder chain."""
    escape = started_escape()
    escape.deploy_service(chain_sg(1, name="stopped-chain"))
    return escape


def _inband_demo_with_chain():
    """The same, its NETCONF sessions riding the in-band management
    hub (``EthTransport``) instead of in-memory pipes."""
    escape = ESCAPE.from_topology(demo_topology(), control_network="inband")
    escape.start()
    escape.deploy_service(chain_sg(1, name="stopped-chain"))
    return escape


def _fat_tree_with_chains():
    """The k=4 fat-tree carrying eight chains over the four templates."""
    topo = FatTreeTopo(k=4, containers_per_pod=2, container_ports=6)
    requests = build_chain_requests(
        topo, {"templates": ["web", "bump", "secure", "shaped"],
               "count": 8}, None, random.Random(34))
    escape = ESCAPE.from_topology(topo)
    escape.start()
    for request in requests:
        escape.deploy_service(request["sg"])
    return escape


@pytest.mark.parametrize("build", [_demo_with_chain, _inband_demo_with_chain,
                                   _fat_tree_with_chains],
                         ids=["demo", "demo_inband", "fat_tree"])
def test_stopped_emulation_leaves_no_cyclic_garbage(benchmark, build):
    """Build, run 1 s, ``stop()`` and drop an emulation with the
    collector off: ``stop()`` breaks what building bound (the links'
    and nodes' per-hop callables, controller components, management
    sessions, snapshot collectors), so reference counting frees all of
    it and ``gc.collect()`` finds no unreachable object.  A campaign
    runs its seeds in one process; without this each stopped seed
    waited for a gen-2 collection."""
    def run():
        gc.collect()
        gc.disable()
        try:
            escape = build()
            escape.run(1.0)
            escape.stop()
            del escape
            return gc.collect()
        finally:
            gc.enable()

    unreachable = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["unreachable"] = unreachable
    assert unreachable == 0


#: bytes the event log may hold after 512 churn cycles beyond what it
#: held after 64.  Its live view is full by cycle 64, so the 3,800-odd
#: records the last 448 cycles emit (about 400 B each) must not stay.
EVENT_LOG_GROWTH_BOUND = 32 * 1024


def test_deploy_churn_event_log_stays_flat(benchmark):
    """``deploy_churn``'s loop with tracemalloc on from the start: the
    memory allocated in ``repro/telemetry/events.py`` and still held
    after 512 cycles is within ``EVENT_LOG_GROWTH_BOUND`` of what it
    was after 64.  Only that file is counted: the switch buffer pool
    and the histogram windows are bounded too, but still filling at
    cycle 512."""
    only_events = [tracemalloc.Filter(True, events_module.__file__)]

    def held():
        snapshot = tracemalloc.take_snapshot().filter_traces(only_events)
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        escape, cycle = _churn_loop()
        for index in range(64):
            cycle(index)
        at_64 = held()

        def run():
            for index in range(64, 512):
                cycle(index)

        benchmark.pedantic(run, rounds=1, iterations=1)
        growth = held() - at_64
    finally:
        tracemalloc.stop()
    log = escape.telemetry.events
    benchmark.extra_info.update(event_log_bytes_at_64=at_64,
                                event_log_growth=growth,
                                emitted=log.emitted, kept=len(log))
    assert log.evicted > 0
    assert growth <= EVENT_LOG_GROWTH_BOUND
    assert not escape.orchestrator.deployed
    escape.stop()
