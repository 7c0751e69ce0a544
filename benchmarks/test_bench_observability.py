"""OBS — overhead of the observability stack.

Three questions, answered in wall-clock terms:

* how much does emitting a structured event cost (the price every
  instrumented layer pays),
* what does an attached flight-recorder tap add to the dataplane,
* and — the guardrail — does the dataplane stay as cheap once a tap,
  the profiler or flowtrace has been on and off again?  Each is held
  by a counted twin: the Python calls per datagram after the feature
  was on and off again must equal those of a control that never
  turned it on.  Counts are exact, so a twin does not depend on the
  machine's load, and one call per datagram left behind fails it.
"""

import sys
import time

import pytest

from benchmarks.helpers import attach_telemetry, chain_sg, started_escape
from repro.telemetry import EventLog, Telemetry, Tracer


# -- event log ---------------------------------------------------------------

def test_event_emit(benchmark):
    log = EventLog(capacity=4096)

    def emit():
        log.info("bench.source", "bench.event", "message", key="value")
    benchmark(emit)
    assert log.emitted > 0


def test_event_emit_with_open_span(benchmark):
    """Emission inside a span also stamps the trace id."""
    tracer = Tracer()
    log = EventLog(tracer=tracer)
    with tracer.span("bench.op"):
        benchmark(lambda: log.info("bench.source", "bench.event"))
    assert log.events()[-1].trace_id is not None


def test_event_emit_suppressed(benchmark):
    """Below-threshold events should be near-free."""
    log = EventLog(min_severity="ERROR")
    benchmark(lambda: log.debug("bench.source", "bench.event"))
    assert len(log) == 0


def test_event_query_warn_of_mixed_log(benchmark):
    log = EventLog(capacity=8192)
    for index in range(4000):
        (log.warn if index % 10 == 0 else log.debug)(
            "layer.comp%d" % (index % 7), "name%d" % (index % 13))
    result = benchmark(lambda: log.query(min_severity="WARN"))
    assert len(result) == 400


# -- dataplane tap overhead ---------------------------------------------------

# Each window is one simulated second that holds the whole 0.8 s burst.
# The control plane has no heartbeat (LLDP and port statistics run when
# asked; a switch sweeps its table only at a flow deadline, and the
# chain's entries have none), so the burst's own events are all a
# window dispatches, wherever it starts.
WINDOW_SECONDS = 1.0


def _udp_workload(escape, packets=800):
    """Drive a burst of UDP through the deployed chain for one
    one-second window, return the host-process wall-clock
    seconds the simulation took."""
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    before = h2.udp_rx_count
    h1.start_udp_flow(h2.ip, 5001, rate_pps=1000,
                      duration=packets / 1000.0, payload_size=200)
    started = time.perf_counter()
    escape.run(WINDOW_SECONDS)
    elapsed = time.perf_counter() - started
    assert h2.udp_rx_count - before == packets
    return elapsed


def _calls_per_datagram(escape, packets=800):
    """Python calls per datagram of one :func:`_udp_workload` window,
    counted with ``sys.setprofile``."""
    calls = [0]

    def count(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        _udp_workload(escape, packets)
    finally:
        sys.setprofile(None)
    return calls[0] / packets


def _forwarding_chain():
    escape = started_escape(containers=2, container_ports=4)
    escape.deploy_service(chain_sg(1, name="obs-chain"))
    return escape


def _counted_twin(turn_on, turn_off):
    """(control, toggled) calls per datagram, each on a fresh chain
    with the same history: a warm-up window, a second window, then the
    counted one.  On the toggled chain the feature is on for the
    second window and off again before the count; the control never
    turns it on.  Same instants, same events, so any difference is
    what the feature left behind."""
    counts = []
    for toggled in (False, True):
        escape = _forwarding_chain()
        _udp_workload(escape)  # warm-up
        if toggled:
            turn_on(escape)
        _udp_workload(escape)
        if toggled:
            turn_off(escape)
        counts.append(_calls_per_datagram(escape))
    return counts


@pytest.fixture(scope="module")
def forwarding_escape():
    return _forwarding_chain()


def test_tap_attached_dataplane(benchmark, forwarding_escape):
    """Dataplane cost with every chain link tapped (ring appends)."""
    escape = forwarding_escape
    chain = escape.orchestrator.deployed["obs-chain"]
    taps = escape.recorder.attach_chain(chain)
    try:
        benchmark.pedantic(lambda: _udp_workload(escape),
                           rounds=3, iterations=1)
        assert sum(tap.matched for tap in taps) > 0
    finally:
        escape.recorder.detach_all()
    attach_telemetry(benchmark, escape)


def test_untapped_dataplane_counted_twin():
    """Once the taps are gone, the dataplane makes exactly the calls
    it made without them."""
    def attach(escape):
        chain = escape.orchestrator.deployed["obs-chain"]
        escape.recorder.attach_chain(chain)

    def detach(escape):
        escape.recorder.detach_all()
        assert all(not link.taps for link in escape.net.links)

    control, toggled = _counted_twin(attach, detach)
    assert toggled == control


# -- profiler overhead --------------------------------------------------------

def test_profiler_disabled_region_cost(benchmark):
    """The disabled hot-path check: one attribute read, no object."""
    from repro.telemetry import NULL_REGION, Profiler
    profiler = Profiler()

    def disabled_path():
        if profiler.enabled:  # the pattern every call site uses
            with profiler.profile("bench.region.hot"):
                pass
    benchmark(disabled_path)
    assert profiler.profile("bench.region.hot") is NULL_REGION


def test_profiler_enabled_region_cost(benchmark):
    """Full enter/exit bookkeeping of one enabled region."""
    from repro.telemetry import Profiler
    profiler = Profiler().enable()

    def enabled_path():
        with profiler.profile("bench.region.hot"):
            pass
    benchmark(enabled_path)
    assert profiler.stats["bench.region.hot"].calls > 0
    assert profiler.overhead > 0.0


def test_profiler_disabled_dispatch_cost(benchmark):
    """The event loop's disabled hot path: one attribute read per
    dispatched event."""
    from repro.sim import Simulator
    sim = Simulator()
    assert not sim.telemetry.profiler.enabled

    def dispatch_event():
        sim.schedule(0.0, lambda: None)
        sim.step()
    benchmark(dispatch_event)
    assert sim.telemetry.profiler.entries == 0


def test_profiler_enabled_dispatch_cost(benchmark):
    """A kind-named dispatch: cached kind lookup plus one region
    enter/exit around the callback."""
    from repro.sim import Simulator
    sim = Simulator()
    profiler = sim.telemetry.profiler.enable()

    def tick():
        pass

    def dispatch_event():
        sim.schedule(0.0, tick)
        sim.step()
    benchmark(dispatch_event)
    (kind, stat), = profiler.stats.items()
    assert kind.endswith("tick") and stat.calls == sim.processed


def test_profiler_enabled_captures_all_layers(forwarding_escape):
    """With the profiler on, one workload burst attributes time to the
    dataplane regions of every layer it crosses — and accounts for its
    own bookkeeping cost."""
    escape = forwarding_escape
    profiler = escape.profiler
    profiler.enable()
    try:
        _udp_workload(escape)
    finally:
        profiler.disable()
    for region in ("netem.link.Link._deliver", "netem.link.transmit",
                   "click.element.push"):
        stat = profiler.stats.get(region)
        assert stat is not None and stat.calls > 0, region
    dispatch = profiler.stats["netem.link.Link._deliver"]
    assert dispatch.cum >= dispatch.self_time > 0.0
    assert profiler.overhead > 0.0
    profiler.reset()


def test_unprofiled_dataplane_counted_twin():
    """The profiler, enabled and then disabled and reset, leaves no
    call behind on the dataplane."""
    def disable(escape):
        escape.profiler.disable()
        escape.profiler.reset()

    control, toggled = _counted_twin(
        lambda escape: escape.profiler.enable(), disable)
    assert toggled == control


# -- flowtrace (sampled path tracing) overhead --------------------------------

def test_flowtrace_disabled_record_cost(benchmark):
    """The disabled hot-path check: one attribute read per postcard
    site, same discipline as the profiler."""
    from repro.telemetry import FlowTrace
    flowtrace = FlowTrace()
    data = bytes(range(200))

    def disabled_path():
        if flowtrace.enabled:  # the pattern every call site uses
            flowtrace.record("switch", "s1", 0.0, data, dpid=1)
    benchmark(disabled_path)
    assert flowtrace.postcards == 0


def test_flowtrace_enabled_record_cost(benchmark):
    """The enabled cost of one postcard site: a seeded CRC over the
    frame tail plus, for sampled packets, one list append."""
    from repro.telemetry import FlowTrace
    flowtrace = FlowTrace().enable(rate=64)
    data = bytes(range(200))
    benchmark(lambda: flowtrace.record("switch", "s1", 0.0, data,
                                       dpid=1))


def test_flowtrace_disabled_counted_twin():
    """Sampling every packet, then off and reset, leaves no call
    behind on the dataplane."""
    def disable(escape):
        assert escape.flowtrace.postcards > 0
        escape.flowtrace.disable()
        escape.flowtrace.reset()

    control, toggled = _counted_twin(
        lambda escape: escape.flowtrace.enable(rate=1, seed=1), disable)
    assert toggled == control


def test_flowtrace_enabled_dataplane(benchmark, forwarding_escape):
    """Dataplane cost with 1/64 sampling live on every hop."""
    escape = forwarding_escape
    flowtrace = escape.flowtrace
    flowtrace.enable(rate=64, seed=1)
    try:
        benchmark.pedantic(lambda: _udp_workload(escape),
                           rounds=3, iterations=1)
    finally:
        flowtrace.disable()
        flowtrace.reset()
    attach_telemetry(benchmark, escape)


def test_sla_monitor_overhead(benchmark):
    """A probing SLA monitor on an idle chain: the cost of demo step 5
    running continuously."""
    escape = started_escape(containers=2, container_ports=4)
    sg = chain_sg(1, name="sla-bench")
    sg.add_requirement("h1", "h2", max_delay=0.5)
    escape.deploy_service(sg)
    monitor = escape.sla_monitors["sla-bench"]

    def probe_second():
        rounds_before = monitor.rounds
        escape.run(1.0)
        assert monitor.rounds > rounds_before
    benchmark.pedantic(probe_second, rounds=3, iterations=1)
    assert monitor.state == "OK"
    attach_telemetry(benchmark, escape)


def test_snapshot_with_events(benchmark):
    """Serializing a busy bundle (metrics + traces + events)."""
    telemetry = Telemetry()
    for index in range(200):
        telemetry.metrics.counter("bench.c%d.value" % index).inc()
        telemetry.events.info("bench.src", "e%d" % index)
    snapshot = benchmark(telemetry.snapshot)
    assert len(snapshot["events"]) == 200
