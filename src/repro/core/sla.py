"""SLA checks on deployed chains: one-shot and continuous.

:func:`verify_sla` is the one-shot check a script runs after deploying:
a few pings per requirement, half the mean round-trip against the
requirement's max delay, any loss a violation.

The service graph carries end-to-end :class:`~repro.core.nffg.
Requirement`s (max delay, min bandwidth) that, before this module,
were only consulted once at mapping time.  :class:`SLAMonitor` closes
the loop: it periodically injects timestamped probe bursts through a
running :class:`~repro.core.orchestrator.DeployedChain` (the probes
ride the chain's steering entries like any other SAP-to-SAP traffic),
measures what actually arrives, and drives a per-chain state machine::

    OK --breach--> WARN --VIOLATE_AFTER consecutive--> VIOLATED
     ^                                                     |
     +---------- RECOVER_AFTER consecutive clean ----------+

Measurements per probe round and requirement:

* **delay** — one-way, from the send timestamp carried in the probe
  payload to arrival at the sink SAP (both read the simulated clock),
* **delivered bandwidth** — packet-pair dispersion of the burst: the
  bottleneck spreads back-to-back frames apart, so
  ``(burst bytes after the first frame) * 8 / spread`` estimates the
  chain's delivered rate; zero spread means no bottleneck was
  observable (reported as infinite),
* **loss** — probes that missed the round's evaluation deadline.

Every transition emits a structured event (WARN / ERROR severity on
degradation, INFO on recovery) and fires alert callbacks; per-chain
``sla.state`` / ``sla.probe_delay`` gauges make the state visible in
the Prometheus export.  Each burst is wrapped in an ``sla.probe``
span whose id travels *inside* the probe payload, so a flight-recorder
capture of the probe on any substrate link can be joined back to this
monitor's trace (see :mod:`repro.packet.probe`).

The polling pattern follows :class:`~repro.core.monitor.VNFMonitor`:
a self-rescheduling simulator task that stands down when the chain
goes inactive.
"""

import itertools
from typing import Callable, Dict, List, Optional

from repro.core.nffg import Requirement
from repro.core.orchestrator import DeployedChain
from repro.netem.node import Host
from repro.packet.probe import pack_probe, parse_probe

OK = "OK"
WARN = "WARN"
VIOLATED = "VIOLATED"

STATES = (OK, WARN, VIOLATED)
STATE_VALUES = {OK: 0, WARN: 1, VIOLATED: 2}

# UDP wire overhead per probe frame: Ethernet(14) + IPv4(20) + UDP(8)
_FRAME_OVERHEAD = 42

# each monitor gets its own sink port so concurrent chains never mix
_PROBE_PORTS = itertools.count(49500)


class SLAError(Exception):
    pass


class _PendingBurst:
    """In-flight probe burst for one requirement."""

    __slots__ = ("requirement", "seq", "span", "sent", "sent_at",
                 "delays", "arrivals", "bytes_received")

    def __init__(self, requirement: Requirement, seq: int, span,
                 sent: int, sent_at: float):
        self.requirement = requirement
        self.seq = seq
        self.span = span
        self.sent = sent
        self.sent_at = sent_at
        self.delays: List[float] = []
        self.arrivals: List[float] = []
        self.bytes_received = 0


class RequirementReport:
    """Outcome of one probe round for one requirement."""

    __slots__ = ("requirement", "time", "delay", "bandwidth", "lost",
                 "received", "breached", "reasons", "trace_id")

    def __init__(self, requirement: Requirement, time: float,
                 delay: Optional[float], bandwidth: Optional[float],
                 lost: int, received: int, breached: bool,
                 reasons: List[str], trace_id: int):
        self.requirement = requirement
        self.time = time
        self.delay = delay
        self.bandwidth = bandwidth
        self.lost = lost
        self.received = received
        self.breached = breached
        self.reasons = reasons
        self.trace_id = trace_id

    def __repr__(self) -> str:
        return "RequirementReport(%s->%s, delay=%s, bw=%s, %s)" % (
            self.requirement.src, self.requirement.dst, self.delay,
            self.bandwidth, "BREACH" if self.breached else "ok")


class SLAReport:
    """Outcome of verifying one requirement against measurements."""

    def __init__(self, requirement, measured_delay: Optional[float],
                 loss_percent: Optional[float], satisfied: bool):
        self.requirement = requirement
        self.measured_delay = measured_delay
        self.loss_percent = loss_percent
        self.satisfied = satisfied

    def __repr__(self) -> str:
        return "SLAReport(%r, delay=%s, loss=%s%%, %s)" % (
            self.requirement, self.measured_delay, self.loss_percent,
            "OK" if self.satisfied else "VIOLATED")


PROBE_INTERVAL = 0.2  # seconds between the pings of one verify_sla check


def verify_sla(chain: DeployedChain, probes: int = 5) -> List[SLAReport]:
    """Measure each requirement of a deployed chain with pings.

    The one-way chain-delay requirement is compared against half the
    measured round-trip (the return path is the direct route, so the
    RTT upper-bounds chain delay + direct delay; using RTT/2 keeps the
    check conservative for symmetric topologies).
    """
    reports: List[SLAReport] = []
    net = chain.orchestrator.net
    for requirement in chain.sg.requirements:
        src_host = net.get(requirement.src)
        dst_host = net.get(requirement.dst)
        result = src_host.ping(dst_host.ip, count=probes,
                               interval=PROBE_INTERVAL)
        net.run(probes * PROBE_INTERVAL + 2.0)
        measured = (result.avg_rtt / 2.0
                    if result.avg_rtt is not None else None)
        satisfied = True
        if requirement.max_delay is not None:
            satisfied = (measured is not None
                         and measured <= requirement.max_delay)
        if result.loss_percent > 0.0:
            satisfied = False
        reports.append(SLAReport(requirement, measured,
                                 result.loss_percent, satisfied))
    return reports


class SLAMonitor:
    """Probes a deployed chain against its NFFG requirements.

    Every ``INTERVAL`` seconds a round sends ``BURST`` probes per
    requirement (≥2 enables the dispersion bandwidth estimate) and
    scores them ``TIMEOUT`` later, missing probes as lost.
    ``VIOLATE_AFTER`` consecutive breached rounds escalate WARN to
    VIOLATED; ``RECOVER_AFTER`` consecutive clean rounds return to OK.
    """

    INTERVAL = 0.5
    BURST = 4
    PAYLOAD_SIZE = 512
    VIOLATE_AFTER = 3
    RECOVER_AFTER = 2
    TIMEOUT = 0.4   # 80 % of the interval

    def __init__(self, chain: DeployedChain):
        if not chain.sg.requirements:
            raise SLAError("chain %r carries no requirements to monitor"
                           % chain.sg.name)
        self.chain = chain
        self.sim = chain.orchestrator.net.sim
        self.net = chain.orchestrator.net
        self.probe_port = next(_PROBE_PORTS)
        self.requirements = list(chain.sg.requirements)

        self.state = OK
        self.rounds = 0
        self.running = False
        self.reports: Dict[tuple, RequirementReport] = {}
        self.transitions: List[tuple] = []  # (time, old, new)
        self._breach_streak = 0
        self._clean_streak = 0
        self._seq = itertools.count(1)
        self._pending: Dict[int, List[_PendingBurst]] = {}
        self._deadlines: Dict[int, object] = {}  # seq -> _evaluate event
        self._bound_hosts: List[Host] = []
        self._task = None
        self._alerts: List[Callable] = []

        telemetry = chain.orchestrator.telemetry
        self.tracer = telemetry.tracer
        self.events = telemetry.events
        metrics = telemetry.metrics
        labels = {"chain": chain.sg.name}
        self._g_state = metrics.gauge(
            "sla.state", "chain SLA conformance (0=OK 1=WARN 2=VIOLATED)",
            labels=labels)
        self._g_delay = metrics.gauge(
            "sla.probe_delay", "last measured end-to-end probe delay (s)",
            labels=labels)
        self._g_bandwidth = metrics.gauge(
            "sla.probe_bandwidth",
            "last estimated delivered bandwidth (bit/s)", labels=labels)
        self._m_sent = metrics.counter(
            "sla.probes_sent", "probe packets injected", labels=labels)
        self._m_lost = metrics.counter(
            "sla.probes_lost", "probe packets that missed the deadline",
            labels=labels)
        self._m_breaches = metrics.counter(
            "sla.breaches", "probe rounds that breached a requirement",
            labels=labels)
        self._g_state.set(STATE_VALUES[OK])

    # -- lifecycle ---------------------------------------------------------

    def on_alert(self, callback: Callable[[str, str, str, dict],
                                          None]) -> None:
        """Register ``fn(chain_name, old_state, new_state, detail)``,
        fired on every state transition."""
        self._alerts.append(callback)

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        for requirement in self.requirements:
            sink = self.net.get(requirement.dst)
            if not isinstance(sink, Host):
                raise SLAError("requirement sink %r is not a host SAP"
                               % requirement.dst)
            if sink not in self._bound_hosts:
                sink.bind_udp(self.probe_port, self._make_receiver(sink))
                self._bound_hosts.append(sink)
        self.events.info("core.sla", "monitor.started",
                         chain=self.chain.sg.name,
                         requirements=len(self.requirements),
                         interval=self.INTERVAL)
        self._task = self.sim.schedule(0.0, self._round)

    def stop(self) -> None:
        self.running = False
        if self._task is not None:
            self._task.cancel()
            self._task = None
        # rounds still waiting for their deadline are abandoned: a
        # stopped monitor leaves nothing on the heap
        for deadline in self._deadlines.values():
            deadline.cancel()
        self._deadlines.clear()
        self._pending.clear()
        for host in self._bound_hosts:
            host.unbind_udp(self.probe_port)
        self._bound_hosts = []
        self.events.info("core.sla", "monitor.stopped",
                         chain=self.chain.sg.name, state=self.state)

    # -- probe rounds ------------------------------------------------------

    def _round(self) -> None:
        if not self.running:
            return
        if not self.chain.active:
            self.stop()  # unbinds the probe receivers too
            return
        seq = next(self._seq)
        self.rounds += 1
        bursts = []
        for requirement in self.requirements:
            bursts.append(self._send_burst(requirement, seq))
        self._pending[seq] = bursts
        self._deadlines[seq] = self.sim.schedule(self.TIMEOUT,
                                                 self._evaluate, seq)
        self._task = self.sim.schedule(self.INTERVAL, self._round)

    def _send_burst(self, requirement: Requirement,
                    seq: int) -> _PendingBurst:
        source = self.net.get(requirement.src)
        sink = self.net.get(requirement.dst)
        if not isinstance(source, Host):
            raise SLAError("requirement source %r is not a host SAP"
                           % requirement.src)
        with self.tracer.span("sla.probe", chain=self.chain.sg.name,
                              requirement="%s->%s" % (requirement.src,
                                                      requirement.dst),
                              seq=seq) as span:
            burst = _PendingBurst(requirement, seq, span, self.BURST,
                                  self.sim.now)
            for index in range(self.BURST):
                payload = pack_probe(span.span_id, seq, index,
                                     self.sim.now, self.chain.sg.name,
                                     pad_to=self.PAYLOAD_SIZE)
                source.send_udp(sink.ip, self.probe_port, payload)
                self._m_sent.inc()
        return burst

    def _make_receiver(self, sink: Host):
        def receive(_srcip, _srcport, payload: bytes) -> None:
            probe = parse_probe(payload)
            if probe is None or probe.chain != self.chain.sg.name:
                return
            for burst in self._pending.get(probe.seq, ()):
                if burst.span.span_id != probe.trace_id:
                    continue
                now = self.sim.now
                burst.delays.append(now - probe.send_time)
                burst.arrivals.append(now)
                burst.bytes_received += len(payload) + _FRAME_OVERHEAD
                return
        return receive

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, seq: int) -> None:
        self._deadlines.pop(seq, None)
        bursts = self._pending.pop(seq, None)
        if bursts is None or not self.running:
            return
        breached_round = False
        detail: Dict[str, dict] = {}
        for burst in bursts:
            report = self._score(burst)
            key = (burst.requirement.src, burst.requirement.dst)
            self.reports[key] = report
            detail["%s->%s" % key] = {
                "delay": report.delay,
                "bandwidth": report.bandwidth,
                "lost": report.lost,
                "reasons": report.reasons,
            }
            breached_round = breached_round or report.breached
        if breached_round:
            self._m_breaches.inc()
        self._advance(breached_round, detail)

    def _score(self, burst: _PendingBurst) -> RequirementReport:
        requirement = burst.requirement
        received = len(burst.delays)
        lost = burst.sent - received
        if lost > 0:
            self._m_lost.inc(lost)
        reasons: List[str] = []
        delay = max(burst.delays) if burst.delays else None
        bandwidth = self._dispersion_bandwidth(burst)
        if lost > 0:
            reasons.append("lost %d/%d probes" % (lost, burst.sent))
        if requirement.max_delay is not None:
            if delay is None:
                reasons.append("no probe arrived within the deadline")
            elif delay > requirement.max_delay:
                reasons.append("delay %.6fs > max %.6fs"
                               % (delay, requirement.max_delay))
        if requirement.min_bandwidth is not None:
            if bandwidth is None:
                reasons.append("bandwidth unmeasurable (got %d probes)"
                               % received)
            elif bandwidth < requirement.min_bandwidth:
                reasons.append("bandwidth %.0f < min %.0f bit/s"
                               % (bandwidth, requirement.min_bandwidth))
        if delay is not None:
            self._g_delay.set(delay)
        if bandwidth is not None and bandwidth != float("inf"):
            self._g_bandwidth.set(bandwidth)
        # annotate the probe span so trace readers see the outcome
        burst.span.tags.update({
            "received": received, "lost": lost,
            "delay": delay, "bandwidth": bandwidth,
        })
        return RequirementReport(requirement, self.sim.now, delay,
                                 bandwidth, lost, received,
                                 bool(reasons), reasons,
                                 burst.span.span_id)

    def _dispersion_bandwidth(self,
                              burst: _PendingBurst) -> Optional[float]:
        """Delivered-rate estimate from the burst's arrival spread."""
        if len(burst.arrivals) < 2:
            return None
        spread = max(burst.arrivals) - min(burst.arrivals)
        if spread <= 0:
            return float("inf")  # no bottleneck dispersion observed
        per_frame = burst.bytes_received / len(burst.arrivals)
        return (burst.bytes_received - per_frame) * 8.0 / spread

    # -- state machine -----------------------------------------------------

    def _advance(self, breached: bool, detail: Dict[str, dict]) -> None:
        if breached:
            self._clean_streak = 0
            self._breach_streak += 1
            if self.state == OK:
                self._transition(WARN, detail)
            elif self.state == WARN \
                    and self._breach_streak >= self.VIOLATE_AFTER:
                self._transition(VIOLATED, detail)
        else:
            self._breach_streak = 0
            self._clean_streak += 1
            if self.state != OK and self._clean_streak >= self.RECOVER_AFTER:
                self._transition(OK, detail)

    def _transition(self, new_state: str, detail: Dict[str, dict]) -> None:
        old_state = self.state
        self.state = new_state
        self._g_state.set(STATE_VALUES[new_state])
        self.transitions.append((self.sim.now, old_state, new_state))
        emit = {VIOLATED: self.events.error, WARN: self.events.warn,
                OK: self.events.info}[new_state]
        emit("core.sla", "sla.%s" % new_state.lower(),
             "chain %s: %s -> %s" % (self.chain.sg.name, old_state,
                                     new_state),
             chain=self.chain.sg.name, old=old_state, new=new_state,
             breach_streak=self._breach_streak)
        for callback in self._alerts:
            callback(self.chain.sg.name, old_state, new_state, detail)

    # -- queries -----------------------------------------------------------

    def last_report(self, src: str, dst: str) -> Optional[RequirementReport]:
        return self.reports.get((src, dst))

    def status(self) -> dict:
        """Structured snapshot for dashboards and the CLI."""
        requirements = []
        for requirement in self.requirements:
            key = (requirement.src, requirement.dst)
            report = self.reports.get(key)
            requirements.append({
                "path": "%s->%s" % key,
                "max_delay": requirement.max_delay,
                "min_bandwidth": requirement.min_bandwidth,
                "measured_delay": report.delay if report else None,
                "measured_bandwidth": report.bandwidth if report else None,
                "lost": report.lost if report else None,
                "breached": report.breached if report else None,
                "reasons": report.reasons if report else [],
            })
        return {
            "chain": self.chain.sg.name,
            "state": self.state,
            "rounds": self.rounds,
            "running": self.running,
            "breach_streak": self._breach_streak,
            "transitions": list(self.transitions),
            "requirements": requirements,
        }

    def render(self) -> str:
        """One-line-per-requirement textual summary."""
        lines = ["%s: %s (%d rounds, %d transitions)"
                 % (self.chain.sg.name, self.state, self.rounds,
                    len(self.transitions))]
        for entry in self.status()["requirements"]:
            limits = []
            if entry["max_delay"] is not None:
                limits.append("delay<=%.4fs" % entry["max_delay"])
            if entry["min_bandwidth"] is not None:
                limits.append("bw>=%.0f" % entry["min_bandwidth"])
            measured = "-"
            if entry["measured_delay"] is not None:
                measured = "%.6fs" % entry["measured_delay"]
            verdict = ("BREACH: " + "; ".join(entry["reasons"])
                       if entry["breached"] else "ok")
            lines.append("  %-14s %-24s delay=%-10s %s"
                         % (entry["path"], ",".join(limits) or "-",
                            measured, verdict))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "SLAMonitor(%s, %s, %d rounds, %s)" % (
            self.chain.sg.name, self.state, self.rounds,
            "running" if self.running else "stopped")
