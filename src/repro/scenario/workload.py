"""Subscriber-driven workload synthesis.

A workload models ``subscribers_per_sap`` subscribers behind every
SAP of every requested chain.  Flow arrivals are an inhomogeneous
Poisson process (per chain) whose rate follows a diurnal profile —
``rate(t)`` swings between a trough and a peak over ``period``
simulated seconds — thinned from a seeded homogeneous draw, so the
same seed always produces the *bit-identical* schedule (the
determinism contract ``tests/test_scenario.py`` pins down).

Two artifacts come out of :func:`build_workload`:

* **chain requests** — service graphs drawn from
  :data:`CHAIN_TEMPLATES` between seeded SAP pairs (each pair used at
  most once: steering refuses a deploy whose flowspec overlaps a
  deployed chain's), carrying the scenario's SLA requirements,
* **flows** — timestamped UDP flow descriptions riding those chains
  (source SAP → sink SAP, the direction the steering match covers).

:class:`WorkloadDriver` executes a schedule against a live network:
it binds one receiver port per sink, stamps every datagram with the
simulated send time, and accumulates per-flow delivery counts plus
one-way delay samples for the result bundle's p50/p99 columns.
"""

import math
import random
import struct
from typing import Dict, List, Optional, Tuple

from repro.netem.topo import Topo
from repro.telemetry.metrics import nearest_rank

#: chain-template catalog: template name -> ordered (vnf_type, params)
CHAIN_TEMPLATES: Dict[str, List[Tuple[str, dict]]] = {
    "bump": [("forwarder", {})],
    "web": [("firewall", {"rules": "allow all"})],
    "secure": [("firewall", {"rules": "allow all"}),
               ("dpi", {"signatures": "X-SCENARIO-EVIL"})],
    "shaped": [("rate_limiter", {"rate": 20000})],
}

#: UDP port workload datagrams ride (distinct from the SLA probe range)
WORKLOAD_PORT = 47000

_FLOW_HEADER = struct.Struct("!IId")  # magic, flow id, send time
_FLOW_MAGIC = 0x5C3A0001


class WorkloadError(Exception):
    pass


def diurnal_factor(t: float, period: float, trough: float,
                   phase: float = 0.0) -> float:
    """Rate multiplier in ``[trough, 1.0]``: a raised cosine peaking
    mid-period (the classic tidal subscriber-activity curve)."""
    if period <= 0:
        return 1.0
    swing = (1.0 - math.cos(2.0 * math.pi * (t / period) + phase)) / 2.0
    return trough + (1.0 - trough) * swing


class WorkloadSchedule:
    """The deterministic output of :func:`build_workload`: chain
    requests plus the flow timetable, both plain data."""

    def __init__(self, seed: int, chains: List[dict], flows: List[dict],
                 meta: dict):
        self.seed = seed
        self.chains = chains
        self.flows = flows
        self.meta = meta

    @property
    def packets_scheduled(self) -> int:
        return sum(flow["packets"] for flow in self.flows)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "chains": self.chains,
                "flows": self.flows, "meta": self.meta}

    def __repr__(self) -> str:
        return ("WorkloadSchedule(seed=%d, %d chains, %d flows, %d pkts)"
                % (self.seed, len(self.chains), len(self.flows),
                   self.packets_scheduled))


class Workload:
    """Parsed ``workload:`` section of a scenario (all knobs have
    defaults sized for smoke campaigns)."""

    def __init__(self, subscribers_per_sap: int = 100,
                 flows_per_subscriber: float = 0.002,
                 diurnal_period: Optional[float] = None,
                 diurnal_trough: float = 0.3, diurnal_phase: float = 0.0,
                 flow_rate_pps: float = 200.0,
                 flow_duration: float = 0.25, payload_size: int = 200,
                 max_flows: int = 64):
        if subscribers_per_sap < 1:
            raise WorkloadError("subscribers_per_sap must be >= 1")
        if flows_per_subscriber <= 0:
            raise WorkloadError("flows_per_subscriber must be > 0")
        if flow_rate_pps <= 0 or flow_duration <= 0:
            raise WorkloadError("flow rate and duration must be > 0")
        self.subscribers_per_sap = subscribers_per_sap
        self.flows_per_subscriber = flows_per_subscriber
        self.diurnal_period = diurnal_period
        self.diurnal_trough = diurnal_trough
        self.diurnal_phase = diurnal_phase
        self.flow_rate_pps = flow_rate_pps
        self.flow_duration = flow_duration
        self.payload_size = payload_size
        self.max_flows = max_flows

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "Workload":
        data = dict(data or {})
        diurnal = data.pop("diurnal", None)
        kwargs = {}
        for key in ("subscribers_per_sap", "flows_per_subscriber",
                    "flow_rate_pps", "flow_duration", "payload_size",
                    "max_flows"):
            if key in data:
                kwargs[key] = data.pop(key)
        if data:
            raise WorkloadError("unknown workload key(s): %s"
                                % ", ".join(sorted(data)))
        if diurnal:
            kwargs["diurnal_period"] = diurnal.get("period")
            kwargs["diurnal_trough"] = diurnal.get("trough", 0.3)
            kwargs["diurnal_phase"] = diurnal.get("phase", 0.0)
        return cls(**kwargs)

    def rate_at(self, t: float, duration: float) -> float:
        """Aggregate new-flow arrival rate (flows/s) per chain at
        simulated time ``t``."""
        base = self.subscribers_per_sap * self.flows_per_subscriber
        period = self.diurnal_period
        if period is None:
            period = duration
        return base * diurnal_factor(t, period, self.diurnal_trough,
                                     self.diurnal_phase)


def _pick_sap_pairs(hosts: List[str], count: int,
                    rng: random.Random) -> List[Tuple[str, str]]:
    """``count`` distinct (src, dst) host pairs, no pair reused in
    either direction: two chains of one pair would overlap on the
    orchestrator's per-pair flowspec, and steering refuses the second
    at deploy."""
    if len(hosts) < 2:
        raise WorkloadError("topology has %d host SAP(s); need >= 2"
                            % len(hosts))
    pairs = [(a, b) for i, a in enumerate(hosts)
             for b in hosts[i + 1:]]
    if count > len(pairs):
        raise WorkloadError(
            "cannot place %d chains over %d hosts (%d distinct pairs)"
            % (count, len(hosts), len(pairs)))
    chosen = rng.sample(pairs, count)
    oriented = []
    for a, b in chosen:
        oriented.append((a, b) if rng.random() < 0.5 else (b, a))
    return oriented


def build_chain_requests(topo: Topo, chains_spec: Optional[dict],
                         sla_spec: Optional[dict],
                         rng: random.Random) -> List[dict]:
    """Service-graph request dicts (the ``sgfile`` format) drawn from
    the template catalog over seeded SAP pairs."""
    chains_spec = dict(chains_spec or {})
    count = int(chains_spec.get("count", 1))
    templates = list(chains_spec.get("templates") or ["bump"])
    explicit_pairs = chains_spec.get("sap_pairs")
    for template in templates:
        if template not in CHAIN_TEMPLATES:
            raise WorkloadError(
                "unknown chain template %r (have: %s)"
                % (template, ", ".join(sorted(CHAIN_TEMPLATES))))
    if explicit_pairs is not None:
        pairs = [tuple(pair) for pair in explicit_pairs]
        count = len(pairs)
    else:
        pairs = _pick_sap_pairs(topo.hosts(), count, rng)
    requirements = []
    if sla_spec:
        entry = {}
        if sla_spec.get("max_delay") is not None:
            entry["max_delay"] = float(sla_spec["max_delay"])
        if sla_spec.get("min_bandwidth") is not None:
            entry["min_bandwidth"] = float(sla_spec["min_bandwidth"])
        if entry:
            requirements.append(entry)
    requests = []
    for index, (src, dst) in enumerate(pairs):
        template = templates[index % len(templates)]
        vnf_names = []
        vnfs = []
        for position, (vnf_type, params) in enumerate(
                CHAIN_TEMPLATES[template]):
            vnf_name = "c%d-%s%d" % (index + 1, vnf_type, position)
            vnf_names.append(vnf_name)
            vnf = {"name": vnf_name, "type": vnf_type}
            if params:
                vnf["params"] = dict(params)
            vnfs.append(vnf)
        sg = {
            "name": "chain%d-%s" % (index + 1, template),
            "saps": [src, dst],
            "vnfs": vnfs,
            "chain": [src] + vnf_names + [dst],
        }
        if requirements:
            sg["requirements"] = [dict(entry, **{"from": src, "to": dst})
                                  for entry in requirements]
        requests.append({"name": sg["name"], "template": template,
                         "src": src, "dst": dst, "sg": sg})
    return requests


def build_flows(chains: List[dict], workload: Workload, duration: float,
                rng: random.Random) -> List[dict]:
    """The flow timetable: thinned Poisson arrivals per chain, rate
    modulated by the diurnal profile, durations exponential around
    ``flow_duration`` and clipped to the run window."""
    flows: List[dict] = []
    flow_id = 0
    peak = max(workload.rate_at(t, duration)
               for t in (0.0, duration * 0.25, duration * 0.5,
                         duration * 0.75))
    peak = max(peak,
               workload.subscribers_per_sap * workload.flows_per_subscriber)
    for chain in chains:
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= duration:
                break
            if rng.random() > workload.rate_at(t, duration) / peak:
                continue  # thinned: off-peak arrival rejected
            flow_duration = min(
                max(rng.expovariate(1.0 / workload.flow_duration), 0.01),
                max(duration - t, 0.01))
            packets = max(1, int(round(workload.flow_rate_pps
                                       * flow_duration)))
            flow_id += 1
            flows.append({
                "id": flow_id,
                "chain": chain["name"],
                "src": chain["src"],
                "dst": chain["dst"],
                "start": round(t, 9),
                "rate_pps": workload.flow_rate_pps,
                "packets": packets,
                "payload_size": workload.payload_size,
            })
    flows.sort(key=lambda flow: (flow["start"], flow["id"]))
    if len(flows) > workload.max_flows:
        flows = flows[:workload.max_flows]
    return flows


def build_workload(topo: Topo, seed: int, duration: float,
                   workload_spec: Optional[dict] = None,
                   chains_spec: Optional[dict] = None,
                   sla_spec: Optional[dict] = None) -> WorkloadSchedule:
    """The deterministic schedule for one (scenario, seed) run."""
    workload = Workload.from_dict(workload_spec)
    rng = random.Random(seed)
    chains = build_chain_requests(topo, chains_spec, sla_spec, rng)
    flows = build_flows(chains, workload, duration, rng)
    meta = {
        "duration": duration,
        "subscribers_per_sap": workload.subscribers_per_sap,
        "modeled_subscribers": workload.subscribers_per_sap * len(chains),
        "flows_scheduled": len(flows),
        "packets_scheduled": sum(flow["packets"] for flow in flows),
    }
    return WorkloadSchedule(seed, chains, flows, meta)


class WorkloadDriver:
    """Executes a :class:`WorkloadSchedule` against a live network.

    ``arm()`` binds the workload port on every sink SAP and schedules
    the flow senders; while the simulation runs, every received
    datagram contributes a one-way delay sample (simulated send time
    is carried in the payload).  ``results()`` summarises delivery and
    latency for the result bundle.
    """

    def __init__(self, net, schedule: WorkloadSchedule):
        self.net = net
        self.sim = net.sim
        self.schedule = schedule
        self.sent: Dict[int, int] = {}
        self.received: Dict[int, int] = {}
        self.delays: List[float] = []
        self.bytes_received = 0
        self._bound: List = []

    def arm(self) -> "WorkloadDriver":
        sinks = {flow["dst"] for flow in self.schedule.flows}
        for sink_name in sorted(sinks):
            sink = self.net.get(sink_name)
            sink.bind_udp(WORKLOAD_PORT, self._receive)
            self._bound.append(sink)
        for flow in self.schedule.flows:
            self.sent[flow["id"]] = 0
            self.received[flow["id"]] = 0
            self.sim.schedule(max(flow["start"] - self.sim.now, 0.0),
                              self._start_flow, flow)
        return self

    def disarm(self) -> None:
        for sink in self._bound:
            sink.unbind_udp(WORKLOAD_PORT)
        self._bound = []

    def _start_flow(self, flow: dict) -> None:
        source = self.net.get(flow["src"])
        sink = self.net.get(flow["dst"])
        interval = 1.0 / flow["rate_pps"]
        pad = max(0, flow["payload_size"] - _FLOW_HEADER.size)

        def send_next(remaining: int) -> None:
            if remaining <= 0:
                return
            head = _FLOW_HEADER.pack(_FLOW_MAGIC, flow["id"],
                                     self.sim.now)
            # pad by repeating the (per-packet unique) header instead
            # of zero-filling: flow telemetry hashes the *tail* of the
            # frame into its trace id
            payload = head + (head * (pad // len(head) + 1))[:pad]
            source.send_udp(sink.ip, WORKLOAD_PORT, payload)
            self.sent[flow["id"]] += 1
            if remaining > 1:
                self.sim.schedule(interval, send_next, remaining - 1)

        send_next(flow["packets"])

    def _receive(self, _srcip, _srcport, payload: bytes) -> None:
        if len(payload) < _FLOW_HEADER.size:
            return
        magic, flow_id, sent_at = _FLOW_HEADER.unpack_from(payload)
        if magic != _FLOW_MAGIC or flow_id not in self.received:
            return
        self.received[flow_id] += 1
        self.bytes_received += len(payload)
        self.delays.append(self.sim.now - sent_at)

    def results(self) -> dict:
        sent = sum(self.sent.values())
        received = sum(self.received.values())
        delays = self.delays
        completed = sum(1 for flow_id, count in self.sent.items()
                        if count and self.received[flow_id] == count)
        return {
            "flows_scheduled": len(self.schedule.flows),
            "flows_started": sum(1 for count in self.sent.values()
                                 if count),
            "flows_completed": completed,
            "packets_sent": sent,
            "packets_received": received,
            "bytes_received": self.bytes_received,
            "loss_ratio": ((sent - received) / sent) if sent else 0.0,
            "delay_p50": nearest_rank(delays, 50),
            "delay_p99": nearest_rank(delays, 99),
            "delay_max": max(delays) if delays else None,
            "delay_samples": len(delays),
        }
