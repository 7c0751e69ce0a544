"""In-band flow telemetry: sampled per-packet path tracing.

INT-style "postcard" telemetry for the emulated dataplane.  Every hop
that can delay a packet — link serialization/propagation in
``netem.link``, the OpenFlow pipeline, Click queue residency, VNF
traversal — re-derives a **trace id** from the frame bytes and, when
the packet is sampled, appends a postcard ``(time, kind, hop, dpid)``
to a bounded collector.  Nothing is added to the packet: the id is a
seeded CRC over the *trailing* bytes of the frame, which are invariant
under VLAN tagging/stripping (the tag is inserted after the source
MAC) and unique per packet for the workload/probe payloads (both embed
a per-packet send timestamp).

Sampling is deterministic: a packet is traced iff
``crc32(frame[-64:], seed) % rate == 0``, so the same seed and the
same scenario reproduce the byte-identical sampled set — the property
``tests/test_flowtrace.py`` locks down.  The hot-path discipline
matches the profiler: every instrumented site holds a bound-once
handle and the disabled path is one attribute check.

On top of the collector sit two consumers:

* :meth:`FlowTrace.aggregate` — per-chain hop-latency breakdowns
  (p50/p99/mean per hop plus each hop's attributed share of the
  one-way delay), classified by matching the sampled frame against the
  steering-registered chain matches;
* the **chain-conformance checker** — each sampled packet's observed
  switch-dpid sequence is compared against the steering-installed
  path; a packet that visits a switch off its chain's path (or out of
  order) raises a ``flowtrace.nonconformant`` event.  Protected paths
  register their backup dpids as acceptable alternates, so a
  fast-failover flip is not a false positive.

:class:`repro.pox.steering.TrafficSteering` registers/unregisters the
expected paths; :class:`repro.core.ESCAPE` exposes the bundle instance
as ``escape.flowtrace`` and through the ``flowtrace`` console command;
the campaign runner enables it per scenario (``flowtrace:`` key),
writes one JSONL line per trace, and embeds the aggregated report in
the result bundle (schema 4).
"""

import json
import os
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.export import find_files, writable_path
from repro.telemetry.metrics import nearest_rank

__all__ = ["FlowTrace", "FlowTraceError", "load_flowtrace_report",
           "render_flowtrace_report", "report_from_jsonl"]


class FlowTraceError(Exception):
    pass


# How postcard kinds label the latency *delta* that ends at them: the
# time between a postcard and its predecessor is attributed to whatever
# the packet just crossed.
_DELTA_KIND = {
    "link.tx": "emit",     # node processing before entering the link
    "link.rx": "link",     # tx-queue wait + serialization + propagation
    "switch": "switch",    # OpenFlow pipeline
    "queue.in": "proc",    # element processing ahead of the queue
    "queue.out": "queue",  # queue residency
    "vnf.in": "vnf.in",    # hand-off from the device splice
    "vnf.out": "vnf",      # traversal of the element graph
}


def _delta_label(kind: str, hop: str) -> str:
    return "%s:%s" % (_DELTA_KIND.get(kind, kind), hop)


def _iter_deltas(hops: List[tuple]):
    """Yield ``(label, seconds)`` for consecutive postcards."""
    for index in range(1, len(hops)):
        prev_t = hops[index - 1][0]
        t, kind, hop = hops[index][0], hops[index][1], hops[index][2]
        yield _delta_label(kind, hop), t - prev_t


class _Trace:
    """One sampled packet: first frame bytes + its postcards."""

    __slots__ = ("id", "first", "frame", "hops")

    def __init__(self, trace_id: int, first: float, frame: bytes):
        self.id = trace_id
        self.first = first
        self.frame = frame       # as first seen: classification input
        self.hops: List[tuple] = []  # (time, kind, hop, dpid)


class _ExpectedPath:
    """One steering-installed path the conformance checker knows."""

    __slots__ = ("path_id", "chain", "match", "dpids", "alt_dpids")

    def __init__(self, path_id: str, chain: str, match,
                 dpids: List[int], alt_dpids: List[int]):
        self.path_id = path_id
        self.chain = chain
        self.match = match
        self.dpids = dpids
        self.alt_dpids = alt_dpids


class FlowTrace:
    """The postcard sampler, collector, aggregator and conformance
    checker.  Off by default; the disabled hot path is a single
    attribute check at every instrumented site."""

    DIGEST_TAIL = 64     # trailing frame bytes hashed into the trace id
    DEFAULT_RATE = 64    # sample 1 in N packets when enabled

    def __init__(self, events=None, rate: int = DEFAULT_RATE,
                 seed: int = 1, max_traces: int = 4096,
                 max_hops: int = 96):
        self.enabled = False
        self._events = events
        self.max_traces = max_traces
        self.max_hops = max_hops
        self.postcards = 0
        self.evicted = 0
        self.truncated = 0
        self._traces: "OrderedDict[int, _Trace]" = OrderedDict()
        self._paths: List[_ExpectedPath] = []
        self._chain_rates: Dict[str, int] = {}
        self._flagged: set = set()
        self.configure(rate=rate, seed=seed)

    # -- configuration / lifecycle ---------------------------------------

    def configure(self, rate: Optional[int] = None,
                  seed: Optional[int] = None) -> "FlowTrace":
        if rate is not None:
            if rate < 1:
                raise FlowTraceError("rate must be >= 1, got %r" % rate)
            self.rate = int(rate)
        if seed is not None:
            self.seed = int(seed)
            self._basis = self.seed & 0xFFFFFFFF
        return self

    def enable(self, rate: Optional[int] = None,
               seed: Optional[int] = None) -> "FlowTrace":
        self.configure(rate=rate, seed=seed)
        self.enabled = True
        return self

    def disable(self) -> "FlowTrace":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop collected traces (keeps config and path registry)."""
        self._traces.clear()
        self._flagged.clear()
        self.postcards = 0
        self.evicted = 0
        self.truncated = 0

    def set_chain_rate(self, chain: str, rate: int) -> None:
        """Coarsen sampling for one chain.  Applied at aggregation:
        a chain-rate trace set is the subset of the base-rate set with
        ``trace_id % rate == 0``, so it must be a multiple of the base
        rate to select anything."""
        rate = int(rate)
        if rate < self.rate or rate % self.rate:
            raise FlowTraceError(
                "chain rate %d must be a multiple of the base rate %d"
                % (rate, self.rate))
        self._chain_rates[chain] = rate

    # -- hot path ---------------------------------------------------------

    def digest(self, data: bytes) -> int:
        """The trace id of a frame: seeded CRC over its trailing bytes
        (invariant under VLAN tag insertion/removal)."""
        return zlib.crc32(data[-self.DIGEST_TAIL:], self._basis)

    def record(self, kind: str, hop: str, now: float, data: bytes,
               dpid: Optional[int] = None) -> None:
        """Append a postcard for ``data`` if it is sampled.  Call sites
        guard with ``if flowtrace.enabled:`` — this method assumes the
        sampler is on."""
        trace_id = zlib.crc32(data[-self.DIGEST_TAIL:], self._basis)
        if trace_id % self.rate:
            return
        traces = self._traces
        trace = traces.get(trace_id)
        if trace is None:
            if len(traces) >= self.max_traces:
                traces.popitem(last=False)
                self.evicted += 1
            trace = _Trace(trace_id, now, bytes(data))
            traces[trace_id] = trace
        hops = trace.hops
        if len(hops) >= self.max_hops:
            self.truncated += 1
            return
        hops.append((now, kind, hop, dpid))
        self.postcards += 1

    # -- expected-path registry (fed by pox steering) --------------------

    def register_path(self, path_id: str, chain: str, match,
                      dpids: List[int],
                      alt_dpids: Optional[List[int]] = None) -> None:
        self._paths.append(_ExpectedPath(path_id, chain, match,
                                         list(dpids),
                                         list(alt_dpids or [])))

    def unregister_path(self, path_id: str) -> None:
        self._paths = [path for path in self._paths
                       if path.path_id != path_id]

    def registered_paths(self) -> List[str]:
        return [path.path_id for path in self._paths]

    # -- classification / conformance -------------------------------------

    def _classify(self, trace: _Trace):
        """Which chain the sampled frame belongs to, with the expected
        dpid sequence: ``(chain, expected_dpids, allowed_dpids)`` or
        ``(None, [], set())`` when no registered match covers it."""
        if not self._paths:
            return None, [], set()
        # imported lazily: repro.openflow pulls repro.telemetry back in
        from repro.openflow.match import Match
        try:
            concrete = Match.from_packet(trace.frame)
        except Exception:
            return None, [], set()
        chain = None
        expected: List[int] = []
        allowed: set = set()
        for path in self._paths:
            if not path.match.matches(concrete):
                continue
            if chain is None:
                chain = path.chain
            if path.chain != chain:
                continue  # first matching chain wins
            expected.extend(path.dpids)
            allowed.update(path.dpids)
            allowed.update(path.alt_dpids)
        return chain, expected, allowed

    @staticmethod
    def _is_substring(observed: List[int], expected: List[int]) -> bool:
        if not observed:
            return True
        n = len(observed)
        for start in range(len(expected) - n + 1):
            if expected[start:start + n] == observed:
                return True
        return False

    def _conformant(self, trace: _Trace, expected: List[int],
                    allowed: set) -> bool:
        observed = [hop[3] for hop in trace.hops if hop[1] == "switch"]
        if self._is_substring(observed, expected):
            return True
        # a fast-failover flip legitimately detours through backup
        # switches; anything outside primary+backup is mis-steering
        if allowed != set(expected) and all(dpid in allowed
                                            for dpid in observed):
            return True
        return False

    # -- analysis ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._traces)

    def trace_records(self) -> List[Dict[str, Any]]:
        """One dict per sampled packet, in collection order."""
        records = []
        for trace in self._traces.values():
            chain, expected, allowed = self._classify(trace)
            record = {
                "trace": trace.id,
                "time": trace.first,
                "chain": chain,
                "one_way": (trace.hops[-1][0] - trace.hops[0][0]
                            if trace.hops else 0.0),
                "conformant": (self._conformant(trace, expected, allowed)
                               if chain is not None else None),
                "hops": [list(hop) for hop in trace.hops],
            }
            records.append(record)
        return records

    def aggregate(self) -> Dict[str, Any]:
        """The per-chain hop-latency breakdown + conformance report."""
        chains, unclassified = _summarize_chains(
            self.trace_records(), self.rate, self._chain_rates,
            self._flag_nonconformant if self._events is not None else None)
        return {
            "enabled": self.enabled,
            "rate": self.rate,
            "seed": self.seed,
            "traces": len(self._traces),
            "postcards": self.postcards,
            "evicted": self.evicted,
            "truncated": self.truncated,
            "paths_registered": len(self._paths),
            "unclassified": unclassified,
            "chains": chains,
        }

    def _flag_nonconformant(self, chain: str, record: Dict[str, Any]) -> None:
        """Warn once per packet seen off its chain's installed path."""
        if record["trace"] in self._flagged:
            return
        self._flagged.add(record["trace"])
        observed = [hop[3] for hop in record["hops"] if hop[1] == "switch"]
        self._events.warn(
            "telemetry.flowtrace", "flowtrace.nonconformant",
            "chain %s packet %08x visited dpids %r off its installed "
            "path" % (chain, record["trace"], observed),
            chain=chain, trace=record["trace"],
            observed=",".join(str(d) for d in observed))

    report = aggregate

    # -- export -----------------------------------------------------------

    def publish(self, registry) -> Dict[str, Any]:
        """Run :meth:`aggregate` and push the per-chain results into a
        :class:`MetricsRegistry` as labelled gauges.  Returns the
        report."""
        report = self.aggregate()
        for chain, summary in report["chains"].items():
            labels = {"chain": chain}
            for quantile in ("p50", "p99"):
                value = summary["one_way"][quantile]
                if value is not None:
                    registry.gauge(
                        "flowtrace.chain.one_way_%s" % quantile,
                        "sampled one-way delay (%s)" % quantile,
                        labels=labels).set(value)
            registry.gauge("flowtrace.chain.traces",
                           "sampled packets aggregated per chain",
                           labels=labels).set(summary["traces"])
            registry.gauge("flowtrace.chain.nonconformant",
                           "sampled packets off their installed path",
                           labels=labels).set(summary["nonconformant"])
        return report

    def write_jsonl(self, path: str) -> int:
        """One line per sampled packet (plus a leading meta line);
        returns the number of trace lines written."""
        records = self.trace_records()
        with open(writable_path(path), "w") as handle:
            meta = {"meta": {"rate": self.rate, "seed": self.seed,
                             "traces": len(records),
                             "postcards": self.postcards,
                             "evicted": self.evicted}}
            if self._chain_rates:
                meta["meta"]["chain_rates"] = dict(self._chain_rates)
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def status(self) -> Dict[str, Any]:
        return {"enabled": self.enabled, "rate": self.rate,
                "seed": self.seed, "traces": len(self._traces),
                "postcards": self.postcards, "evicted": self.evicted,
                "truncated": self.truncated,
                "paths_registered": len(self._paths)}

    def __repr__(self) -> str:
        return "FlowTrace(%s, 1/%d, %d traces, %d postcards)" % (
            "on" if self.enabled else "off", self.rate,
            len(self._traces), self.postcards)


def _summarize_chains(records, rate: int, chain_rates: Dict[str, int],
                      flag=None) -> Tuple[Dict[str, Any], int]:
    """Bucket trace records by chain and summarise each bucket: the
    per-chain hop-latency breakdown of a report, live or offline.  A
    chain with its own (coarser) rate keeps only the traces whose id it
    selects.  ``flag(chain, record)`` is called for each nonconformant
    trace kept.  Returns the summaries by chain and the count of
    unclassified traces."""
    buckets: Dict[str, Dict[str, Any]] = {}
    unclassified = 0
    for record in records:
        chain = record.get("chain")
        if chain is None:
            unclassified += 1
            continue
        chain_rate = chain_rates.get(chain, rate)
        if chain_rate and record["trace"] % chain_rate:
            continue  # chain sampled coarser than the base rate
        bucket = buckets.setdefault(chain, {
            "rate": chain_rate, "one_ways": [],
            "hops": OrderedDict(), "nonconformant": 0})
        bucket["one_ways"].append(record["one_way"])
        for label, delta in _iter_deltas(record["hops"]):
            bucket["hops"].setdefault(label, []).append(delta)
        if record.get("conformant") is False:
            bucket["nonconformant"] += 1
            if flag is not None:
                flag(chain, record)
    return ({chain: _summarize_chain(bucket)
             for chain, bucket in sorted(buckets.items())}, unclassified)


def _summarize_chain(bucket: Dict[str, Any]) -> Dict[str, Any]:
    one_ways = bucket["one_ways"]
    total_one_way = sum(one_ways)
    hops = []
    attributed = 0.0
    for label, deltas in bucket["hops"].items():
        hop_total = sum(deltas)
        attributed += hop_total
        hops.append({
            "hop": label,
            "p50": nearest_rank(deltas, 50),
            "p99": nearest_rank(deltas, 99),
            "mean": hop_total / len(deltas),
            "share": (hop_total / total_one_way
                      if total_one_way else 0.0),
        })
    return {
        "rate": bucket["rate"],
        "traces": len(one_ways),
        "nonconformant": bucket["nonconformant"],
        "one_way": {
            "p50": nearest_rank(one_ways, 50),
            "p99": nearest_rank(one_ways, 99),
            "mean": (total_one_way / len(one_ways)
                     if one_ways else 0.0),
        },
        "attributed_ratio": (attributed / total_one_way
                             if total_one_way else 1.0),
        "hops": hops,
    }


# -- offline report loading (the `escape flowtrace` CLI) ----------------------

def report_from_jsonl(path: str) -> Dict[str, Any]:
    """Rebuild the aggregated report from a ``flowtrace.jsonl`` file
    (chain classification and conformance were already resolved when
    the lines were written)."""
    meta: Dict[str, Any] = {}
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "meta" in record:
                meta = record["meta"]
            else:
                records.append(record)
    chains, unclassified = _summarize_chains(
        records, meta.get("rate", 0), meta.get("chain_rates", {}))
    return {
        "rate": meta.get("rate"), "seed": meta.get("seed"),
        "traces": len(records), "postcards": meta.get("postcards", 0),
        "evicted": meta.get("evicted", 0),
        "unclassified": unclassified, "chains": chains,
    }


def load_flowtrace_report(source: str) -> Dict[str, Any]:
    """A flowtrace report from a ``bundle.json``, a
    ``flowtrace.jsonl``, or a directory containing either."""
    if os.path.isdir(source):
        found = find_files(source, ("bundle.json", "flowtrace.jsonl"))
        # bundles first: their report is already summarised
        for path in sorted(found, key=lambda p: p.endswith(".jsonl")):
            try:
                return load_flowtrace_report(path)
            except FlowTraceError:
                continue
        raise FlowTraceError(
            "no bundle.json/flowtrace.jsonl with a flowtrace section "
            "under %s" % source)
    if not os.path.exists(source):
        raise FlowTraceError("no such file: %s" % source)
    if source.endswith(".jsonl"):
        return report_from_jsonl(source)
    with open(source) as handle:
        data = json.load(handle)
    if "flowtrace" in data:
        return data["flowtrace"]
    if "chains" in data and "traces" in data:
        return data  # a bare report dump
    raise FlowTraceError("%s carries no flowtrace section" % source)


def _fmt_s(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return "%.3fms" % (value * 1e3)


def render_flowtrace_report(report: Dict[str, Any],
                            chain: Optional[str] = None) -> str:
    """The per-chain hop-latency table."""
    chains = report.get("chains", {})
    if chain is not None:
        if chain not in chains:
            return "no flowtrace data for chain %r (have: %s)" % (
                chain, ", ".join(sorted(chains)) or "none")
        chains = {chain: chains[chain]}
    lines = ["flowtrace: 1/%s sampling, seed %s — %d trace(s), "
             "%d unclassified"
             % (report.get("rate"), report.get("seed"),
                report.get("traces", 0), report.get("unclassified", 0))]
    if not chains:
        lines.append("no classified chains (enable sampling and drive "
                     "traffic through a steered chain)")
        return "\n".join(lines)
    for name, summary in sorted(chains.items()):
        one_way = summary["one_way"]
        lines.append("")
        lines.append("%s: %d trace(s) at 1/%d, one-way p50=%s p99=%s, "
                     "attributed %.1f%%, nonconformant %d"
                     % (name, summary["traces"], summary["rate"],
                        _fmt_s(one_way["p50"]), _fmt_s(one_way["p99"]),
                        100.0 * summary["attributed_ratio"],
                        summary["nonconformant"]))
        lines.append("  %-40s %10s %10s %10s %7s"
                     % ("HOP", "P50", "P99", "MEAN", "SHARE"))
        for hop in summary["hops"]:
            lines.append("  %-40s %10s %10s %10s %6.1f%%"
                         % (hop["hop"], _fmt_s(hop["p50"]),
                            _fmt_s(hop["p99"]), _fmt_s(hop["mean"]),
                            100.0 * hop["share"]))
    return "\n".join(lines)
