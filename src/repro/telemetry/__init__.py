"""repro.telemetry — unified metrics, tracing & events across the
UNIFY layers.

One :class:`Telemetry` bundle groups a :class:`MetricsRegistry`, a
:class:`Tracer` and an :class:`EventLog`, all reading the same clock.
Every ``Simulator`` creates its own bundle (``sim.telemetry``, clocked
by ``sim.now``); components read their instruments from the ``sim``
they are built on, so one emulation has exactly one bundle and two
emulations in one process never share one.

Metric names follow ``layer.component.name`` — e.g.
``netconf.client.rpc_latency`` or ``core.mapping.placement_attempts``
— so one snapshot shows all three layers side by side.  Events use
``layer.component`` sources and are stamped with the id of whatever
span is open at emit time, joining the three signal kinds together.
"""

import weakref
from typing import Callable, Optional

from repro.telemetry.events import (DEBUG, ERROR, INFO, SEVERITIES, WARN,
                                    Event, EventError, EventLog)
from repro.telemetry.export import (snapshot_dict, to_json, to_prometheus,
                                    writable_path, write_snapshot)
from repro.telemetry.flowtrace import (FlowTrace, FlowTraceError,
                                       load_flowtrace_report,
                                       render_flowtrace_report,
                                       report_from_jsonl)
from repro.telemetry.metrics import (Counter, Gauge, Histogram, Metric,
                                     MetricError, MetricsRegistry,
                                     nearest_rank)
from repro.telemetry.profiler import NULL_REGION, Profiler, RegionStat
from repro.telemetry.trace import Span, Tracer

__all__ = [
    "Counter", "DEBUG", "ERROR", "Event", "EventError", "EventLog",
    "FlowTrace", "FlowTraceError", "Gauge", "Histogram", "INFO",
    "Metric", "MetricError", "MetricsRegistry", "NULL_REGION", "Profiler",
    "RegionStat", "SEVERITIES", "Span", "Telemetry", "Tracer",
    "WARN", "load_flowtrace_report", "nearest_rank",
    "render_flowtrace_report",
    "report_from_jsonl", "snapshot_dict", "to_json", "to_prometheus",
    "writable_path", "write_snapshot",
]


class Telemetry:
    """A metrics registry, a tracer, an event log and a profiler —
    the first three sharing one (simulated) clock, the profiler on
    host wall-clock (it measures the framework, not the simulation)."""

    MAX_TRACES = 16  # deployment traces the tracer keeps

    def __init__(self, sim=None):
        # the simulator owns this bundle, so the clock holds it weakly:
        # a dropped simulator is freed by reference counting
        clock: Optional[Callable[[], float]] = None
        if sim is not None:
            sim_ref = weakref.ref(sim)
            clock = lambda: sim_ref().now  # noqa: E731
        self.metrics = MetricsRegistry(clock=clock)
        self.tracer = Tracer(clock=clock, max_traces=self.MAX_TRACES)
        self.events = EventLog(clock=clock, tracer=self.tracer)
        self.profiler = Profiler()
        self.flowtrace = FlowTrace(events=self.events)
        # collectors close over the parts, not over this bundle, which
        # holds the registry holding them
        events, profiler, flowtrace = (self.events, self.profiler,
                                       self.flowtrace)
        self.metrics.add_collector(
            lambda registry: _collect_event_counts(registry, events))
        self.metrics.add_collector(
            lambda registry: _collect_self_overhead(registry, profiler))
        self.metrics.add_collector(
            lambda registry: _collect_flowtrace(registry, flowtrace))

    def snapshot(self):
        return snapshot_dict(self.metrics, self.tracer, self.events)

    def __repr__(self) -> str:
        return "Telemetry(%d metrics, %d traces, %d events)" % (
            len(self.metrics), len(self.tracer.traces),
            len(self.events))


def _collect_event_counts(registry: MetricsRegistry,
                          events: EventLog) -> None:
    for severity, count in events.counts().items():
        registry.gauge("telemetry.events.emitted",
                       "events emitted by severity",
                       labels={"severity": severity.lower()}).set(count)


def _collect_self_overhead(registry: MetricsRegistry,
                           profiler: Profiler) -> None:
    """Telemetry self-overhead as first-class metrics: the cost of
    observing is part of what is observed."""
    registry.gauge("telemetry.profiler.enabled",
                   "1 while the profiler records regions").set(
        1.0 if profiler.enabled else 0.0)
    registry.gauge("telemetry.profiler.entries",
                   "region entries recorded by the profiler").set(
        profiler.entries)
    registry.gauge("telemetry.profiler.regions",
                   "distinct profile regions recorded").set(
        len(profiler.stats))
    registry.gauge("telemetry.profiler.overhead_seconds",
                   "host seconds spent on profiler bookkeeping").set(
        profiler.overhead)
    registry.gauge("telemetry.metrics.collect_seconds",
                   "host seconds spent running snapshot collectors"
                   ).set(registry.collect_seconds)


def _collect_flowtrace(registry: MetricsRegistry,
                       flowtrace: FlowTrace) -> None:
    registry.gauge("telemetry.flowtrace.enabled",
                   "1 while postcard sampling is on").set(
        1.0 if flowtrace.enabled else 0.0)
    registry.gauge("telemetry.flowtrace.traces",
                   "sampled packets currently collected").set(
        len(flowtrace))
    registry.gauge("telemetry.flowtrace.postcards",
                   "per-hop postcards recorded").set(
        flowtrace.postcards)
    registry.gauge("telemetry.flowtrace.evicted",
                   "sampled packets evicted from the bounded "
                   "collector").set(flowtrace.evicted)
