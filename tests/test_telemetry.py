"""Unit tests for the repro.telemetry subsystem: registry semantics,
histogram percentiles, span nesting under the simulated clock, and the
JSON / Prometheus exporters."""

import json
from types import SimpleNamespace

import pytest

from repro.sim import Simulator
from repro.telemetry import (Counter, Gauge, Histogram, MetricError,
                             MetricsRegistry, Telemetry, Tracer,
                             nearest_rank, snapshot_dict, to_json,
                             to_prometheus, write_snapshot)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("layer.component.events")
        assert counter.value == 0
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_cannot_decrease(self):
        counter = Counter("layer.component.events")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_snapshot_shape(self):
        counter = Counter("layer.component.events")
        counter.inc()
        snap = counter.snapshot()
        assert snap["type"] == "counter"
        assert snap["value"] == 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("layer.component.level")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_callback_gauge(self):
        state = {"n": 7}
        gauge = Gauge("layer.component.level")
        gauge.set_function(lambda: state["n"])
        assert gauge.value == 7
        state["n"] = 9
        assert gauge.value == 9

    def test_set_overrides_callback(self):
        gauge = Gauge("layer.component.level")
        gauge.set_function(lambda: 1)
        gauge.set(5)
        assert gauge.value == 5


class TestHistogram:
    def test_lifetime_count_and_sum(self):
        hist = Histogram("layer.component.latency")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(6.0)

    def test_nearest_rank_percentiles(self):
        hist = Histogram("layer.component.latency")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(90) == 90.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(0) == 1.0

    def test_empty_percentile_is_none(self):
        hist = Histogram("layer.component.latency")
        assert hist.percentile(50) is None

    def test_percentile_range_checked(self):
        hist = Histogram("layer.component.latency")
        hist.observe(1.0)
        with pytest.raises(MetricError):
            hist.percentile(101)

    def test_window_is_bounded_but_lifetime_is_not(self):
        hist = Histogram("layer.component.latency", size=4)
        for value in range(10):
            hist.observe(float(value))
        assert hist.count == 10
        assert hist.snapshot()["window"] == 4
        # only the last 4 observations (6..9) remain in the window
        assert hist.percentile(0) == 6.0

    def test_snapshot_statistics(self):
        hist = Histogram("layer.component.latency")
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["min"] == 2.0
        assert snap["max"] == 6.0
        assert snap["mean"] == pytest.approx(4.0)
        assert snap["p50"] == 4.0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(MetricError):
            Histogram("layer.component.latency", size=0)


class TestNearestRank:
    """One percentile rule for every p50/p90/p99 a bundle reports."""

    def test_hand_cases(self):
        assert nearest_rank([1, 2, 3, 4], 50) == 2   # lower middle
        assert nearest_rank([4, 1, 3, 2], 50) == 2   # any input order
        assert nearest_rank([1, 2, 3, 4], 51) == 3
        assert nearest_rank([1, 2, 3, 4, 5, 6], 50) == 3
        assert nearest_rank(range(1, 9), 50) == 4
        assert nearest_rank(range(1, 101), 99) == 99
        assert nearest_rank(range(1, 101), 99.5) == 100

    def test_one_and_two_samples(self):
        for p in (0, 1, 50, 99, 100):
            assert nearest_rank([7.0], p) == 7.0
        assert [nearest_rank([1.0, 2.0], p)
                for p in (0, 50, 50.1, 100)] == [1.0, 1.0, 2.0, 2.0]

    def test_empty_is_none_and_p_is_checked_first(self):
        assert nearest_rank([], 50) is None
        for samples in ([], [1.0]):
            for p in (-1, 100.5):
                with pytest.raises(MetricError):
                    nearest_rank(samples, p)

    @pytest.mark.parametrize("count", [1, 2, 4, 6, 8, 9])
    def test_every_reader_reports_the_same_median(self, count):
        """Histogram, flowtrace hops and one-way delay, MTTR and
        workload delay over the same samples: one p50.  The flowtrace
        and MTTR readers used ``int(round(q * (n - 1)))``, the upper
        middle for 4 and 8 samples."""
        from repro.core import ESCAPE
        from repro.scenario.workload import WorkloadDriver
        from repro.telemetry.flowtrace import _summarize_chain
        samples = [float(value) for value in range(count, 0, -1)]
        expected = nearest_rank(samples, 50)
        assert expected == float((count + 1) // 2)
        hist = Histogram("layer.component.latency")
        for value in samples:
            hist.observe(value)
        assert hist.percentile(50) == expected
        chain = _summarize_chain({"rate": 1, "nonconformant": 0,
                                  "one_ways": samples,
                                  "hops": {"a->b": samples}})
        assert chain["one_way"]["p50"] == expected
        assert chain["hops"][0]["p50"] == expected
        recovery = SimpleNamespace(
            actions=[{"ok": True, "kind": "reroute", "mttr": value}
                     for value in samples],
            unrecovered=lambda: [], pending=lambda: [])
        assert ESCAPE.recovery_summary(SimpleNamespace(recovery=recovery))[
            "mttr_p50"] == expected
        driver = WorkloadDriver(SimpleNamespace(sim=None),
                                SimpleNamespace(flows=[]))
        driver.delays = list(samples)
        assert driver.results()["delay_p50"] == expected


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("core.orchestrator.deploys")
        second = registry.counter("core.orchestrator.deploys")
        assert first is second
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("core.orchestrator.deploys")
        with pytest.raises(MetricError):
            registry.gauge("core.orchestrator.deploys")

    def test_name_scheme_enforced(self):
        registry = MetricsRegistry()
        for bad in ("nodots", "Upper.case", ".leading", "trailing.",
                    "sp ace.x"):
            with pytest.raises(MetricError):
                registry.counter(bad)
        # two or more dotted lowercase segments are fine
        registry.counter("netconf.client.rpcs")
        registry.counter("a.b")

    def test_clock_stamps_last_updated(self):
        ticks = {"now": 1.5}
        registry = MetricsRegistry(clock=lambda: ticks["now"])
        counter = registry.counter("layer.component.events")
        counter.inc()
        assert counter.last_updated == 1.5
        ticks["now"] = 2.5
        counter.inc()
        assert counter.last_updated == 2.5

    def test_collectors_run_before_snapshot(self):
        registry = MetricsRegistry()
        live = {"packets": 0}
        registry.add_collector(
            lambda reg: reg.gauge("netem.link.delivered").set(
                live["packets"]))
        live["packets"] = 42
        snap = registry.snapshot()
        assert snap["netem.link.delivered"]["value"] == 42

    def test_names_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("b.two")
        registry.counter("a.one")
        assert registry.names() == ["a.one", "b.two"]
        assert "a.one" in registry
        assert "c.three" not in registry


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("service.deploy") as root:
            with tracer.span("orchestrator.deploy"):
                with tracer.span("netconf.rpc", op="startVNF"):
                    pass
                with tracer.span("netconf.rpc", op="connectVNF"):
                    pass
        assert root.depth() == 3
        assert len(root.children) == 1
        rpcs = root.find("netconf.rpc")
        assert [span.tags["op"] for span in rpcs] == ["startVNF",
                                                      "connectVNF"]

    def test_sim_clock_orders_spans(self):
        """Span timestamps come from the simulator, so a span enclosing
        a sim pump measures simulated (not wall-clock) time."""
        sim = Simulator()
        tracer = Tracer(clock=lambda: sim.now)
        sim.schedule(0.5, lambda: None)

        with tracer.span("outer") as outer:
            sim.run(until=0.25)
            with tracer.span("inner") as inner:
                sim.run(until=1.0)
        assert outer.start == 0.0
        assert inner.start == 0.25
        assert inner.end == 1.0
        assert outer.duration == pytest.approx(1.0)
        assert inner.start >= outer.start
        assert inner.end <= outer.end

    def test_error_status_propagates_and_does_not_swallow(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        trace = tracer.last_trace
        assert trace.status == "error"

    def test_only_root_spans_land_in_traces(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert len(tracer.traces) == 1
        assert tracer.traces[0].name == "root"

    def test_closing_a_span_twice_leaves_the_stack_alone(self):
        """The second close of ``b`` has no frame to pop: it must not
        pop ``a``, so ``c`` still nests under ``a``."""
        tracer = Tracer()
        a, b = tracer.span("a"), tracer.span("b")
        a.__enter__()
        b.__enter__()
        b.__exit__(None, None, None)
        b.__exit__(None, None, None)
        assert tracer.current is a
        with tracer.span("c") as c:
            pass
        assert a.children == [b, c]
        assert len(tracer.traces) == 0
        a.__exit__(None, None, None)
        assert list(tracer.traces) == [a]
        assert tracer.current is None

    def test_root_is_the_span_at_the_bottom_of_the_stack(self):
        """Spans keep no back-pointer; closing the bottom span makes a
        trace, even when it abandons a span left open above it, and
        that span's late close adds no trace."""
        tracer = Tracer()
        outer, inner = tracer.span("outer"), tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)
        assert list(tracer.traces) == [outer]
        assert tracer.current is None
        inner.__exit__(None, None, None)
        assert list(tracer.traces) == [outer]
        assert outer.children == [inner] and inner.children == []
        assert not hasattr(inner, "parent")

    def test_traces_ring_is_bounded(self):
        tracer = Tracer(max_traces=3)
        for index in range(10):
            with tracer.span("t%d" % index):
                pass
        assert len(tracer.traces) == 3
        assert tracer.last_trace.name == "t9"

    def test_render_shows_tree_and_tags(self):
        tracer = Tracer()
        with tracer.span("parent", service="demo"):
            with tracer.span("child"):
                pass
        text = tracer.last_trace.render()
        lines = text.splitlines()
        assert lines[0].startswith("parent")
        assert "service=demo" in lines[0]
        assert lines[1].startswith("  child")


class TestExporters:
    def _populated(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("netconf.client.rpcs", "rpc count").inc(4)
        telemetry.metrics.gauge("netem.link.drops").set(2)
        hist = telemetry.metrics.histogram("core.orchestrator.deploy_time")
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        with telemetry.tracer.span("service.deploy"):
            with telemetry.tracer.span("orchestrator.deploy"):
                pass
        return telemetry

    def test_json_round_trips(self):
        telemetry = self._populated()
        data = json.loads(to_json(telemetry.metrics, telemetry.tracer))
        assert data["metrics"]["netconf.client.rpcs"]["value"] == 4
        assert data["metrics"]["netem.link.drops"]["value"] == 2
        assert data["traces"][0]["name"] == "service.deploy"
        assert data["traces"][0]["children"][0]["name"] == \
            "orchestrator.deploy"

    def test_snapshot_dict_without_tracer(self):
        telemetry = self._populated()
        data = snapshot_dict(telemetry.metrics)
        assert "traces" not in data
        assert "netconf.client.rpcs" in data["metrics"]

    def test_prometheus_text_format(self):
        telemetry = self._populated()
        text = to_prometheus(telemetry.metrics)
        assert "# TYPE netconf_client_rpcs counter" in text
        assert "netconf_client_rpcs 4" in text
        assert "# TYPE netem_link_drops gauge" in text
        assert "# TYPE core_orchestrator_deploy_time histogram" in text
        # the +Inf bucket is mandatory even without explicit bounds
        assert 'core_orchestrator_deploy_time_bucket{le="+Inf"} 3' in text
        assert "core_orchestrator_deploy_time_count 3" in text
        assert "core_orchestrator_deploy_time_sum" in text
        # dotted names are sanitized: no dots outside label values
        for line in text.splitlines():
            if not line.startswith("#"):
                assert "." not in line.split("{")[0].split(" ")[0]

    def test_prometheus_explicit_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("netconf.client.rpc_latency",
                                  buckets=[0.01, 0.1, 1.0])
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        text = to_prometheus(registry)
        assert 'netconf_client_rpc_latency_bucket{le="0.01"} 1' in text
        assert 'netconf_client_rpc_latency_bucket{le="0.1"} 2' in text
        assert 'netconf_client_rpc_latency_bucket{le="1"} 3' in text
        assert 'netconf_client_rpc_latency_bucket{le="+Inf"} 4' in text
        assert "netconf_client_rpc_latency_count 4" in text

    def test_prometheus_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("layer.component.events",
                         labels={"path": 'C:\\x "quoted"\nnext'}).inc()
        text = to_prometheus(registry)
        assert ('layer_component_events'
                '{path="C:\\\\x \\"quoted\\"\\nnext"} 1') in text
        # the raw (unescaped) value must not leak into the exposition
        assert '"C:\\x' not in text

    def test_json_parse_matches_snapshot_dict(self):
        """Exporter round-trip: to_json → parse == snapshot_dict.

        Uses a bare registry/tracer (no Telemetry bundle) so every
        collector output is deterministic across repeated snapshots —
        the bundle's self-overhead gauges accumulate wall-clock time
        and would legitimately differ between the two exports.
        """
        registry = MetricsRegistry()
        registry.counter("netconf.client.rpcs").inc(4)
        registry.gauge("netem.link.drops").set(2)
        hist = registry.histogram("core.orchestrator.deploy_time",
                                  buckets=[0.15, 0.25])
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        tracer = Tracer()
        with tracer.span("service.deploy"):
            with tracer.span("orchestrator.deploy"):
                pass
        parsed = json.loads(to_json(registry, tracer))
        direct = snapshot_dict(registry, tracer)
        assert parsed == direct
        buckets = parsed["metrics"]["core.orchestrator.deploy_time"][
            "buckets"]
        assert buckets == [[0.15, 1], [0.25, 2]]

    def test_write_snapshot_files(self, tmp_path):
        telemetry = self._populated()
        json_path = tmp_path / "snap.json"
        prom_path = tmp_path / "snap.prom"
        write_snapshot(str(json_path), telemetry.metrics,
                       telemetry.tracer, fmt="json")
        write_snapshot(str(prom_path), telemetry.metrics, fmt="prom")
        assert json.loads(json_path.read_text())["metrics"]
        assert "netconf_client_rpcs" in prom_path.read_text()
        with pytest.raises(ValueError):
            write_snapshot(str(json_path), telemetry.metrics, fmt="xml")

    def test_write_snapshot_accepts_path_and_creates_parents(self,
                                                             tmp_path):
        telemetry = self._populated()
        target = tmp_path / "out" / "nested" / "snap.json"
        write_snapshot(target, telemetry.metrics, fmt="json")
        assert json.loads(target.read_text())["metrics"]

    def test_write_jsonl_accepts_path_and_creates_parents(self,
                                                          tmp_path):
        telemetry = self._populated()
        telemetry.events.info("layer.component", "event.name", "hello")
        target = tmp_path / "logs" / "deep" / "events.jsonl"
        count = telemetry.events.write_jsonl(target)
        assert count >= 1
        lines = target.read_text().splitlines()
        assert json.loads(lines[-1])["message"] == "hello"


class TestTelemetryBundle:
    def test_shares_the_sim_clock(self):
        sim = Simulator()
        telemetry = sim.telemetry
        sim.schedule(2.0, lambda: None)
        sim.run(until=3.0)
        counter = telemetry.metrics.counter("layer.component.events")
        counter.inc()
        assert counter.last_updated == 3.0
        with telemetry.tracer.span("op") as span:
            pass
        assert span.start == 3.0

