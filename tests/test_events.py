"""Tests for the structured event log (repro.telemetry.events)."""

import json

import pytest

from repro.sim import Simulator
from repro.telemetry import (DEBUG, ERROR, EventError, EventLog, INFO,
                             Telemetry, WARN)
from repro.telemetry.events import severity_rank
from repro.telemetry.trace import Tracer


class TestEmit:
    def test_emit_records_fields(self):
        log = EventLog()
        event = log.emit(WARN, "core.sla", "sla.warn", "chain degraded",
                         chain="c1")
        assert event.severity == WARN
        assert event.source == "core.sla"
        assert event.name == "sla.warn"
        assert event.message == "chain degraded"
        assert event.tags == {"chain": "c1"}
        assert len(log) == 1

    def test_helpers_map_to_severities(self):
        log = EventLog()
        log.debug("a.b", "n1")
        log.info("a.b", "n2")
        log.warn("a.b", "n3")
        log.error("a.b", "n4")
        assert [event.severity for event in log.events()] \
            == [DEBUG, INFO, WARN, ERROR]

    def test_sim_clock_stamps_time(self):
        sim = Simulator()
        log = EventLog(clock=lambda: sim.now)
        sim.schedule(2.5, lambda: log.info("a.b", "tick"))
        sim.run()
        assert log.events()[0].time == pytest.approx(2.5)

    def test_unknown_severity_rejected(self):
        log = EventLog()
        with pytest.raises(EventError):
            log.emit("FATAL", "a.b", "boom")
        assert severity_rank(ERROR) > severity_rank(DEBUG)

    def test_min_severity_threshold_suppresses(self):
        log = EventLog(min_severity=WARN)
        assert log.emit(DEBUG, "a.b", "quiet") is None
        assert log.emit(WARN, "a.b", "loud") is not None
        assert len(log) == 1
        assert log.suppressed == 1


class TestRing:
    def test_capacity_evicts_oldest(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.info("a.b", "e%d" % index)
        assert len(log) == 3
        assert log.evicted == 2
        assert [event.name for event in log.events()] \
            == ["e2", "e3", "e4"]

    def test_default_capacity_is_the_live_view(self):
        assert EventLog().capacity == EventLog.CAPACITY == 256

    def test_counts_survive_eviction(self):
        log = EventLog(capacity=2)
        for _ in range(4):
            log.warn("a.b", "w")
        assert log.counts()[WARN] == 4


class TestTraceCorrelation:
    def test_event_inside_span_gets_trace_id(self):
        tracer = Tracer()
        log = EventLog(tracer=tracer)
        with tracer.span("deploy") as span:
            event = log.info("core", "step")
        assert event.trace_id == span.span_id
        outside = log.info("core", "later")
        assert outside.trace_id is None

    def test_explicit_trace_id_wins(self):
        tracer = Tracer()
        log = EventLog(tracer=tracer)
        with tracer.span("deploy"):
            event = log.info("core", "step", trace_id=42)
        assert event.trace_id == 42

    def test_query_by_trace_id(self):
        tracer = Tracer()
        log = EventLog(tracer=tracer)
        with tracer.span("one") as span:
            log.info("core", "inside")
        log.info("core", "outside")
        selected = log.query(trace_id=span.span_id)
        assert [event.name for event in selected] == ["inside"]


class TestQuery:
    @pytest.fixture
    def log(self):
        log = EventLog()
        log.debug("netem.link", "link.stat")
        log.info("core.orchestrator", "orchestrator.deployed")
        log.warn("core.sla", "sla.warn")
        log.error("core.sla", "sla.violated")
        return log

    def test_min_severity(self, log):
        names = [event.name for event in log.query(min_severity=WARN)]
        assert names == ["sla.warn", "sla.violated"]

    def test_source_prefix_match(self, log):
        assert len(log.query(source="core")) == 3
        assert len(log.query(source="core.sla")) == 2
        assert log.query(source="cor") == []

    def test_name_and_limit(self, log):
        assert len(log.query(name="sla.warn")) == 1
        assert len(log.query(limit=2)) == 2

    def test_limit_zero_selects_nothing(self, log):
        assert log.query(limit=0) == []
        assert len(log.query(limit=None)) == 4


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.info("core.sla", "sla.ok", "recovered", chain="c1")
        log.error("core.sla", "sla.violated", "degraded", chain="c1")
        path = tmp_path / "events.jsonl"
        assert log.write_jsonl(str(path)) == 2
        lines = path.read_text().strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "sla.ok"
        assert parsed[1]["severity"] == ERROR
        assert parsed[1]["tags"]["chain"] == "c1"

    def test_record_streams_past_the_ring(self, tmp_path):
        """A record holds the ring at its start and every event emitted
        until ``stop()``, however many the ring has evicted since."""
        log = EventLog(capacity=3)
        for index in range(5):
            log.info("a.b", "before%d" % index)
        path = tmp_path / "run" / "events.jsonl"
        stop = log.record_jsonl(path)
        for index in range(10):
            log.debug("a.b", "during%d" % index)
        assert stop() == 13
        log.info("a.b", "after")
        names = [json.loads(line)["name"]
                 for line in path.read_text().splitlines()]
        assert names == (["before2", "before3", "before4"]
                         + ["during%d" % index for index in range(10)])
        assert [event.name for event in log.events()] \
            == ["during8", "during9", "after"]

    def test_record_keeps_seq_order_when_subscribers_reply(self,
                                                            tmp_path):
        """A subscriber that emits while handling an event (recovery
        reacting to ``vnf.crashed``) does not get its reply written
        before the event it replies to."""
        log = EventLog()

        def reply(event):
            if event.name == "vnf.crashed":
                log.info("core.recovery", "recovery.scheduled")

        log.subscribe(reply)
        path = tmp_path / "events.jsonl"
        stop = log.record_jsonl(path)
        log.error("netem.container", "vnf.crashed")
        assert stop() == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["seq"] for record in records] == [1, 2]
        assert records[1]["name"] == "recovery.scheduled"

    def test_record_in_the_working_directory(self, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        log = EventLog()
        log.warn("a.b", "w1")
        assert log.write_jsonl("events.jsonl") == 1
        assert (tmp_path / "events.jsonl").read_text().count("\n") == 1

    def test_subscribers_see_live_events(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.warn("a.b", "w1")
        assert [event.name for event in seen] == ["w1"]


class TestTelemetryBundle:
    def test_bundle_wires_clock_and_tracer(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        sim.schedule(1.0, lambda: telemetry.events.info("a.b", "later"))
        sim.run()
        assert telemetry.events.events()[0].time == pytest.approx(1.0)
        with telemetry.tracer.span("op") as span:
            event = telemetry.events.info("a.b", "inside")
        assert event.trace_id == span.span_id

    def test_event_counts_exported_as_gauges(self):
        telemetry = Telemetry()
        telemetry.events.warn("a.b", "w")
        snapshot = telemetry.metrics.snapshot()
        assert snapshot['telemetry.events.emitted{severity=warn}'
                        ]["value"] == 1

    def test_snapshot_includes_events(self):
        telemetry = Telemetry()
        telemetry.events.info("a.b", "hello")
        snapshot = telemetry.snapshot()
        assert snapshot["events"][0]["name"] == "hello"
