"""repro.telemetry.introspect — attribution reports and perf diffing."""

import json

import pytest

from repro.sim import Simulator
from repro.telemetry.introspect import (IntrospectError, build_report,
                                        coerce_report, diff_reports,
                                        load_report, render_diff,
                                        render_report)

TICK = "tests.test_introspect._measured_sim.<locals>.tick"


def _measured_sim():
    """A tiny profiled run; returns (profiler, sim)."""
    sim = Simulator()
    profiler = sim.telemetry.profiler.enable()

    def tick():
        # enough per-callback work that measurement bookkeeping is
        # noise next to it, as in a real dataplane event
        with profiler.profile("netem.link.transmit"):
            sum(index * 3 % 7 for index in range(3000))
        if sim.now < 0.05:
            sim.schedule(0.001, tick)
    sim.schedule(0.0, tick)
    sim.run()
    profiler.disable()
    return profiler, sim


class TestBuildReport:
    def test_merges_all_three_sources(self):
        profiler, sim = _measured_sim()
        report = build_report(profiler, dispatched=sim.processed,
                              throughput={"udp_pps_wall": 100.0},
                              calibration=1e-6, meta={"note": "t"})
        assert report["kind"] == "attribution"
        assert report["calibration_s"] == 1e-6
        # one table: the event kind and the region nested under it
        assert set(report["regions"]) == {TICK, "netem.link.transmit"}
        entry = report["regions"][TICK]
        assert entry["calls"] == report["dispatched"] == sim.processed
        assert entry == profiler.region(TICK).to_dict()
        assert report["throughput"] == {"udp_pps_wall": 100.0}
        assert report["meta"] == {"note": "t"}

    def test_sources_may_be_absent(self):
        report = build_report()
        assert report["regions"] == {}
        assert report["dispatched"] is None
        assert render_report(report)  # still renders


class TestCoerceAndLoad:
    def test_coerce_detects_bundle(self):
        bundle = {
            "schema": 5, "seed": 7,
            "scenario": {"name": "demo"},
            "workload": {},
            "dispatched": 4,
            "profiler": {"netem.link.Link._deliver":
                         {"calls": 4, "cum_s": 0.006, "self_s": 0.004,
                          "per_call_s": 0.001}},
            "throughput": {"udp_pps_wall": 10.0},
            "calibration_s": 0.001,
        }
        report = coerce_report(bundle)
        assert report["meta"]["scenario"] == "demo"
        assert report["meta"]["seed"] == 7
        assert report["dispatched"] == 4
        assert report["calibration_s"] == 0.001
        assert report["regions"] == bundle["profiler"]

    def test_coerce_rejects_unknown_shape(self):
        with pytest.raises(IntrospectError):
            coerce_report({"what": "ever"})
        with pytest.raises(IntrospectError):
            coerce_report([1, 2])
        # a bare region table (the retired profile-snapshot shape) is
        # no longer a perf source
        with pytest.raises(IntrospectError):
            coerce_report({"regions": {}, "calibration_s": 0.001})
        # a region record from outside must be complete
        with pytest.raises(IntrospectError, match="netem.link.transmit"):
            coerce_report({"kind": "attribution", "regions": {
                "netem.link.transmit": {"calls": 1, "self_s": 0.1}}})

    def test_load_report_from_file_and_dir(self, tmp_path):
        profiler, sim = _measured_sim()
        report = build_report(profiler, dispatched=sim.processed,
                              calibration=1e-6)
        path = tmp_path / "attribution.json"
        path.write_text(json.dumps(report))
        loaded = load_report(path)
        assert loaded["dispatched"] == report["dispatched"]
        # a results dir holding exactly one bundle.json
        run_dir = tmp_path / "results" / "seed-1"
        run_dir.mkdir(parents=True)
        bundle = {"schema": 5, "seed": 1, "scenario": {"name": "x"},
                  "dispatched": report["dispatched"], "throughput": {},
                  "profiler": profiler.report(), "calibration_s": 1e-6}
        (run_dir / "bundle.json").write_text(json.dumps(bundle))
        from_dir = load_report(tmp_path / "results")
        assert from_dir["meta"]["seed"] == 1
        assert from_dir["regions"] == loaded["regions"]

    def test_load_report_errors(self, tmp_path):
        with pytest.raises(IntrospectError):
            load_report(tmp_path / "missing.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(IntrospectError):
            load_report(empty)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(IntrospectError):
            load_report(bad)


class TestDiffReports:
    def _report(self):
        profiler, sim = _measured_sim()
        return build_report(profiler, dispatched=sim.processed,
                            throughput={"udp_pps_wall": 100.0},
                            calibration=1e-6)

    def test_diff_with_itself_is_exactly_zero(self):
        report = self._report()
        diff = diff_reports(report, report)
        assert diff["max_abs_delta"] == 0.0
        assert diff["findings"] == []
        assert diff["normalized"] is True
        assert {item["name"] for item in diff["regions"]} == {
            TICK, "netem.link.transmit"}
        for section in ("regions", "throughput"):
            for item in diff[section]:
                assert item["delta"] == 0.0

    def test_diff_normalizes_out_machine_speed(self):
        """The same work on a 2x-slower machine doubles every per-call
        time and the calibration unit with them; raw-time deltas would
        scream regression, normalized ones cancel."""
        report = self._report()
        slower = json.loads(json.dumps(report))
        slower["calibration_s"] = report["calibration_s"] * 2
        for entry in slower["regions"].values():
            entry["per_call_s"] *= 2
        diff = diff_reports(report, slower)
        assert diff["normalized"] and diff["regions"]
        for item in diff["regions"]:
            assert item["delta"] == pytest.approx(0.0)
        # without a calibration on one side the comparison is raw
        del slower["calibration_s"]
        raw = diff_reports(report, slower)
        assert not raw["normalized"]
        for item in raw["regions"]:
            assert item["delta"] == pytest.approx(1.0)

    def test_regression_beyond_threshold_is_a_finding(self):
        report = self._report()
        worse = json.loads(json.dumps(report))
        worse["regions"]["netem.link.transmit"]["per_call_s"] *= 1.5
        diff = diff_reports(report, worse, threshold=0.15)
        assert diff["findings"]
        assert any(finding["name"] == "netem.link.transmit"
                   for finding in diff["findings"])
        assert "FAIL" in render_diff(diff)

    def test_throughput_drop_is_a_finding(self):
        report = self._report()
        worse = json.loads(json.dumps(report))
        worse["throughput"]["udp_pps_wall"] = 50.0
        diff = diff_reports(report, worse)
        assert any(finding["name"] == "udp_pps_wall"
                   for finding in diff["findings"])

    def test_render_diff_mentions_gate_state(self):
        report = self._report()
        text = render_diff(diff_reports(report, report))
        assert "PASS" in text


class TestRendering:
    def test_render_report_tables(self):
        profiler, sim = _measured_sim()
        report = build_report(profiler, dispatched=sim.processed,
                              throughput={"udp_pps_wall": 42.0},
                              calibration=1e-6)
        text = render_report(report)
        assert "dispatched %d event(s)" % sim.processed in text
        assert TICK in text and "netem.link.transmit" in text
        assert "udp_pps_wall" in text

    def test_unprofiled_bundle_says_so_instead_of_an_empty_table(self):
        bundle = {"schema": 5, "seed": 3, "scenario": {"name": "demo"},
                  "dispatched": 1234, "calibration_s": 0.001,
                  "throughput": {"udp_pps_wall": 42.0}}
        text = render_report(bundle)
        assert "dispatched 1234 event(s)" in text
        assert "udp_pps_wall=42" in text
        assert "without `profile: true`" in text
        assert "self(s)" not in text  # no table header
