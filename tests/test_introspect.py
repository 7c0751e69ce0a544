"""repro.telemetry.introspect — attribution reports and perf diffing."""

import json

import pytest

from repro.sim import Simulator
from repro.telemetry.introspect import (IntrospectError, build_report,
                                        coerce_report, diff_reports,
                                        load_report, render_diff,
                                        render_report)


def _measured_sim():
    """A tiny run watched by both layers; returns (profiler, sim)."""
    sim = Simulator()
    profiler = sim.telemetry.profiler.enable()
    sim.accounting.enable()

    def tick():
        # enough per-callback work that measurement bookkeeping is
        # noise next to it, as in a real dataplane event
        sum(index * 3 % 7 for index in range(3000))
        if sim.now < 0.05:
            sim.schedule(0.001, tick)
    sim.schedule(0.0, tick)
    sim.run()
    profiler.disable()
    sim.accounting.disable()
    return profiler, sim


class TestBuildReport:
    def test_merges_all_three_sources(self):
        profiler, sim = _measured_sim()
        report = build_report(profiler, sim.accounting,
                              throughput={"udp_pps_wall": 100.0},
                              calibration=1e-6, meta={"note": "t"})
        assert report["kind"] == "attribution"
        assert report["calibration_s"] == 1e-6
        assert "sim.event.dispatch" in report["regions"]
        kinds = report["dispatch"]["kinds"]
        assert len(kinds) == 1
        entry = next(iter(kinds.values()))
        assert entry["count"] == report["dispatch"]["dispatched"]
        assert entry["score"] == pytest.approx(
            entry["per_call_s"] / 1e-6)
        assert report["throughput"] == {"udp_pps_wall": 100.0}
        assert report["meta"] == {"note": "t"}

    def test_coverage_reconciles_within_tolerance(self):
        profiler, sim = _measured_sim()
        report = build_report(profiler, sim.accounting)
        coverage = report["coverage"]
        assert coverage["ratio"] is not None
        assert abs(coverage["ratio"] - 1.0) <= coverage["tolerance"]

    def test_sources_may_be_absent(self):
        report = build_report()
        assert report["regions"] == {}
        assert report["dispatch"] == {}
        assert report["coverage"]["ratio"] is None
        assert render_report(report)  # still renders

    def test_accepts_prerendered_dispatch_dict(self):
        _profiler, sim = _measured_sim()
        kept = sim.accounting.report()
        report = build_report(accounting=kept, calibration=1e-6)
        assert report["dispatch"]["dispatched"] == kept["dispatched"]
        for entry in report["dispatch"]["kinds"].values():
            assert "score" in entry


class TestCoerceAndLoad:
    def test_coerce_detects_profile_snapshot(self):
        snapshot = {
            "regions": {"sim.event.dispatch":
                        {"calls": 10, "cum_s": 0.01, "self_s": 0.01,
                         "per_call_s": 0.001}},
            "throughput": {"udp_pps_wall": 50.0},
            "calibration_s": 0.001,
        }
        report = coerce_report(snapshot)
        assert report["kind"] == "attribution"
        region = report["regions"]["sim.event.dispatch"]
        assert region["score"] == pytest.approx(1.0)
        assert report["meta"]["source"] == "profile-snapshot"

    def test_coerce_detects_bundle(self):
        bundle = {
            "schema": 2, "seed": 7,
            "scenario": {"name": "demo"},
            "workload": {},
            "dispatch": {"dispatched": 4, "self_seconds": 0.004,
                         "kinds": {"netem.link.Link._deliver":
                                   {"count": 4, "self_s": 0.004,
                                    "per_call_s": 0.001}}},
            "throughput": {"udp_pps_wall": 10.0},
            "calibration_s": 0.001,
        }
        report = coerce_report(bundle)
        assert report["meta"]["scenario"] == "demo"
        assert report["meta"]["seed"] == 7
        kind = report["dispatch"]["kinds"]["netem.link.Link._deliver"]
        assert kind["score"] == pytest.approx(1.0)

    def test_coerce_rejects_unknown_shape(self):
        with pytest.raises(IntrospectError):
            coerce_report({"what": "ever"})
        with pytest.raises(IntrospectError):
            coerce_report([1, 2])

    def test_load_report_from_file_and_dir(self, tmp_path):
        profiler, sim = _measured_sim()
        report = build_report(profiler, sim.accounting,
                              calibration=1e-6)
        path = tmp_path / "attribution.json"
        path.write_text(json.dumps(report))
        loaded = load_report(path)
        assert loaded["dispatch"]["dispatched"] == \
            report["dispatch"]["dispatched"]
        # a results dir holding exactly one bundle.json
        run_dir = tmp_path / "results" / "seed-1"
        run_dir.mkdir(parents=True)
        bundle = {"schema": 2, "seed": 1, "scenario": {"name": "x"},
                  "dispatch": report["dispatch"], "throughput": {},
                  "calibration_s": 1e-6}
        (run_dir / "bundle.json").write_text(json.dumps(bundle))
        from_dir = load_report(tmp_path / "results")
        assert from_dir["meta"]["seed"] == 1

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
        return build_report(profiler, sim.accounting,
                            throughput={"udp_pps_wall": 100.0},
                            calibration=1e-6)

    def test_diff_with_itself_is_exactly_zero(self):
        report = self._report()
        diff = diff_reports(report, report)
        assert diff["max_abs_delta"] == 0.0
        assert diff["findings"] == []
        assert diff["normalized"] is True
        for section in ("regions", "dispatch", "throughput"):
            for item in diff[section]:
                assert item["delta"] == 0.0

    def test_diff_normalizes_out_machine_speed(self):
        """The same per-call times on a 2x-slower machine (2x the
        calibration unit) halve every score; raw-time deltas would
        scream regression, normalized ones cancel."""
        report = self._report()
        slower = json.loads(json.dumps(report))
        slower["calibration_s"] = report["calibration_s"] * 2
        for entry in slower["regions"].values():
            entry["per_call_s"] *= 2
            entry["score"] = (entry["per_call_s"]
                              / slower["calibration_s"])
        for entry in slower["dispatch"]["kinds"].values():
            entry["per_call_s"] *= 2
            entry["score"] = (entry["per_call_s"]
                              / slower["calibration_s"])
        diff = diff_reports(report, slower)
        for item in diff["regions"] + diff["dispatch"]:
            assert item["delta"] == pytest.approx(0.0)

    def test_regression_beyond_threshold_is_a_finding(self):
        report = self._report()
        worse = json.loads(json.dumps(report))
        region = worse["regions"]["sim.event.dispatch"]
        region["score"] *= 1.5
        region["per_call_s"] *= 1.5
        diff = diff_reports(report, worse, threshold=0.15)
        assert diff["findings"]
        assert any(finding["name"] == "sim.event.dispatch"
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
        report = build_report(profiler, sim.accounting,
                              throughput={"udp_pps_wall": 42.0},
                              calibration=1e-6)
        text = render_report(report)
        assert "dispatch accounting" in text
        assert "profiler regions" in text
        assert "coverage" in text
        assert "udp_pps_wall" in text
