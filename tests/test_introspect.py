"""``escape perf report``: a result bundle's event count, profiler
region table and throughput, read through ``load_bundles``."""

import json

import pytest

from repro.scenario.analyzer import (AnalyzerError, load_bundles,
                                     render_perf_report)
from repro.scenario.runner import BUNDLE_SCHEMA
from repro.sim import Simulator

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


def _bundle(seed=1, profiler=None, dispatched=4, throughput=None):
    bundle = {"schema": BUNDLE_SCHEMA, "seed": seed,
              "scenario": {"name": "demo"}, "dispatched": dispatched,
              "throughput": dict(throughput or {})}
    if profiler is not None:
        bundle["profiler"] = profiler.report()
    return bundle


class TestCoerceAndLoad:
    def test_load_report_from_file_and_dir(self, tmp_path):
        profiler, sim = _measured_sim()
        bundle = _bundle(profiler=profiler, dispatched=sim.processed)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        [loaded] = load_bundles(path)
        assert loaded["dispatched"] == sim.processed
        assert loaded["profiler"] == profiler.report()
        # a results dir: every bundle underneath, in seed order
        for seed in (2, 1):
            run_dir = tmp_path / "results" / ("seed-%d" % seed)
            run_dir.mkdir(parents=True)
            (run_dir / "bundle.json").write_text(
                json.dumps(_bundle(seed=seed, profiler=profiler)))
        from_dir = load_bundles(tmp_path / "results")
        assert [b["seed"] for b in from_dir] == [1, 2]
        text = render_perf_report(from_dir)
        assert text.index("demo seed 1") < text.index("demo seed 2")
        assert text.count(TICK) == 2

    def test_load_report_errors(self, tmp_path):
        with pytest.raises(AnalyzerError, match="no such file"):
            load_bundles(tmp_path / "missing.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AnalyzerError, match="no bundle.json"):
            load_bundles(empty)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(AnalyzerError, match="invalid JSON"):
            load_bundles(bad)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(dict(_bundle(), schema=5,
                                       calibration_s=0.012)))
        with pytest.raises(AnalyzerError,
                           match="schema 5, this analyzer reads "
                                 "schema %d" % BUNDLE_SCHEMA):
            load_bundles(old)


class TestRendering:
    def test_render_report_tables(self):
        profiler, sim = _measured_sim()
        text = render_perf_report([_bundle(
            profiler=profiler, dispatched=sim.processed,
            throughput={"udp_pps_wall": 42.0})])
        assert text.splitlines()[0] == "perf attribution — demo seed 1"
        assert "dispatched %d event(s)" % sim.processed in text
        # one table: the event kind and the region nested under it
        assert TICK in text and "netem.link.transmit" in text
        assert "udp_pps_wall=42" in text
        one_row = render_perf_report(
            [_bundle(profiler=profiler)], limit=1)
        assert (TICK in one_row) != ("netem.link.transmit" in one_row)

    def test_unprofiled_bundle_says_so_instead_of_an_empty_table(self):
        text = render_perf_report([_bundle(
            seed=3, dispatched=1234, throughput={"udp_pps_wall": 42.0})])
        assert "dispatched 1234 event(s)" in text
        assert "udp_pps_wall=42" in text
        assert "without `profile: true`" in text
        assert "self(s)" not in text  # no table header
