"""Tests for the scenario engine: spec parsing, workload determinism
(the bit-identical-schedule contract), the campaign runner's result
bundles, the cross-seed analyzer, and the ``escape scenario`` CLI.

The determinism test is the acceptance criterion for the whole
subsystem: two schedules built from the same (scenario, seed) must
serialize to byte-identical JSON, because every published campaign
number rests on re-runnable workloads.
"""

import json
import os

import pytest

from repro.scenario.analyzer import (AnalyzerError, load_bundles,
                                     render_report, report_dict)
from repro.scenario.runner import CampaignRunner, run_scenario
from repro.scenario.spec import (Scenario, SpecError, load_scenario,
                                 parse_simple_yaml)
from repro.scenario.workload import (CHAIN_TEMPLATES, Workload,
                                     WorkloadError, build_workload,
                                     diurnal_factor)
from repro.scenario.zoo import FatTreeTopo, build_topology
from repro.cli import main as cli_main
from repro.core import ESCAPE

SMOKE_SCENARIO = {
    "name": "smoke",
    "duration": 2.0,
    "seeds": [1],
    "topology": {"kind": "fat_tree", "k": 2, "containers_per_pod": 1,
                 "container_ports": 4},
    "chains": {"count": 1, "templates": ["bump"]},
    "workload": {"subscribers_per_sap": 50, "flows_per_subscriber": 0.05,
                 "flow_rate_pps": 100, "flow_duration": 0.2,
                 "max_flows": 8},
    "sla": {"max_delay": 0.1},
}


class TestSpecParsing:
    YAML = """\
# a comment
name: parse-check
duration: 3.5
seeds: [1, 2, 3]
topology:
  kind: fat_tree
  k: 2
chains:
  count: 2
  templates: [web, bump]
workload:
  diurnal: {period: 3.5, trough: 0.4}
chaos:
  faults:
    - {kind: vnf_crash, at: 1.0}
    - kind: link_down
      at: 2.0
      duration: 0.5
"""

    def test_mini_yaml_parser(self):
        data = parse_simple_yaml(self.YAML)
        assert data["name"] == "parse-check"
        assert data["duration"] == 3.5
        assert data["seeds"] == [1, 2, 3]
        assert data["topology"] == {"kind": "fat_tree", "k": 2}
        assert data["chains"]["templates"] == ["web", "bump"]
        assert data["workload"]["diurnal"] == {"period": 3.5,
                                               "trough": 0.4}
        assert data["chaos"]["faults"] == [
            {"kind": "vnf_crash", "at": 1.0},
            {"kind": "link_down", "at": 2.0, "duration": 0.5}]

    def test_mini_yaml_matches_pyyaml_when_available(self):
        yaml = pytest.importorskip("yaml")
        assert parse_simple_yaml(self.YAML) == yaml.safe_load(self.YAML)

    def test_mini_yaml_rejects_tabs(self):
        with pytest.raises(SpecError, match="tabs"):
            parse_simple_yaml("a:\n\tb: 1")

    def test_scalars_mean_what_the_built_in_parser_says(self):
        """One file, one meaning: these are the scalars PyYAML reads
        differently ('1e3', True, 8, 'None', 750, a date object)."""
        data = parse_simple_yaml(
            "a: 1e3\nb: yes\nc: 010\nd: None\ne: 12:30\n"
            "f: 2024-01-02\ng: 0x10\nh: ~\n")
        assert data == {"a": 1000.0, "b": "yes", "c": 10.0, "d": None,
                        "e": "12:30", "f": "2024-01-02", "g": 16,
                        "h": None}
        assert type(data["a"]) is float and type(data["g"]) is int
        scenario = load_scenario(
            "name: x\nduration: 1e3\ntopology:\n  kind: wan\n")
        assert scenario.duration == 1000.0

    def test_load_scenario_never_imports_yaml(self):
        """Same Scenario whether or not PyYAML is importable: it is
        never asked (the subprocess starts without it loaded)."""
        import subprocess
        import sys
        import repro
        code = (
            "import sys, json\n"
            "from repro.scenario.spec import load_scenario\n"
            "s = load_scenario(sys.argv[1])\n"
            "assert 'yaml' not in sys.modules, 'PyYAML was imported'\n"
            "print(json.dumps(s.to_dict(), sort_keys=True))\n")
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "scenarios", "wan_chaos_soak.yaml")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, path], check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert json.loads(out.stdout) == load_scenario(path).to_dict()

    def test_load_scenario_from_dict_string_and_file(self, tmp_path):
        from_dict = load_scenario(dict(SMOKE_SCENARIO))
        from_string = load_scenario(self.YAML)
        path = tmp_path / "scen.yaml"
        path.write_text(self.YAML)
        from_file = load_scenario(str(path))
        assert from_dict.name == "smoke"
        assert from_string.name == from_file.name == "parse-check"
        assert from_file.seeds == [1, 2, 3]

    def test_missing_file(self):
        with pytest.raises(SpecError, match="no such scenario file"):
            load_scenario("does/not/exist.yaml")

    def test_unknown_key_rejected(self):
        # "accounting" was a key until schema 5: no compat shim, it is
        # named like any other stranger
        for key, value in (("typo_key", 1), ("accounting", False)):
            with pytest.raises(SpecError, match=key):
                load_scenario(dict(SMOKE_SCENARIO, **{key: value}))

    @pytest.mark.parametrize("override, key, bad", [
        ({"escape_options": {"protecton": True}}, "escape_options",
         "protecton"),
        ({"topology": {"kind": "fattree"}}, "topology", "fattree"),
        ({"topology": {"kind": "fat_tree", "kk": 2}}, "topology", "kk"),
    ])
    def test_constructor_keys_checked_at_load(self, override, key, bad):
        """A key ESCAPE or the topology generator would refuse is a
        SpecError naming it when the file loads, not a traceback after
        the topology has been built."""
        with pytest.raises(SpecError, match="^%s: .*%s" % (key, bad)):
            load_scenario(dict(SMOKE_SCENARIO, **override))

    def test_cli_list_marks_a_bad_escape_option_unreadable(self, tmp_path,
                                                           capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(dict(
            SMOKE_SCENARIO, escape_options={"protecton": True})))
        assert cli_main(["scenario", "list", str(path)]) == 0
        assert ("UNREADABLE: escape_options: got an unexpected keyword "
                "argument 'protecton'") in capsys.readouterr().out

    def test_profile_must_be_a_boolean(self):
        """``profile: no`` is the string 'no' to the built-in parser and
        ``"false"`` in JSON is a string too; neither may switch the
        profiler on.  Only a real boolean passes."""
        base = "name: x\ntopology:\n  kind: wan\n"
        assert load_scenario(base + "profile: true\n").profile is True
        assert load_scenario(base + "profile: false\n").profile is False
        assert load_scenario(base).profile is False
        for text in (base + "profile: no\n", base + "profile: yes\n",
                     json.dumps({"name": "x", "topology": {"kind": "wan"},
                                 "profile": "false"})):
            with pytest.raises(SpecError, match="profile"):
                load_scenario(text)
        with pytest.raises(SpecError, match="profile"):
            Scenario(name="x", topology={"kind": "wan"}, profile=1)

    def test_validation(self):
        with pytest.raises(SpecError, match="name"):
            Scenario(name="", topology={"kind": "wan"})
        with pytest.raises(SpecError, match="duration"):
            Scenario(name="x", topology={"kind": "wan"}, duration=0)
        with pytest.raises(SpecError, match="topology"):
            Scenario(name="x", topology={})

    def test_round_trip(self):
        scenario = load_scenario(dict(SMOKE_SCENARIO))
        again = Scenario.from_dict(scenario.to_dict())
        assert again.to_dict() == scenario.to_dict()

    def test_reference_scenarios_load(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "scenarios")
        names = [name for name in sorted(os.listdir(root))
                 if name.endswith((".yaml", ".yml"))]
        assert len(names) >= 2
        for name in names:
            scenario = load_scenario(os.path.join(root, name))
            assert scenario.seeds
            assert scenario.topology["kind"]


class TestWorkload:
    def test_diurnal_factor_bounds(self):
        for t in (0.0, 1.3, 2.5, 7.9):
            factor = diurnal_factor(t, period=10.0, trough=0.3)
            assert 0.3 <= factor <= 1.0
        assert diurnal_factor(5.0, 10.0, 0.3) == pytest.approx(1.0)
        assert diurnal_factor(0.0, 10.0, 0.3) == pytest.approx(0.3)

    def test_unknown_workload_key(self):
        with pytest.raises(WorkloadError, match="flows_per_sec"):
            Workload.from_dict({"flows_per_sec": 1})

    def test_unknown_template(self):
        topo = FatTreeTopo(k=2)
        with pytest.raises(WorkloadError, match="unknown chain template"):
            build_workload(topo, 1, 2.0,
                           chains_spec={"count": 1,
                                        "templates": ["nat64"]})

    def test_schedule_deterministic_bit_identical(self):
        """THE acceptance criterion: same seed -> byte-identical
        schedule JSON."""
        spec = SMOKE_SCENARIO
        one = build_workload(build_topology(spec["topology"]), 1,
                             spec["duration"],
                             workload_spec=spec["workload"],
                             chains_spec=spec["chains"],
                             sla_spec=spec["sla"])
        two = build_workload(build_topology(spec["topology"]), 1,
                             spec["duration"],
                             workload_spec=spec["workload"],
                             chains_spec=spec["chains"],
                             sla_spec=spec["sla"])
        assert json.dumps(one.to_dict(), sort_keys=True) == \
            json.dumps(two.to_dict(), sort_keys=True)

    def test_different_seeds_differ(self):
        spec = SMOKE_SCENARIO
        topo = build_topology(spec["topology"])
        schedules = [build_workload(topo, seed, 4.0,
                                    workload_spec=spec["workload"],
                                    chains_spec=spec["chains"])
                     for seed in (1, 2)]
        assert schedules[0].to_dict() != schedules[1].to_dict()

    def test_sap_pairs_never_reused(self):
        topo = FatTreeTopo(k=4)
        schedule = build_workload(topo, 3, 1.0,
                                  chains_spec={"count": 6})
        pairs = [frozenset((chain["src"], chain["dst"]))
                 for chain in schedule.chains]
        assert len(pairs) == len(set(pairs)) == 6

    def test_chain_requests_carry_sla(self):
        topo = FatTreeTopo(k=2)
        schedule = build_workload(topo, 1, 1.0,
                                  chains_spec={"count": 1,
                                               "templates": ["secure"]},
                                  sla_spec={"max_delay": 0.05})
        sg = schedule.chains[0]["sg"]
        assert [vnf["type"] for vnf in sg["vnfs"]] == ["firewall", "dpi"]
        assert sg["requirements"][0]["max_delay"] == 0.05
        assert sg["requirements"][0]["from"] == schedule.chains[0]["src"]

    def test_templates_cycle_round_robin(self):
        topo = FatTreeTopo(k=4)
        schedule = build_workload(
            topo, 1, 1.0,
            chains_spec={"count": 4, "templates": ["web", "bump"]})
        assert [chain["template"] for chain in schedule.chains] == \
            ["web", "bump", "web", "bump"]

    def test_too_many_chains_for_hosts(self):
        topo = FatTreeTopo(k=2)  # 2 hosts -> 1 distinct pair
        with pytest.raises(WorkloadError, match="cannot place"):
            build_workload(topo, 1, 1.0, chains_spec={"count": 2})

    def test_flows_sorted_and_capped(self):
        spec = dict(SMOKE_SCENARIO["workload"], max_flows=3)
        schedule = build_workload(build_topology(SMOKE_SCENARIO["topology"]),
                                  1, 5.0, workload_spec=spec,
                                  chains_spec=SMOKE_SCENARIO["chains"])
        starts = [flow["start"] for flow in schedule.flows]
        assert starts == sorted(starts)
        assert len(schedule.flows) <= 3

    def test_template_catalog_shape(self):
        for name, stages in CHAIN_TEMPLATES.items():
            assert stages, name
            for vnf_type, params in stages:
                assert isinstance(vnf_type, str)
                assert isinstance(params, dict)


class TestCampaignRunner:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        results = tmp_path_factory.mktemp("results")
        runner = CampaignRunner(dict(SMOKE_SCENARIO, profile=True),
                                results_dir=str(results))
        runner.run()
        return runner

    def test_bundle_written(self, campaign):
        run_dir = campaign.run_dir(1)
        assert os.path.isfile(os.path.join(run_dir, "bundle.json"))
        assert os.path.isfile(os.path.join(run_dir, "events.jsonl"))

    def test_bundle_contents(self, campaign):
        bundle = campaign.bundles[0]
        assert bundle["schema"] == 6
        assert bundle["seed"] == 1
        assert bundle["scenario"]["name"] == "smoke"
        workload = bundle["workload"]
        assert workload["packets_sent"] > 0
        assert workload["packets_received"] == workload["packets_sent"]
        assert workload["delay_p50"] is not None
        assert workload["delay_p50"] <= workload["delay_p99"]
        assert bundle["chains"]["deployed"][0]["name"].startswith("chain1")
        assert bundle["chains"]["failed"] == []
        assert bundle["sla"]["monitored_chains"] == 1
        assert bundle["recovery"]["unrecovered"] == []
        assert bundle["recovery"]["mttr_p50"] is None  # no faults ran
        assert bundle["protection"] == {
            "enabled": False, "protected_paths": 0, "flips": 0}
        assert bundle["throughput"]["udp_pps_wall"] > 0

    def test_bundle_carries_dispatched_count_and_region_table(
            self, campaign):
        """Schema 5 (the CI smoke criterion): the exact event count
        always, and under ``profile: true`` one region table holding
        event kinds and the hand-placed regions nested under them."""
        bundle = campaign.bundles[0]
        assert "calibration_s" not in bundle
        assert bundle["dispatched"] > 0
        assert "dispatch" not in bundle
        regions = bundle["profiler"]
        deliver = regions["netem.link.Link._deliver"]
        assert 0 < deliver["calls"] <= bundle["dispatched"]
        assert deliver["cum_s"] >= deliver["self_s"] > 0
        assert regions["netem.link.transmit"]["calls"] > 0

    def test_gate_passes(self, campaign):
        assert campaign.gate() == []

    def test_events_log_has_lines(self, campaign):
        events_path = campaign.bundles[0]["events"]["path"]
        with open(events_path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines
        assert campaign.bundles[0]["events"]["count"] == len(lines)

    def test_events_file_holds_every_record_of_a_long_run(
            self, tmp_path, monkeypatch):
        """The ring is a live view of the last records; the run's
        ``events.jsonl`` streams every record, so a run that emits far
        more than the ring holds loses none of them."""
        start, stop, emitted = ESCAPE.start, ESCAPE.stop, []

        def noisy_start(escape):
            start(escape)
            for index in range(5000):
                escape.telemetry.events.debug("test.noise", "tick",
                                              index=index)

        def counted_stop(escape):
            emitted.append(escape.telemetry.events.emitted)
            stop(escape)

        monkeypatch.setattr(ESCAPE, "start", noisy_start)
        monkeypatch.setattr(ESCAPE, "stop", counted_stop)
        bundle, = run_scenario(dict(SMOKE_SCENARIO),
                               results_dir=str(tmp_path))
        with open(bundle["events"]["path"]) as handle:
            seqs = [json.loads(line)["seq"] for line in handle]
        assert bundle["events"]["count"] == len(seqs) == emitted[0]
        assert seqs == list(range(1, len(seqs) + 1))
        assert len(seqs) > 5000

    def test_gate_flags_all_packets_lost(self):
        runner = CampaignRunner(dict(SMOKE_SCENARIO))
        runner.bundles = [{
            "seed": 9,
            "chains": {"failed": [], "deployed": []},
            "recovery": {"unrecovered": []},
            "workload": {"packets_sent": 10, "packets_received": 0},
        }]
        assert any("all workload packets lost" in problem
                   for problem in runner.gate())

    def test_run_scenario_without_write(self):
        bundles = run_scenario(dict(SMOKE_SCENARIO), write=False)
        assert len(bundles) == 1
        assert "events" not in bundles[0]


class TestAnalyzerAndCli:
    @pytest.fixture(scope="class")
    def results_dir(self, tmp_path_factory):
        results = tmp_path_factory.mktemp("cli-results")
        spec = tmp_path_factory.mktemp("spec") / "smoke.json"
        spec.write_text(json.dumps(SMOKE_SCENARIO))
        code = cli_main(["scenario", "run", str(spec), "--seed", "1",
                         "--seed", "2", "--results-dir", str(results),
                         "--quiet"])
        assert code == 0
        return str(results)

    def test_two_bundles_on_disk(self, results_dir):
        bundles = load_bundles(results_dir)
        assert [bundle["seed"] for bundle in bundles] == [1, 2]

    def test_render_report_table(self, results_dir):
        text = render_report(load_bundles(results_dir))
        assert "campaign smoke (2 run(s))" in text
        lines = text.splitlines()
        assert any(line.strip().startswith("1 ") for line in lines)
        assert any(line.strip().startswith("mean") for line in lines)

    def test_report_dict_aggregate(self, results_dir):
        data = report_dict(load_bundles(results_dir))
        campaign = data["campaigns"][0]
        assert campaign["scenario"] == "smoke"
        assert len(campaign["rows"]) == 2
        aggregate = campaign["aggregate"]
        assert aggregate["seeds"] == [1, 2]
        assert aggregate["unrecovered_total"] == 0
        assert aggregate["pps_sim"] > 0

    def test_cli_report_json(self, results_dir, capsys):
        assert cli_main(["scenario", "report", results_dir,
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaigns"][0]["scenario"] == "smoke"

    def test_cli_report_table(self, results_dir, capsys):
        assert cli_main(["scenario", "report", results_dir]) == 0
        out = capsys.readouterr().out
        assert "campaign smoke" in out
        assert "events" in out

    def test_cli_report_format_csv(self, results_dir, capsys):
        assert cli_main(["scenario", "report", results_dir,
                         "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["scenario", "seed"]
        assert header[-1] == "events"
        assert int(lines[1].rsplit(",", 1)[1]) > 0
        assert len(lines) == 3  # header + one row per seed
        assert lines[1].startswith("smoke,1,")
        assert lines[2].startswith("smoke,2,")

    def test_cli_report_format_json_matches_json_flag(self, results_dir,
                                                      capsys):
        assert cli_main(["scenario", "report", results_dir,
                         "--format", "json"]) == 0
        from_format = capsys.readouterr().out
        assert cli_main(["scenario", "report", results_dir,
                         "--json"]) == 0
        assert capsys.readouterr().out == from_format

    def test_cli_perf_report_from_bundle(self, results_dir, capsys):
        bundles = load_bundles(results_dir)
        path = bundles[0]["_path"]
        assert cli_main(["perf", "report", path]) == 0
        out = capsys.readouterr().out
        # the smoke scenario ran unprofiled: count and throughput,
        # and a line saying why there is no table
        assert "dispatched %d event(s)" % bundles[0]["dispatched"] in out
        assert "udp_pps_wall=" in out
        assert "without `profile: true`" in out

    def test_cli_perf_report_bad_source(self, capsys):
        assert cli_main(["perf", "report", "not/a/real/path"]) == 2
        assert "no such file or directory: not/a/real/path" in (
            capsys.readouterr().err)

    def test_cli_report_missing_path(self, capsys):
        assert cli_main(["scenario", "report",
                         "definitely/not/there"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_cli_list(self, capsys):
        assert cli_main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "topology kinds:" in out
        assert "topology kinds:  fat_tree, wan\n" in out
        assert "chain templates:" in out

    def test_load_bundles_rejects_empty_dir(self, tmp_path):
        with pytest.raises(AnalyzerError, match="no bundle.json"):
            load_bundles(str(tmp_path))

    def test_load_bundles_names_the_schema_it_refuses(self, tmp_path):
        """A bundle of another schema is refused by number, not read
        into a row of dashes."""
        stale = tmp_path / "old" / "bundle.json"
        stale.parent.mkdir()
        stale.write_text(json.dumps(
            {"schema": 4, "seed": 1, "scenario": {"name": "old"},
             "dispatch": {}}))
        for source in (str(stale), str(tmp_path)):
            with pytest.raises(AnalyzerError,
                               match=r"schema 4, .* reads schema 6"):
                load_bundles(source)
        (tmp_path / "bundle.json").write_text(json.dumps([1, 2]))
        with pytest.raises(AnalyzerError, match="schema None"):
            load_bundles(str(tmp_path / "bundle.json"))


#: What a bundle may differ in from one process to the next: host
#: timings and the paths the bundle's files were written to.
WALL_CLOCK_FIELDS = (("wall_seconds",), ("throughput", "udp_pps_wall"),
                     ("events", "path"), ("flowtrace", "jsonl", "path"),
                     ("metrics", "telemetry.metrics.collect_seconds"))


def test_same_seed_is_the_same_bytes_under_any_hash_seed(tmp_path):
    """Same scenario + same seed in two processes whose ``str`` hashes
    differ (``PYTHONHASHSEED`` 1 and 2): the event log and the flowtrace
    postcards are byte-identical and the bundles are equal outside
    wall-clock fields — on a lossy, chaos-injected WAN whose links
    jitter, with flowtrace sampling on, where any set or dict iterated
    in hash order would reorder the run."""
    import subprocess
    import sys
    import repro
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                           "scenarios", "wan_chaos_soak.yaml")
    with open(shipped) as handle:
        scenario = parse_simple_yaml(handle.read())
    # four seeded links jitter for the whole run (two of them carry
    # about a thousand chain frames at seed 3)
    scenario["chaos"]["faults"] += [{"kind": "link_degrade", "at": 0.2,
                                     "duration": 11.5, "jitter": 0.003}] * 4
    scenario["flowtrace"] = {"rate": 8}
    spec = tmp_path / "jittery.json"
    spec.write_text(json.dumps(scenario))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    runs = []
    for hash_seed in ("1", "2"):
        results = tmp_path / hash_seed
        subprocess.run(
            [sys.executable, "-m", "repro", "scenario", "run", str(spec),
             "--seed", "3", "--results-dir", str(results), "--quiet"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                     PYTHONPATH=src),
            check=True, capture_output=True)
        run_dir = results / "wan-chaos-soak" / "seed-3"
        bundle = json.loads((run_dir / "bundle.json").read_text())
        for *parents, leaf in WALL_CLOCK_FIELDS:
            section = bundle
            for key in parents:
                section = section[key]
            del section[leaf]
        runs.append(((run_dir / "events.jsonl").read_bytes(),
                     (run_dir / "flowtrace.jsonl").read_bytes(), bundle))
    (events_1, traces_1, bundle_1), (events_2, traces_2, bundle_2) = runs
    assert events_1 == events_2
    assert events_1.count(b"\n") == bundle_1["events"]["count"] > 20
    assert traces_1 == traces_2
    # a meta record, then one line per sampled packet
    assert traces_1.count(b"\n") - 1 == bundle_1["flowtrace"]["traces"] > 20
    assert bundle_1 == bundle_2
    assert bundle_1["chaos"]["injections"]
