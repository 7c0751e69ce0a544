"""The campaign runner: one :class:`Scenario` × N seeds → result
bundles.

Each run builds a fresh substrate from the topology zoo, brings a
full :class:`repro.core.ESCAPE` stack up on it, deploys the seeded
chain requests, arms the optional chaos scenario, drives the
subscriber workload, and writes one **result bundle** under::

    <results_dir>/<scenario-name>/seed-<seed>/
        bundle.json     # everything below, self-contained
        events.jsonl    # the structured event log of the run
        flowtrace.jsonl # per-packet postcards (flowtrace scenarios)

Bundle schema (``schema`` = 6): ``scenario`` (the spec), ``seed``,
``workload`` (delivery + p50/p99 one-way delay), ``chains``
(deployed/failed), ``sla`` (per-chain state, breach/violation counts,
violation ratio), ``recovery`` (actions, MTTR stats with percentiles,
unrecovered), ``protection`` (fast-failover state: enabled flag,
protected path count, dataplane bucket flips), ``chaos`` (the
injection ledger), ``throughput`` (``udp_pps_wall``,
``udp_pps_sim``), ``metrics`` (the full telemetry snapshot),
``dispatched`` (events the simulator executed over the measured
window, exact), ``profiler`` (the one region table — event kinds and
the regions nested under them — when the scenario sets ``profile:
true``), and
``flowtrace`` (per-chain hop-latency breakdown + conformance, when the
scenario carries a ``flowtrace`` section).  Schema 2 lacked
``protection`` and the MTTR percentiles; schema 3 lacked
``flowtrace``; schema 4 kept a second per-event-kind table beside
``profiler`` and the event count inside it; schema 5 carried a
host-speed loop timing as well.

The runner never swallows a failed run: chain deploys that raise are
recorded and counted, and :meth:`CampaignRunner.gate` reproduces the
CI criterion (zero unrecovered chains, zero failed deploys).
"""

import json
import os
import time
from typing import Any, Dict, List, Optional, Union

from repro.core import ESCAPE
from repro.core.sgfile import load_service_graph
from repro.scenario.spec import Scenario, load_scenario
from repro.scenario.workload import WorkloadDriver, build_workload
from repro.scenario.zoo import build_topology

BUNDLE_SCHEMA = 6
BUNDLE_NAME = "bundle.json"
EVENTS_NAME = "events.jsonl"
FLOWTRACE_NAME = "flowtrace.jsonl"


class ScenarioError(Exception):
    pass


class CampaignRunner:
    """Executes every seed of a scenario and collects the bundles."""

    def __init__(self, scenario: Union[Scenario, dict, str],
                 results_dir: Union[str, os.PathLike] = "results",
                 printer=None):
        if not isinstance(scenario, Scenario):
            scenario = load_scenario(scenario)
        self.scenario = scenario
        self.results_dir = os.fspath(results_dir)
        self.bundles: List[Dict[str, Any]] = []
        self._print = printer or (lambda _line: None)

    # -- single run --------------------------------------------------------

    def run_seed(self, seed: int,
                 write: bool = True) -> Dict[str, Any]:
        scenario = self.scenario
        topo = build_topology(scenario.topology)
        schedule = build_workload(
            topo, seed, scenario.duration,
            workload_spec=scenario.workload,
            chains_spec=scenario.chains, sla_spec=scenario.sla)
        self._print("[seed %d] %r over %r" % (seed, schedule, topo))

        escape = ESCAPE.from_topology(topo, **scenario.escape_options)
        run_dir = self.run_dir(seed)
        events_path = os.path.join(run_dir, EVENTS_NAME)
        if write:  # the whole record streams; the ring is a live view
            stop_record = escape.telemetry.events.record_jsonl(events_path)
        wall_started = time.perf_counter()
        escape.start()
        deployed: List[Dict[str, Any]] = []
        failed: List[Dict[str, Any]] = []
        for request in schedule.chains:
            sg = load_service_graph(request["sg"])
            try:
                chain = escape.deploy_service(sg, mapper=scenario.mapper)
            except Exception as exc:  # a failed embed is a result
                failed.append({"name": request["name"],
                               "error": "%s: %s"
                               % (type(exc).__name__, exc)})
                self._print("[seed %d] deploy %s FAILED: %s"
                            % (seed, request["name"], exc))
                continue
            deployed.append({
                "name": request["name"],
                "template": request["template"],
                "src": request["src"], "dst": request["dst"],
                "placement": dict(chain.mapping.vnf_placement),
            })
        escape.run(0.05)  # let steering entries land before traffic

        chaos_ledger: List[Dict[str, Any]] = []
        engine = None
        if scenario.chaos:
            chaos_spec = dict(scenario.chaos)
            chaos_spec.setdefault("name", "%s-chaos" % scenario.name)
            chaos_spec.setdefault("seed", seed)
            engine = escape.inject_chaos(chaos_spec)

        if scenario.profile:
            escape.profiler.reset()
            escape.profiler.enable()
        processed_before = escape.sim.processed
        if scenario.flowtrace:
            flowtrace_spec = scenario.flowtrace
            escape.flowtrace.reset()
            # the sampler seed defaults to the run seed: same seed +
            # same scenario replays a byte-identical sampled set
            escape.flowtrace.enable(
                rate=int(flowtrace_spec.get("rate", 64)),
                seed=int(flowtrace_spec.get("seed", seed)))
        driver = WorkloadDriver(escape.net, schedule).arm()
        run_started = time.perf_counter()
        escape.run(scenario.duration)
        # grace window: in-flight tails, probe deadlines, repairs
        escape.run(min(1.0, scenario.duration * 0.25))
        wall_run = time.perf_counter() - run_started
        dispatched = escape.sim.processed - processed_before
        if scenario.profile:
            escape.profiler.disable()
        flowtrace_report = None
        if scenario.flowtrace:
            escape.flowtrace.disable()
            # publish() pushes per-chain gauges into the registry so
            # the metrics snapshot below carries flowtrace.* gauges
            flowtrace_report = escape.flowtrace.publish(
                escape.telemetry.metrics)
        if engine is not None:
            engine.heal_all()
            escape.run(0.5)
            chaos_ledger = [dict(record) for record in engine.injections]
        driver.disarm()

        workload_results = driver.results()
        received = workload_results["packets_received"]
        bundle: Dict[str, Any] = {
            "schema": BUNDLE_SCHEMA,
            "scenario": scenario.to_dict(),
            "seed": seed,
            "sim_duration": escape.sim.now,
            "wall_seconds": time.perf_counter() - wall_started,
            "workload": workload_results,
            "schedule_meta": schedule.meta,
            "chains": {"deployed": deployed, "failed": failed},
            "sla": escape.sla_summary(),
            "recovery": escape.recovery_summary(),
            "protection": escape.protection_summary(),
            "chaos": {"injections": chaos_ledger,
                      "armed": engine is not None},
            "throughput": {
                "udp_pps_wall": received / wall_run if wall_run else 0.0,
                "udp_pps_sim": (received / scenario.duration
                                if scenario.duration else 0.0),
            },
            "metrics": escape.metrics_snapshot(),
            "dispatched": dispatched,
        }
        if scenario.profile:
            bundle["profiler"] = escape.profiler.report()
        if flowtrace_report is not None:
            bundle["flowtrace"] = flowtrace_report

        if write:
            bundle["events"] = {"path": events_path, "count": stop_record()}
            if flowtrace_report is not None:
                flowtrace_path = os.path.join(run_dir, FLOWTRACE_NAME)
                bundle["flowtrace"]["jsonl"] = {
                    "path": flowtrace_path,
                    "count": escape.flowtrace.write_jsonl(flowtrace_path),
                }
            with open(os.path.join(run_dir, BUNDLE_NAME), "w") as handle:
                json.dump(bundle, handle, indent=2, sort_keys=True)
                handle.write("\n")
        escape.stop()
        self.bundles.append(bundle)
        self._print("[seed %d] %d/%d packets, p50=%s p99=%s, "
                    "unrecovered=%s"
                    % (seed, received, workload_results["packets_sent"],
                       workload_results["delay_p50"],
                       workload_results["delay_p99"],
                       bundle["recovery"]["unrecovered"] or "none"))
        return bundle

    # -- campaign ----------------------------------------------------------

    def run(self, seeds: Optional[List[int]] = None,
            write: bool = True) -> List[Dict[str, Any]]:
        for seed in (seeds if seeds is not None else self.scenario.seeds):
            self.run_seed(int(seed), write=write)
        return self.bundles

    def run_dir(self, seed: int) -> str:
        return os.path.join(self.results_dir, self.scenario.name,
                            "seed-%d" % seed)

    def gate(self) -> List[str]:
        """CI criterion: problems that should fail a campaign (empty
        list = pass)."""
        problems = []
        for bundle in self.bundles:
            seed = bundle["seed"]
            for failure in bundle["chains"]["failed"]:
                problems.append("seed %d: deploy failed: %s (%s)"
                                % (seed, failure["name"],
                                   failure["error"]))
            for chain in bundle["recovery"]["unrecovered"]:
                problems.append("seed %d: chain %s unrecovered"
                                % (seed, chain))
            if bundle["workload"]["packets_received"] == 0 and \
                    bundle["workload"]["packets_sent"]:
                problems.append("seed %d: all workload packets lost"
                                % seed)
        return problems


def run_scenario(source: Union[Scenario, dict, str],
                 seeds: Optional[List[int]] = None,
                 results_dir: Union[str, os.PathLike] = "results",
                 write: bool = True,
                 printer=None) -> List[Dict[str, Any]]:
    """One-call campaign: load, run every seed, return the bundles."""
    runner = CampaignRunner(source, results_dir=results_dir,
                            printer=printer)
    runner.run(seeds=seeds, write=write)
    return runner.bundles
