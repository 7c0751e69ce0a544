"""The bench ladder: four chain workloads, end-to-end and per-layer.

    python3 benchmarks/ladder/run.py                       # whole ladder
    python3 benchmarks/ladder/run.py --workload chain_distinct --seed 7
    python3 benchmarks/ladder/run.py --trace 1             # per-layer set
    python3 benchmarks/ladder/run.py --selfcheck           # two sets agree
    python3 benchmarks/ladder/run.py --scale 0.01 --launches 1    # smoke

Every launch of a workload is a fresh subprocess (``worker.py``,
``PYTHONHASHSEED=0``, one thread).  The last line of standard output is
one JSON object: for a single ``--workload`` exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` - the metrics
``BENCHMARK.json`` lists under ``end_to_end`` (``--trace 0``) or
``per_layer`` (``--trace 1``) - and for the whole ladder the same object
per workload.  Metric names, units and bounds are read from
``BENCHMARK.json``, which is their only definition.

Exit code 0 means every output was verified; see README.md for what is
verified and how the numbers are taken.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: segments every launch runs whatever the time budget; what must repeat
#: exactly from launch to launch is taken from these
DIGEST_SEGMENTS = 4
#: pairs of (untraced, traced) segments in a ``--trace 1`` run at
#: ``--scale 1``
TRACE_SEGMENTS = 16
#: a shared sandbox slows stretches of a run by tens of percent for
#: seconds at a time; the rate a workload reaches in its faster segments
#: repeats from run to run better than its median does (README.md has
#: the measured spreads)
FAST_QUANTILE = 0.75

#: seconds after which a launch is killed (the driver allows a whole
#: run 180)
LAUNCH_TIMEOUT = 120

TIMED = ("wall_s", "cpu_s")


class LadderError(Exception):
    """A launch failed or a verification did not hold."""


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def quantile(values, q):
    """Nearest-rank quantile ``q`` in [0, 1] of unsorted ``values``
    (the rule ``worker.percentile`` uses)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def launch(mode, workload, seed, scale, seconds=0.0, segments=0):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--mode", mode, "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--seconds", repr(seconds),
               "--segments", str(segments),
               "--launched-at", repr(time.time())]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=LAUNCH_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise LadderError("%s launch of %s did not end within %d s"
                          % (mode, workload, LAUNCH_TIMEOUT))
    if done.returncode != 0:
        raise LadderError("%s launch of %s exited with %d:\n%s"
                          % (mode, workload, done.returncode, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def exact_part(segment):
    return {key: value for key, value in segment.items()
            if key not in TIMED}


def collect_errors(segments):
    return [error for segment in segments for error in segment["errors"]]


# -- untraced: the end-to-end set ---------------------------------------------

def run_untraced(workload, seed, seconds, scale, launches, sets=1):
    """``launches`` fresh processes share the time budget of a set;
    returns one report per set.  The launches of several sets take
    turns, so that the sets see the same machine conditions."""
    results = [[] for _ in range(sets)]
    for _ in range(launches):
        for one_set in results:
            one_set.append(launch("measure", workload, seed, scale,
                                  seconds * scale / launches,
                                  DIGEST_SEGMENTS))
    return [summarize(one_set) for one_set in results]


def summarize(results):
    """The report (metrics, digest, attempted/failed, problems) of the
    launches of one untraced set."""
    segments = [segment for result in results
                for segment in result["segments"]]
    problems = collect_errors(segments)
    for result in results:
        problems.extend(result["setup_errors"])
    digests = [[exact_part(segment)
                for segment in result["segments"][:DIGEST_SEGMENTS]]
               + [result["sim_delay_ms_p50"], result["sim_delay_ms_p99"]]
               for result in results]
    if any(digest != digests[0] for digest in digests[1:]):
        problems.append("sim_digest differs between launches of one seed")
    offered = sum(segment["offered"] for segment in segments)
    delivered = sum(segment["delivered"] for segment in segments)
    failed = (offered - delivered) + len(problems)
    rates = [segment["delivered"] / segment["wall_s"]
             for segment in segments]
    cpu = [segment["cpu_s"] / segment["delivered"] * 1e6
           for segment in segments if segment["delivered"]]
    metrics = {
        "pkts_per_s": quantile(rates, FAST_QUANTILE),
        "cpu_us_per_pkt": quantile(cpu, 1.0 - FAST_QUANTILE),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
    }
    extra = {
        "pkts_per_s_median": statistics.median(rates),
        "pkts_per_s_iqr": (quantile(rates, 0.75) - quantile(rates, 0.25)),
        "segments": len(segments),
        "segment_pkts_per_s": rates,
        "segment_cpu_us_per_pkt": cpu,
        "launch_setup_s": [result["setup_s"] for result in results],
        "sim_delay_ms_p50": results[0]["sim_delay_ms_p50"],
        "sim_delay_ms_p99": results[0]["sim_delay_ms_p99"],
        "sim_delay_samples": results[0]["delay_samples"],
        "failed_ratio": failed / offered,
    }
    deploys = [sample for result in results
               for sample in result["deploy_s"]]
    if deploys:
        extra.update({
            "cycles_per_s": metrics["pkts_per_s"],
            "deploy_ms_p50": quantile(deploys, 0.50) * 1e3,
            "deploy_ms_p95": quantile(deploys, 0.95) * 1e3,
            "deploy_samples": len(deploys)})
    return {"metrics": metrics, "extra": extra, "digest": digests[0],
            "attempted": offered, "failed": failed, "problems": problems}


# -- traced: the per-layer set ---------------------------------------------

#: program counter -> span whose call count must equal it
RECONCILE = {
    "switch_passes": "repro.openflow.switch:OpenFlowSwitch.process_packet",
    "link_delivered": "repro.netem.link:Link._deliver",
    "rpcs": "repro.netconf.client:NetconfClient.request",
}


def run_traced(workload, seed, scale):
    result = launch("trace", workload, seed, scale,
                    segments=max(2, round(TRACE_SEGMENTS * min(scale, 1.0))))
    untraced, traced = result["untraced"], result["traced"]
    problems = collect_errors(untraced) + collect_errors(traced)
    if result["leftover_wrappers"]:
        problems.append("tracer left wrappers installed: %s"
                        % ", ".join(result["leftover_wrappers"]))
    if [exact_part(s) for s in untraced] != [exact_part(s) for s in traced]:
        problems.append("tracing changed the simulation: the traced and "
                        "untraced networks disagree on counts or delays")
    counts = {key: sum(segment["counts"][key] for segment in traced)
              for key in traced[0]["counts"]}
    calls = result["calls"]
    for counter, span in RECONCILE.items():
        if calls[span] != counts[counter]:
            problems.append("%s ran %d times but the program counted %d %s"
                            % (span, calls[span], counts[counter], counter))
    lookups = calls["repro.openflow.flowtable:FlowTable.lookup"]
    if lookups != counts["switch_passes"] - counts["microflow_hits"]:
        problems.append("FlowTable.lookup ran %d times for %d cache misses"
                        % (lookups, counts["switch_passes"]
                           - counts["microflow_hits"]))
    offered = sum(segment["offered"] for segment in traced)
    delivered = sum(segment["delivered"] for segment in traced)
    wall_ns = sum(segment["wall_s"] for segment in traced) * 1e9
    layers = result["layer_self_ns"]
    coverage = sum(layers.values()) / wall_ns
    if abs(coverage - 1.0) > 0.02:
        problems.append("layer self times cover %.1f%% of the traced wall "
                        "time" % (coverage * 100.0))
    overhead = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)) - 1.0

    def per_pkt(value):
        return value / delivered

    def span_calls(*suffixes):
        return sum(count for name, count in calls.items()
                   if name.endswith(suffixes))

    metrics = {layer + ".self_us_per_pkt": per_pkt(ns / 1e3)
               for layer, ns in layers.items()}
    metrics.update({
        "sim.events_per_pkt": per_pkt(counts["events"]),
        "sim.heap_depth_max": traced[-1]["heap_depth_max"],
        "netem.link.calls_per_pkt": per_pkt(span_calls("Link.transmit")),
        "netem.link.drops": counts["link_drops"],
        "packet.codec_calls_per_pkt": per_pkt(
            span_calls("Ethernet.unpack", "Ethernet.pack")),
        "openflow.switch.passes_per_pkt": per_pkt(counts["switch_passes"]),
        "openflow.switch.microflow_hit_ratio":
            counts["microflow_hits"] / counts["switch_passes"],
        "openflow.switch.packet_ins": counts["packet_ins"],
        "openflow.flowtable.lookups_per_pkt": per_pkt(lookups),
        "openflow.flowtable.entries_max": traced[-1]["entries_max"],
        "click.transfers_per_pkt": per_pkt(counts["click_transfers"]),
        "click.queue_drops": counts["queue_drops"],
        "netconf.rpcs_per_pkt": per_pkt(counts["rpcs"]),
        "pox.steering.flow_mods_per_pkt": per_pkt(counts["flow_mods"]),
        "openflow.wire.msgs_per_pkt": per_pkt(
            span_calls("pack_message", "unpack_message")),
        "trace.overhead_ratio": overhead,
        "trace.coverage_ratio": coverage,
        "sim_delay_ms_p50": result["sim_delay_ms_p50"],
        "sim_delay_ms_p99": result["sim_delay_ms_p99"],
    })
    shares = {layer: ns / sum(layers.values())
              for layer, ns in layers.items()}
    return {"metrics": metrics,
            "extra": {"layer_share": shares, "span_calls": calls,
                      "span_self_ns": result["span_self_ns"],
                      "traced_pkts": delivered,
                      "sim_delay_samples": result["delay_samples"]},
            "attempted": offered,
            "failed": (offered - delivered) + len(problems),
            "problems": problems}


# -- reporting ----------------------------------------------------------------

def contract(report, declared):
    """The object the driver reads: exactly the declared metrics."""
    missing = [m["name"] for m in declared
               if m["name"] not in report["metrics"]]
    if missing:
        raise LadderError("no value for declared metric(s): %s"
                          % ", ".join(missing))
    return {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def print_report(name, why, seed, report, declared):
    print("== %s (seed %d): %s" % (name, seed, why))
    units = {m["name"]: m["unit"] for m in declared}
    for metric, value in report["metrics"].items():
        print("  %-40s %16.6f %s" % (metric, value, units.get(metric, "")))
    for metric, value in report["extra"].items():
        if isinstance(value, (int, float)):
            print("  %-40s %16.6f" % ("(" + metric + ")", value))
    for layer, share in sorted(report["extra"].get("layer_share",
                                                   {}).items(),
                               key=lambda item: -item[1]):
        print("  %-40s %15.2f%%" % ("(share " + layer + ")", share * 100))
    print("  attempted %d, failed %d" % (report["attempted"],
                                         report["failed"]))
    for problem in report["problems"]:
        print("  PROBLEM: %s" % problem)


def run_ladder(args, benchmark, names):
    """Returns {name: [report]} - two reports each under --selfcheck."""
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}
    reports = {}
    for name in names:
        if args.trace:
            sets = [run_traced(name, args.seed, args.scale)]
        else:
            sets = run_untraced(name, args.seed, args.seconds, args.scale,
                                args.launches, 2 if args.selfcheck else 1)
        for report in sets:
            report["seed"] = args.seed
            report["why"] = why[name]
            print_report(name, why[name], args.seed, report, declared)
        reports[name] = sets
    return reports


def selfcheck(reports, benchmark):
    """Two sets of the same code must agree: bounded metrics within
    their own bound, the simulation digest exactly."""
    disagreements = []
    for name, (first, second) in reports.items():
        print("== selfcheck %s" % name)
        for metric in benchmark["end_to_end"]:
            a = first["metrics"][metric["name"]]
            b = second["metrics"][metric["name"]]
            worse = (a - b) / a if metric["better"] == "higher" \
                else (b - a) / a
            verdict = "ok" if abs(worse) <= metric["bound"] else "DIFFERS"
            print("  %-20s %14.4f %14.4f  %+7.2f%% (bound %.0f%%) %s"
                  % (metric["name"], a, b, worse * 100,
                     metric["bound"] * 100, verdict))
            if verdict != "ok":
                disagreements.append("%s %s" % (name, metric["name"]))
        same = first["digest"] == second["digest"]
        print("  %-20s %s" % ("sim_digest", "identical" if same
                              else "DIFFERS"))
        if not same:
            disagreements.append("%s sim_digest" % name)
    return disagreements


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="time budget of one untraced workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced, per-layer set")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink segments and time budget (smoke)")
    parser.add_argument("--launches", type=int, default=3,
                        help="fresh processes per untraced workload")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two untraced sets, launches taking "
                             "turns, and compare them")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        parser.exit(2, "run.py: no program to measure under %s\n" % SRC)
    benchmark = load_benchmark()
    known = [w["name"] for w in benchmark["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error("unknown workload %r (have: %s)"
                         % (name, ", ".join(known)))
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.selfcheck:
        args.trace = 0
    try:
        if not args.trace:
            # one discarded launch, so that no set-up time sample pays
            # for cold .pyc files or a cold page cache
            launch("setup", names[0], args.seed, args.scale)
        reports = run_ladder(args, benchmark, names)
    except LadderError as error:
        sys.exit("run.py: %s" % error)
    disagreements = selfcheck(reports, benchmark) if args.selfcheck else []
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    print("REPORT " + json.dumps(reports, sort_keys=True))
    results = {name: contract(sets[0], declared)
               for name, sets in reports.items()}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    bad = [name for name, result in results.items()
           if not result["correct"]]
    if bad or disagreements:
        sys.exit("run.py: FAILED: %s" % ", ".join(bad + disagreements))


if __name__ == "__main__":
    main()
