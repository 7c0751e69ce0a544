"""One launch of one workload, in its own process.

``run.py`` starts this file as a subprocess and reads the single JSON
line it prints.  Three modes:

``setup``    build, deploy, warm up, exit — a set-up time sample.
``measure``  set up, then time segments with no tracer installed until
             ``--seconds`` have passed (never fewer than ``--segments``).
``trace``    ``--segments`` segments on an untraced network, then the
             same segments on a network built inside the tracer: the
             per-layer numbers, the tracing overhead, and proof that
             tracing left the simulation untouched.
"""

import argparse
import gc
import json
import math
import resource
import sys
import time

import tracer as tracing
from workloads import COUNTERS, WORKLOADS


def percentile(ordered, p):
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_segment(workload, tracer=None):
    """One verified segment; returns its record and its sorted
    simulated delays."""
    gc.collect()
    before = workload.counters()
    delivered = workload.delivered
    cpu = time.process_time()
    started = time.perf_counter()
    if tracer is None:
        workload.segment(workload.ops)
    else:
        tracer.root(workload.segment, workload.ops)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu
    after = workload.counters()
    workload.check()
    delays = sorted(workload.take_delays())
    return {
        "offered": workload.ops,
        "delivered": workload.delivered - delivered,
        "wall_s": wall,
        "cpu_s": cpu,
        "counts": {key: after[key] - before[key] for key in COUNTERS},
        "delay_ms_p50": percentile(delays, 50) * 1e3,
        "delay_ms_p99": percentile(delays, 99) * 1e3,
        "heap_depth_max": workload.sink.heap_depth_max,
        "entries_max": workload.entries_max,
        "errors": workload.take_errors(),
    }, delays


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(workload, seconds, segments):
    """At least ``segments`` segments, then more until ``seconds`` have
    passed.  The first ``segments`` are the same work in every launch,
    so everything that must repeat exactly - the digest, the pooled
    delay percentiles, peak memory - is taken from them."""
    done = []
    result = {"segments": done}
    delays = []
    deadline = time.perf_counter() + seconds
    while len(done) < segments or time.perf_counter() < deadline:
        record, segment_delays = run_segment(workload)
        done.append(record)
        if len(done) <= segments:
            delays.extend(segment_delays)
        if len(done) == segments:
            result["peak_rss_mb"] = peak_rss_mb()
    result.update(pooled_delays(delays))
    return result


def pooled_delays(delays):
    delays.sort()
    return {"delay_samples": len(delays),
            "sim_delay_ms_p50": percentile(delays, 50) * 1e3,
            "sim_delay_ms_p99": percentile(delays, 99) * 1e3}


def set_up(args):
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    workload.build()
    workload.warm_up()
    return workload


def measure(args):
    if tracing.installed():
        raise RuntimeError("untraced run, but wrappers are installed: %s"
                           % ", ".join(tracing.installed()))
    workload = set_up(args)
    result = {"setup_s": time.time() - args.launched_at,
              "setup_errors": workload.take_errors()}
    if args.mode == "measure":
        result.update(run_phase(workload, args.seconds, args.segments))
        result["deploy_s"] = workload.deploy_s
    else:
        result["peak_rss_mb"] = peak_rss_mb()
    workload.close()
    return result


def trace(args):
    """Two networks fed the same inputs, one built and run with nothing
    installed, one built and run inside the tracer, taking turns
    segment by segment so both see the same machine conditions."""
    tracer = tracing.Tracer()
    plain = set_up(args)
    with tracer:
        spanned = set_up(args)
    tracer.reset()
    untraced, traced, delays = [], [], []
    for _ in range(args.segments):
        if tracing.installed():
            raise RuntimeError("tracer left wrappers behind")
        untraced.append(run_segment(plain)[0])
        with tracer:
            record, segment_delays = run_segment(spanned, tracer)
        traced.append(record)
        delays.extend(segment_delays)
    span_self_ns, calls = tracer.snapshot()
    result = {"untraced": untraced, "traced": traced, "calls": calls,
              "span_self_ns": span_self_ns,
              "layer_self_ns": tracer.layer_self_ns()}
    plain.close()
    with tracer:
        spanned.close()
    result["leftover_wrappers"] = tracing.installed()
    result.update(pooled_delays(delays))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--segments", type=int, default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = trace(args) if args.mode == "trace" else measure(args)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
