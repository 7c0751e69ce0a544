"""MAP1 — the mapping-algorithm comparison (the "different optimization
algorithms" the orchestrator can swap).

Random batches of chain requests are embedded with each strategy until
rejection; we report acceptance count, mean chain delay (path quality)
and mapper runtime.  Expected shape: backtracking >= shortest-path >=
greedy on quality, reversed on runtime.
"""

import collections
import random
import timeit

import pytest

from repro.core import (ESCAPE, BacktrackingMapper, CongestionAwareMapper,
                        GreedyMapper, MappingError, ResourceView,
                        ServiceGraph, ShortestPathMapper,
                        default_catalog)
from repro.core.graph import Graph
from repro.core.orchestrator import build_resource_view
from repro.netem import Network
from repro.scenario.workload import build_chain_requests
from repro.scenario.zoo import FatTreeTopo

MAPPERS = {
    "greedy": GreedyMapper,
    "shortest-path": ShortestPathMapper,
    "congestion-aware": CongestionAwareMapper,
    "backtracking": BacktrackingMapper,
}


def random_substrate(rng, switches=6, containers=6):
    """A ring of switches + chords, containers attached randomly."""
    view = ResourceView()
    view.add_sap("h1")
    view.add_sap("h2")
    for index in range(switches):
        view.add_switch("s%d" % index, index + 1)
    for index in range(switches):
        view.add_link("s%d" % index, "s%d" % ((index + 1) % switches),
                      delay=rng.uniform(0.001, 0.005), bandwidth=1e9)
    # a couple of chords
    for _ in range(switches // 2):
        a, b = rng.sample(range(switches), 2)
        if not view.graph.has_edge("s%d" % a, "s%d" % b):
            view.add_link("s%d" % a, "s%d" % b,
                          delay=rng.uniform(0.001, 0.005), bandwidth=1e9)
    view.add_link("h1", "s0", delay=0.001)
    view.add_link("h2", "s%d" % (switches // 2), delay=0.001)
    for index in range(containers):
        name = "nc%d" % index
        view.add_container(name, cpu=rng.uniform(1.0, 3.0),
                           mem=rng.uniform(512, 2048), ports=8)
        view.add_link(name, "s%d" % rng.randrange(switches),
                      delay=rng.uniform(0.0001, 0.001))
    return view


def random_request(rng, index):
    sg = ServiceGraph("req-%d" % index)
    sg.add_sap("h1")
    sg.add_sap("h2")
    length = rng.randint(1, 3)
    names = []
    for vnf_index in range(length):
        name = "v%d_%d" % (index, vnf_index)
        sg.add_vnf(name, rng.choice(["firewall", "forwarder",
                                     "rate_limiter", "monitor"]))
        names.append(name)
    sg.add_chain(["h1"] + names + ["h2"])
    return sg


def run_batch(mapper_name, seed=7, requests=30):
    rng = random.Random(seed)
    view = random_substrate(rng)
    mapper = MAPPERS[mapper_name](default_catalog())
    rng_requests = random.Random(seed + 1)
    accepted = 0
    total_delay = 0.0
    for index in range(requests):
        sg = random_request(rng_requests, index)
        try:
            mapping = mapper.map(sg, view)
        except MappingError:
            continue
        accepted += 1
        total_delay += mapping.total_delay(view)
    return accepted, (total_delay / accepted if accepted else 0.0)


@pytest.mark.parametrize("mapper_name", list(MAPPERS))
def test_mapper_runtime(benchmark, mapper_name):
    """Runtime of embedding a 30-request batch (the speed column)."""
    accepted, _delay = benchmark(run_batch, mapper_name)
    assert accepted > 0


def test_mapper_quality_table(benchmark):
    """Acceptance + quality comparison across seeds (the quality
    columns); prints the MAP1 table and asserts its expected shape."""
    rows = {}

    def measure():
        for mapper_name in MAPPERS:
            accepted_total = 0
            delay_total = 0.0
            for seed in (1, 2, 3, 4, 5):
                accepted, mean_delay = run_batch(mapper_name, seed=seed)
                accepted_total += accepted
                delay_total += mean_delay
            rows[mapper_name] = (accepted_total, delay_total / 5)
    benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\nMAP1: mapper comparison (5 seeds x 30 requests)")
    print("%16s %10s %18s" % ("mapper", "accepted", "mean delay [ms]"))
    for name, (accepted, delay) in rows.items():
        print("%16s %10d %18.3f" % (name, accepted, delay * 1e3))
    # shape: backtracking's path quality is at least as good as greedy's
    assert rows["backtracking"][1] <= rows["greedy"][1] + 1e-9
    # acceptance: smarter mappers accept at least as many requests
    assert rows["backtracking"][0] >= rows["greedy"][0]
    assert rows["shortest-path"][0] >= rows["greedy"][0]


def test_warm_deploy_cycle_searches_no_graph(benchmark, monkeypatch):
    """Count guard for the deploy cycle.  Once every request has been
    deployed and torn down once on an unchanged k=4 fat-tree, a further
    round of the same eight requests - placement, routing and the return
    path - is answered from the view's memoised paths on the view
    itself: 0 graph searches, 0 graph copies.  Exact counts from patched
    entry points, not a speed; before the memo and the undo log a deploy
    made about 13 searches and 1 copy here."""
    topo = FatTreeTopo(k=4, containers_per_pod=2, container_ports=6)
    requests = build_chain_requests(
        topo, {"templates": ["web", "bump", "secure", "shaped"],
               "count": 8}, None, random.Random(1))
    escape = ESCAPE.from_topology(topo)
    escape.start()

    def one_round():
        for request in requests:
            chain = escape.deploy_service(request["sg"])
            assert chain.active
            escape.terminate_service(request["name"])

    one_round()
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in ("shortest_path", "dijkstra_path", "copy"):
        monkeypatch.setattr(Graph, name, counted(name, getattr(Graph, name)))
    benchmark.pedantic(one_round, rounds=1, iterations=1)
    benchmark.extra_info["calls"] = dict(calls)
    assert not calls
    # the counters do count: a bandwidth floor is never memoised
    assert escape.orchestrator.view.shortest_path(
        requests[0]["src"], requests[0]["dst"], 1.0) is not None
    assert calls["shortest_path"] == 1
    escape.stop()


@pytest.mark.parametrize("k", [4, 8])
def test_path_query_cost(benchmark, k):
    """One path search on the k-ary fat-tree, with and without a
    bandwidth floor, in microseconds (200 seeded SAP pairs, best of 5).
    The memo is bypassed: a floor is never memoised, so this is what
    every bandwidth-constrained SG link costs at every deploy."""
    view = build_resource_view(Network.build(
        FatTreeTopo(k=k, containers_per_pod=2, container_ports=6)))
    rng = random.Random(5)
    pairs = [tuple(rng.sample(view.saps(), 2)) for _ in range(200)]

    def solve_all(floor):
        for src, dst in pairs:
            assert view._solve(src, dst, floor) is not None

    for label, floor in (("constrained_us", 1.0), ("unconstrained_us", 0.0)):
        best = min(timeit.repeat(lambda: solve_all(floor), number=1,
                                 repeat=5))
        benchmark.extra_info[label] = round(best / len(pairs) * 1e6, 1)
    benchmark.pedantic(solve_all, args=(1.0,), rounds=5, iterations=1)
    print("\nk=%d fat-tree path query: %s" % (k, benchmark.extra_info))
