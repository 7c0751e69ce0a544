"""``repro.core.graph`` against ``networkx``, the reference it replaced.

The package imports no ``networkx``; these tests do, as the oracle:
same graph built in the same order, same question, same answer - the
same one of several equal-cost paths, not just an equally cheap one.
"""

import itertools
import json
import os
import random
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.graph import Graph

_NAMES = ["n%d" % index for index in range(9)]


def build(seed):
    """One random graph, declared and linked in the same order on both:
    4-9 nodes in shuffled order, a third of the pairs linked (either
    way round, some twice - a repeat updates the edge), delays of a few
    whole milliseconds so that equal-cost paths are the rule, one edge
    in six hidden, now and then a self-loop."""
    rng = random.Random(seed)
    names = rng.sample(_NAMES, rng.randint(4, len(_NAMES)))
    ours, oracle = Graph(), nx.Graph()
    for rank, name in enumerate(names):
        ours.add_node(name, rank=rank)
        oracle.add_node(name, rank=rank)
    pairs = [pair for pair in itertools.product(names, names)
             if rng.random() < (0.02 if pair[0] == pair[1] else 0.2)]
    rng.shuffle(pairs)
    for node1, node2 in pairs:
        attrs = {"delay": rng.choice([0.0, 0.001, 0.001, 0.002]),
                 "hidden": rng.random() < 1 / 6}
        ours.add_edge(node1, node2, **attrs)
        oracle.add_edge(node1, node2, **attrs)
    return ours, oracle


def symmetric(node1, node2, data):
    return None if data["hidden"] else data["delay"]


def uphill(node1, node2, data):
    """Dearer in one direction: catches swapped arguments on the
    backward half of the bidirectional search."""
    if data["hidden"]:
        return None
    return data["delay"] + (0.001 if node1 < node2 else 0.0)


def answer(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def adjacency(graph):
    return [(node, list(graph.neighbors(node))) for node in graph]


_seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@given(_seeds, st.sampled_from([symmetric, uphill]))
@settings(max_examples=150, deadline=None)
def test_both_searches_return_the_path_networkx_returns(seed, weight):
    ours, oracle = build(seed)
    # what ResourceView.routable used to hand the search instead of a
    # weight that answers None: a view without the hidden edges (and
    # without the nodes that leaves bare)
    visible = oracle.edge_subgraph(
        (a, b) for a, b, data in oracle.edges(data=True)
        if not data["hidden"])
    ends = list(ours) + ["missing"]
    for source, target in itertools.product(ends, ends):
        expected = answer(nx.shortest_path, oracle, source, target,
                          weight=weight)
        assert ours.shortest_path(source, target, weight) == expected
        assert ours.dijkstra_path(source, target, weight) == answer(
            nx.dijkstra_path, oracle, source, target, weight=weight)
        if source != target and weight is symmetric:
            assert expected == answer(nx.shortest_path, visible, source,
                                      target, weight="delay")


@given(_seeds)
@settings(max_examples=150, deadline=None)
def test_views_and_copy_keep_networkx_order(seed):
    ours, oracle = build(seed)
    assert list(ours) == list(oracle)
    assert list(ours.nodes(data=True)) == list(oracle.nodes(data=True))
    assert list(ours.edges) == list(ours.edges()) == list(oracle.edges())
    assert list(ours.edges(data=True)) == list(oracle.edges(data=True))
    assert ours.number_of_nodes() == oracle.number_of_nodes()
    assert ours.number_of_edges() == oracle.number_of_edges()
    assert adjacency(ours) == adjacency(oracle)
    for node1 in _NAMES:
        assert (node1 in ours) == (node1 in oracle)
        for node2 in _NAMES:
            assert ours.has_edge(node1, node2) == oracle.has_edge(node1,
                                                                  node2)
    for node1, node2 in oracle.edges():
        assert ours.edges[node1, node2] is ours.edges[node2, node1]
        assert ours.edges[node1, node2] == oracle.edges[node1, node2]
    # a copy re-adds the edges in edges() order, which reorders
    # neighbours - the way Graph.copy() of the oracle does, so
    # BacktrackingMapper's scratch view keeps breaking ties as it did
    clone, reference = ours.copy(), oracle.copy()
    assert adjacency(clone) == adjacency(reference)
    assert list(clone.edges(data=True)) == list(reference.edges(data=True))
    assert list(clone.nodes(data=True)) == list(ours.nodes(data=True))
    for node1, node2, data in clone.edges(data=True):
        assert data is clone.edges[node2, node1]
        data["delay"] = -1.0
    for name in clone:
        clone.nodes[name]["rank"] = -1
    assert list(ours.edges(data=True)) == list(oracle.edges(data=True))
    assert list(ours.nodes(data=True)) == list(oracle.nodes(data=True))
    # where the oracle would quietly add a node, ours refuses, whole
    known = next(iter(ours))
    for ends in ((known, "missing"), ("missing", known)):
        with pytest.raises(ValueError, match="missing"):
            ours.add_edge(*ends, delay=0.0)
    assert adjacency(ours) == adjacency(oracle)


_IMPORT_FOOTPRINT = """
import json, sys
bare = set(sys.modules)          # what site (and its .pth files) loaded
import repro
print(json.dumps(sorted({name.partition(".")[0]
                         for name in set(sys.modules) - bare})))
"""


def test_importing_the_package_loads_nothing_third_party():
    """What a launch costs before it does anything: `import networkx`
    alone was 22-24 MB and 0.15 s of every emulation."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c", _IMPORT_FOOTPRINT], check=True,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True).stdout)
    assert "repro" in loaded and "networkx" not in loaded
    if sys.version_info >= (3, 10):
        assert [name for name in loaded if name != "repro"
                and name not in sys.stdlib_module_names] == []
