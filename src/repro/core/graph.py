"""The substrate graph behind :class:`~repro.core.nffg.ResourceView`.

Two insertion-ordered dicts — node attributes and ``{node: {neighbour:
edge attributes}}``, one attribute dict shared by both directions of an
edge — and the two Dijkstra searches the mapping layer calls.  Which of
several equal-cost paths a search returns depends on the order
neighbours were added in, on heap entries ``(distance, push counter,
node)`` and on relaxing only on a strict improvement: all three are
what ``networkx`` does, the oracle in ``tests/test_core_graph.py``.

A ``weight`` is a callable ``(node1, node2, edge attributes)`` giving
the edge's cost, or None to hide the edge from this search.
"""

from heapq import heappop, heappush
from itertools import count
from typing import Callable, Iterator, List, Optional

Weight = Callable[[str, str, dict], Optional[float]]


class _Nodes(dict):
    """``nodes[name]``, and ``nodes(data=True)`` for the pairs."""

    def __call__(self, data: bool = False):
        return self.items() if data else self.keys()


class _Edges:
    """``edges[a, b]`` is the attribute dict; iterating, ``edges()``
    and ``edges(data=True)`` give every edge once, from the endpoint
    declared first."""

    def __init__(self, adj: dict):
        self._adj = adj

    def __getitem__(self, pair: tuple) -> dict:
        return self._adj[pair[0]][pair[1]]

    def __call__(self, data: bool = False) -> Iterator[tuple]:
        seen = set()
        for node, neighbours in self._adj.items():
            for other, attrs in neighbours.items():
                if other not in seen:
                    yield (node, other, attrs) if data else (node, other)
            seen.add(node)

    __iter__ = __call__


class Graph:
    def __init__(self):
        self.nodes = _Nodes()
        self._adj: dict = {}
        self.edges = _Edges(self._adj)

    def add_node(self, name: str, **attrs) -> None:
        """Declare ``name``, or update the attributes it has."""
        self._adj.setdefault(name, {})
        self.nodes.setdefault(name, {}).update(attrs)

    def add_edge(self, node1: str, node2: str, **attrs) -> None:
        """Link two declared nodes, or update the link they have."""
        for name in (node1, node2):
            if name not in self._adj:
                raise ValueError("link to undeclared node %r" % name)
        data = self._adj[node1].get(node2, {})
        data.update(attrs)
        self._adj[node1][node2] = self._adj[node2][node1] = data

    def __contains__(self, name) -> bool:
        return name in self._adj

    def __iter__(self) -> Iterator[str]:
        return iter(self._adj)

    def has_edge(self, node1: str, node2: str) -> bool:
        return node2 in self._adj.get(node1, ())

    def neighbors(self, name: str) -> Iterator[str]:
        return iter(self._adj[name])

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(1 for _ in self.edges)

    def copy(self) -> "Graph":
        """Independent copy: the nodes, then every edge from the
        endpoint declared first.  Neighbours come out ordered by when
        *they* were declared, not by when each link was added, so a
        search on the copy can settle a tie differently from one on the
        original — and has to keep settling it the way it does."""
        clone = Graph()
        for name, attrs in self.nodes.items():
            clone.add_node(name, **attrs)
        for node1, node2, attrs in self.edges(data=True):
            clone.add_edge(node1, node2, **attrs)
        return clone

    def shortest_path(self, source: str, target: str,
                      weight: Weight) -> Optional[List[str]]:
        """Cheapest path by bidirectional Dijkstra — a step from the
        source, a step from the target, until a node is settled from
        both; None when an endpoint is unknown or there is no path."""
        adj = self._adj
        if source not in adj or target not in adj:
            return None
        if source == target:
            return [source]
        settled = (set(), set())
        seen = ({source: 0}, {target: 0})
        preds = ({source: None}, {target: None})
        fringe = ([(0, 0, source)], [(0, 1, target)])
        counter = count(2)
        best = meet = None
        side = 1
        while fringe[0] and fringe[1]:
            side = 1 - side
            dist, _, node = heappop(fringe[side])
            if node in settled[side]:
                continue
            settled[side].add(node)
            if node in settled[1 - side]:
                path = []
                while meet is not None:
                    path.append(meet)
                    meet = preds[0][meet]
                path.reverse()
                node = preds[1][path[-1]]
                while node is not None:
                    path.append(node)
                    node = preds[1][node]
                return path
            reached, opposite = seen[side], seen[1 - side]
            for other, data in adj[node].items():
                cost = (weight(other, node, data) if side
                        else weight(node, other, data))
                if cost is None:
                    continue
                total = dist + cost
                if other not in reached or total < reached[other]:
                    reached[other] = total
                    heappush(fringe[side], (total, next(counter), other))
                    preds[side][other] = node
                    if other in opposite:
                        through = total + opposite[other]
                        if best is None or best > through:
                            best, meet = through, other
        return None

    def dijkstra_path(self, source: str, target: str,
                      weight: Weight) -> Optional[List[str]]:
        """Cheapest path by Dijkstra from the source alone, which can
        settle a tie differently from :meth:`shortest_path`; None when
        the source is unknown or the target is not reached."""
        adj = self._adj
        if source not in adj:
            return None
        settled = set()
        seen = {source: 0}
        pred = {}
        fringe = [(0, 0, source)]
        counter = count(1)
        while fringe:
            dist, _, node = heappop(fringe)
            if node in settled:
                continue
            settled.add(node)
            if node == target:
                path = [node]
                while path[-1] in pred:
                    path.append(pred[path[-1]])
                return path[::-1]
            for other, data in adj[node].items():
                cost = weight(node, other, data)
                if cost is None:
                    continue
                total = dist + cost
                if other not in seen or total < seen[other]:
                    seen[other] = total
                    heappush(fringe, (total, next(counter), other))
                    pred[other] = node
        return None
