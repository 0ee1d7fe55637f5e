"""The prepared search graph: its prunings change no search.

``reference_dijkstra`` and ``reference_group_distances`` are the
searches as they were before :class:`SearchGraph`: they relax every
edge of a ``neighbors(node)`` callable, dead ends included, look the
heuristic up node by node, run every spur search to the end and settle
every group.  Every search on the prepared graph must return exactly
what they return, or, for the nearest-group search, the reference's
groups at the smallest distance.
"""

import math
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import SearchGraph, dijkstra, k_shortest_paths, m_shortest_routes
from repro.routing import mpaths, prim_order, steiner
from repro.routing.mpaths import ManhattanHeuristic, Path

NeighborFn = Callable[[int], Iterable[Tuple[int, float]]]


def reference_dijkstra(
    neighbors: NeighborFn,
    sources: Dict[int, float],
    targets: Set[int],
    banned_nodes: Optional[Set[int]] = None,
    banned_edges: Optional[Set[Tuple[int, int]]] = None,
    positions: Optional[Dict[int, Tuple[float, float]]] = None,
    heuristic: Optional[Dict[int, float]] = None,
) -> Optional[Path]:
    h = heuristic if heuristic is not None else ManhattanHeuristic(positions, targets)
    #: tail node -> heads it may not be left for.
    banned_from: Dict[int, Set[int]] = {}
    for u, v in banned_edges or ():
        banned_from.setdefault(u, set()).add(v)

    inf = math.inf
    # A banned node's distance of -inf is never improved on, so it is
    # never entered — one dict probe instead of a set test per edge.
    dist: Dict[int, float] = dict.fromkeys(banned_nodes or (), -inf)
    prev: Dict[int, Optional[int]] = {}
    heap: List[Tuple[float, float, int]] = []
    for node, cost in sources.items():
        if cost < dist.get(node, inf):
            dist[node] = cost
            prev[node] = None
            heappush(heap, (cost + h[node], cost, node))

    dist_get = dist.get
    while heap:
        _, d, node = heappop(heap)
        if d > dist[node]:
            continue
        if node in targets:
            path = []
            cur: Optional[int] = node
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            path.reverse()
            return (d, tuple(path))
        blocked = banned_from.get(node)
        for nxt, length in neighbors(node):
            nd = d + length
            if nd < dist_get(nxt, inf) - 1e-12 and (
                blocked is None or nxt not in blocked
            ):
                dist[nxt] = nd
                prev[nxt] = node
                heappush(heap, (nd + h[nxt], nd, nxt))
    return None


def reference_group_distances(
    neighbors: NeighborFn,
    from_nodes: Set[int],
    group_nodes: Dict[int, Set[int]],
) -> Dict[int, float]:
    node_groups: Dict[int, List[int]] = {}
    for gid, nodes in group_nodes.items():
        for n in nodes:
            node_groups.setdefault(n, []).append(gid)
    pending = set(group_nodes)
    settled: Dict[int, float] = {}

    inf = math.inf
    dist = {n: 0.0 for n in from_nodes}
    dist_get = dist.get
    heap = [(0.0, n) for n in from_nodes]
    heapify(heap)
    while heap and pending:
        d, node = heappop(heap)
        if d > dist[node]:
            continue
        gids = node_groups.get(node)
        if gids is not None:
            for gid in gids:
                if gid in pending:
                    pending.discard(gid)
                    settled[gid] = d
            if not pending:
                break
        for nxt, length in neighbors(node):
            nd = d + length
            if nd < dist_get(nxt, inf) - 1e-12:
                dist[nxt] = nd
                heappush(heap, (nd, nxt))
    return settled


def unpruned(graph: SearchGraph) -> NeighborFn:
    """Every edge of the prepared graph, dead ends included."""
    return graph.adjacency.__getitem__


def reference_searches(monkeypatch) -> None:
    """Route every search of ``k_shortest_paths``, ``prim_order`` and
    ``m_shortest_routes`` through the unpruned reference searches: no
    spur limit, a heuristic computed node by node, and every group
    settled."""

    def search(graph, sources, targets, *args, heuristic, relax=None, limit=None, **kwargs):
        fresh = ManhattanHeuristic(heuristic.positions, targets)
        return reference_dijkstra(
            unpruned(graph), sources, targets, *args, heuristic=fresh, **kwargs
        )

    def group_distances(graph, from_nodes, group_nodes):
        return reference_group_distances(unpruned(graph), from_nodes, group_nodes)

    monkeypatch.setattr(mpaths, "dijkstra", search)
    monkeypatch.setattr(steiner, "_nearest_groups", group_distances)


def nearest(distances: Dict[int, float]) -> Dict[int, float]:
    """The groups at the smallest distance, ties included."""
    least = min(distances.values(), default=None)
    return {g: d for g, d in distances.items() if d == least}


@st.composite
def channel_graphs(draw):
    """A channel-graph-shaped test graph: points joined to their nearest
    neighbours, dead-end leaves hung off random nodes (the pin nodes of
    Fig. 9), a separate two-node component, and parallel edges, some of
    them within 1e-12 of each other.  Every length is at least the
    Manhattan distance of its endpoints, so A* stays admissible.

    Returns (adjacency, positions, leaves)."""
    n = draw(st.integers(3, 12))
    points = draw(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=n, max_size=n, unique=True,
        )
    )
    positions = {i: (float(x), float(y)) for i, (x, y) in enumerate(points)}
    adj: Dict[int, List[Tuple[int, float]]] = {i: [] for i in range(n)}
    extras = st.sampled_from((0.0, 0.0, 1e-13, 0.5))

    def manhattan(u, v):
        (ux, uy), (vx, vy) = positions[u], positions[v]
        return abs(ux - vx) + abs(uy - vy)

    def join(u, v, extra=0.0):
        length = manhattan(u, v) + extra
        adj[u].append((v, length))
        adj[v].append((u, length))

    def add_node(x, y):
        node = len(positions)
        positions[node] = (float(x), float(y))
        adj[node] = []
        return node

    pairs = []
    k = draw(st.integers(1, 3))
    for u in range(n):
        for v in sorted(range(n), key=lambda v: (manhattan(u, v), v))[1: k + 1]:
            key = (min(u, v), max(u, v))
            if key not in pairs:
                pairs.append(key)
                join(u, v, draw(extras))
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3)):
        join(u, v, draw(extras))

    leaves = []
    for host in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)):
        hx, hy = positions[host]
        leaf = add_node(
            hx + draw(st.integers(-3, 3)), hy + draw(st.integers(-3, 3))
        )
        join(leaf, host)
        if draw(st.integers(0, 3)) == 0:
            join(leaf, host, draw(extras))
        leaves.append(leaf)
    a = add_node(100, 100)
    b = add_node(100, 104)
    join(a, b)
    leaves += [a, b]
    return adj, positions, leaves


def node_sets(nodes, leaves, max_size=3):
    """Sets of one to ``max_size`` nodes, often all dead ends."""
    return st.one_of(
        st.sets(st.sampled_from(leaves), min_size=1, max_size=max_size),
        st.sets(st.sampled_from(nodes), min_size=1, max_size=max_size),
    )


def disjoint_groups(draw, nodes, leaves):
    """Two to four disjoint pin groups of one to three nodes each."""
    pool = list(dict.fromkeys(draw(st.permutations(leaves)) + draw(st.permutations(nodes))))
    groups = []
    for _ in range(draw(st.integers(2, 4))):
        size = draw(st.integers(1, 3))
        if len(pool) < size:
            break
        groups.append(pool[:size])
        pool = pool[size:]
    return groups


class TestPreparedGraph:
    def test_dead_ends(self):
        # 0 - 1 - 2 with leaf 3 (two parallel edges) on 1, and the
        # two-node component 4 - 5.
        adj = {
            0: [(1, 1.0)],
            1: [(0, 1.0), (3, 2.0), (2, 1.0), (3, 1.5)],
            2: [(1, 1.0)],
            3: [(1, 2.0), (1, 1.5)],
            4: [(5, 1.0)],
            5: [(4, 1.0)],
        }
        graph = SearchGraph(adj)
        assert graph.dead_ends == {0: 1, 2: 1, 3: 1, 4: 5, 5: 4}
        assert graph.through == {
            0: [(1, 1.0)], 1: [], 2: [(1, 1.0)], 3: [(1, 2.0), (1, 1.5)], 4: [], 5: [],
        }
        relax = graph.toward({3, 5})
        assert relax[1] == [(3, 2.0), (3, 1.5)]
        assert relax[4] == [(5, 1.0)]
        assert relax[0] == [(1, 1.0)]
        assert graph.through[1] == []  # the shared table is untouched

    def test_refuses_an_edge_shorter_than_manhattan(self):
        # 0 - 1 - 2 on a line; the edge 1 - 2 is a unit shorter than the
        # 4 units between its ends, so A*'s heuristic would overestimate.
        positions = {0: (0.0, 0.0), 1: (3.0, 0.0), 2: (3.0, 4.0)}
        adj = {0: [(1, 3.0)], 1: [(0, 3.0), (2, 3.0)], 2: [(1, 3.0)]}
        with pytest.raises(ValueError, match=r"edge \(1, 2\) of length 3.0 .* 4.0"):
            SearchGraph(adj, positions)
        adj[1][1], adj[2][0] = (2, 4.0), (1, 4.0)
        assert SearchGraph(adj, positions).positions is positions
        with pytest.raises(ValueError, match=r"edge \(1, 2\): node without a position"):
            SearchGraph(adj, {0: (0.0, 0.0), 1: (3.0, 0.0)})

    @settings(max_examples=100, deadline=None)
    @given(channel_graphs(), st.data())
    def test_prefilled_heuristic_is_the_formula(self, drawn, data):
        adj, positions, leaves = drawn
        graph = SearchGraph(adj, positions)
        targets = data.draw(node_sets(sorted(adj), leaves))
        h = graph.heuristic(targets)
        assert set(h) == set(adj) - set(graph.dead_ends)
        for node in adj:
            x, y = positions[node]
            formula = min(abs(x - tx) + abs(y - ty) for tx, ty in map(positions.get, targets))
            assert h[node] == formula
        # Other positions than the graph's get no table.
        assert not graph.heuristic(targets, dict(positions))

    @settings(max_examples=60, deadline=None)
    @given(channel_graphs())
    def test_lengths_match_an_edge_scan(self, drawn):
        adj, _, _ = drawn
        graph = SearchGraph(adj)
        for u, edges in adj.items():
            for v, _ in edges:
                assert graph.lengths[(u, v)] == min(l for w, l in edges if w == v)


class TestSameSearches:
    """The pruned searches against the unpruned reference: ``==``."""

    @settings(max_examples=200, deadline=None)
    @given(channel_graphs(), st.data())
    def test_dijkstra(self, drawn, data):
        adj, positions, leaves = drawn
        nodes = sorted(adj)
        pos = data.draw(st.sampled_from((None, positions)))
        graph = SearchGraph(adj, pos)
        sources = {
            n: data.draw(st.sampled_from((0.0, 0.0, 1.0, 7.5)))
            for n in data.draw(node_sets(nodes, leaves))
        }
        targets = data.draw(node_sets(nodes, leaves))
        banned_nodes = data.draw(st.sets(st.sampled_from(nodes), max_size=3))
        # Banned edges include edges into dead-end targets.
        edges = sorted({(u, v) for u in nodes for v, _ in adj[u]})
        into_targets = [(u, v) for u, v in edges if v in targets]
        banned_edges = data.draw(st.sets(st.sampled_from(edges), max_size=3))
        if into_targets:
            banned_edges |= data.draw(st.sets(st.sampled_from(into_targets), max_size=2))
        for kwargs in ({}, {"banned_nodes": banned_nodes, "banned_edges": banned_edges}):
            expected = reference_dijkstra(
                adj.__getitem__, sources, targets, positions=pos, **kwargs
            )
            assert dijkstra(graph, sources, targets, **kwargs) == expected

    @settings(max_examples=150, deadline=None)
    @given(channel_graphs(), st.data())
    def test_group_distances(self, drawn, data):
        adj, _, leaves = drawn
        nodes = sorted(adj)
        graph = SearchGraph(adj)
        groups = disjoint_groups(data.draw, nodes, leaves)
        from_nodes = set(groups[0])
        group_nodes = {g: set(groups[g]) for g in range(1, len(groups))}
        assert steiner._nearest_groups(graph, from_nodes, group_nodes) == nearest(
            reference_group_distances(adj.__getitem__, from_nodes, group_nodes)
        )

    @settings(max_examples=150, deadline=None)
    @given(channel_graphs(), st.data())
    def test_k_shortest_paths(self, drawn, data):
        adj, positions, leaves = drawn
        nodes = sorted(adj)
        graph = SearchGraph(adj, data.draw(st.sampled_from((None, positions))))
        sources = {n: 0.0 for n in data.draw(node_sets(nodes, leaves))}
        targets = data.draw(node_sets(nodes, leaves))
        k = data.draw(st.integers(1, 5))
        max_spurs = data.draw(st.integers(1, 4))

        def run():
            return k_shortest_paths(graph, sources, targets, k, max_spurs)

        pruned = run()
        with pytest.MonkeyPatch.context() as mp:
            reference_searches(mp)
            assert run() == pruned

    @settings(max_examples=150, deadline=None)
    @given(channel_graphs(), st.data())
    def test_prim_order(self, drawn, data):
        adj, _, leaves = drawn
        graph = SearchGraph(adj)
        groups = disjoint_groups(data.draw, sorted(adj), leaves)
        pruned = prim_order(graph, groups)
        with pytest.MonkeyPatch.context() as mp:
            reference_searches(mp)
            assert prim_order(graph, groups) == pruned

    @settings(max_examples=150, deadline=None)
    @given(channel_graphs(), st.data())
    def test_m_shortest_routes(self, drawn, data):
        adj, positions, leaves = drawn
        graph = SearchGraph(adj, data.draw(st.sampled_from((None, positions))))
        groups = disjoint_groups(data.draw, sorted(adj), leaves)
        m = data.draw(st.integers(1, 4))

        def run():
            return [
                (r.length, sorted(r.edges), sorted(r.nodes))
                for r in m_shortest_routes(graph, groups, m)
            ]

        pruned = run()
        with pytest.MonkeyPatch.context() as mp:
            reference_searches(mp)
            assert run() == pruned
