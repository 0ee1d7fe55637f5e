"""A* search: equivalence with plain Dijkstra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import SearchGraph, dijkstra, k_shortest_paths, m_shortest_routes, mpaths
from repro.routing import prim_order
from repro.routing.mpaths import ManhattanHeuristic


def random_geometric_graph(seed, n=25):
    """Random points connected to their nearest neighbours with Manhattan
    edge lengths — the structure of a channel graph."""
    rng = random.Random(seed)
    positions = {i: (rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(n)}
    adj = {i: [] for i in range(n)}

    def dist(a, b):
        pa, pb = positions[a], positions[b]
        return abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])

    for i in range(n):
        nearest = sorted((dist(i, j), j) for j in range(n) if j != i)[:4]
        for d, j in nearest:
            if all(v != j for v, _ in adj[i]):
                adj[i].append((j, d))
            if all(v != i for v, _ in adj[j]):
                adj[j].append((i, d))
    return SearchGraph(adj), positions


class TestAStarEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_same_shortest_length(self, seed):
        nb, positions = random_geometric_graph(seed)
        rng = random.Random(seed + 1)
        src = rng.randrange(25)
        dst = rng.randrange(25)
        plain = dijkstra(nb, {src: 0.0}, {dst})
        astar = dijkstra(nb, {src: 0.0}, {dst}, positions=positions)
        assert (plain is None) == (astar is None)
        if plain is not None:
            assert astar[0] == pytest.approx(plain[0])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_k_shortest_same_best(self, seed):
        nb, positions = random_geometric_graph(seed)
        rng = random.Random(seed + 2)
        src = rng.randrange(25)
        dst = rng.randrange(25)
        plain = k_shortest_paths(nb, {src: 0.0}, {dst}, 3)
        astar = k_shortest_paths(nb, {src: 0.0}, {dst}, 3, positions=positions)
        if plain:
            assert astar
            assert astar[0][0] == pytest.approx(plain[0][0])

    def test_multi_source_with_positions(self):
        nb, positions = random_geometric_graph(7)
        result = dijkstra(nb, {0: 0.0, 1: 0.0}, {5}, positions=positions)
        plain = dijkstra(nb, {0: 0.0, 1: 0.0}, {5})
        assert result[0] == pytest.approx(plain[0])


class TestGeometricOrdering:
    def test_matches_graph_order_on_grid(self):
        # On a unit grid, Prim's rule takes the nearest group next.
        n = 5
        adj = {}

        def node(x, y):
            return y * n + x

        for y in range(n):
            for x in range(n):
                u = node(x, y)
                adj.setdefault(u, [])
                for dx, dy in ((1, 0), (0, 1)):
                    if x + dx < n and y + dy < n:
                        v = node(x + dx, y + dy)
                        adj[u].append((v, 1.0))
                        adj.setdefault(v, []).append((u, 1.0))
        groups = [[node(0, 0)], [node(4, 4)], [node(1, 0)], [node(0, 3)]]
        assert prim_order(SearchGraph(adj), groups) == [0, 2, 3, 1]

    def test_routes_same_quality_with_positions(self):
        nb, positions = random_geometric_graph(3)
        groups = [[0], [7], [13]]
        plain = m_shortest_routes(nb, groups, 4)
        fast = m_shortest_routes(nb, groups, 4, positions=positions)
        if plain and fast:
            # The scalable configuration must not lose more than a few
            # percent on the best route.
            assert fast[0].length <= plain[0].length * 1.1 + 1e-9


class FreshHeuristic(ManhattanHeuristic):
    """Recomputes every lookup: nothing is memoized."""

    def __missing__(self, node):
        value = super().__missing__(node)
        del self[node]
        return value


def fresh_heuristics(monkeypatch, positions):
    """Make every A* search ignore the heuristic it is handed and build
    a fresh, unmemoized one toward its own targets."""
    search = mpaths.dijkstra

    def fresh_search(graph, sources, targets, *args, heuristic, **kwargs):
        assert isinstance(heuristic, ManhattanHeuristic)
        fresh = FreshHeuristic(positions, targets)
        return search(graph, sources, targets, *args, heuristic=fresh, **kwargs)

    monkeypatch.setattr(mpaths, "dijkstra", fresh_search)


def grid_graph(seed, n=6):
    """A unit grid with random edges removed and jittered weights that
    stay at least the Manhattan distance, so A* remains admissible."""
    rng = random.Random(seed)
    positions = {y * n + x: (float(x), float(y)) for y in range(n) for x in range(n)}
    adj = {u: [] for u in positions}
    for y in range(n):
        for x in range(n):
            for dx, dy in ((1, 0), (0, 1)):
                if x + dx < n and y + dy < n and rng.random() < 0.85:
                    u, v = y * n + x, (y + dy) * n + x + dx
                    w = 1.0 + rng.choice((0.0, 0.0, 0.5))
                    adj[u].append((v, w))
                    adj[v].append((u, w))
    return SearchGraph(adj), positions


def pin_groups(seed, nodes, count):
    """``count`` disjoint pin groups of one to three nodes each."""
    rng = random.Random(seed)
    picked = rng.sample(sorted(nodes), 3 * count)
    return [picked[3 * i: 3 * i + rng.randint(1, 3)] for i in range(count)]


class TestSharedHeuristicExact:
    """Memoizing the A* heuristic and sharing it across Yen's spur
    searches and a beam level's partials changes no path: the results
    equal those of a fresh, unmemoized heuristic for every search."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_k_shortest_paths(self, seed, geometric):
        nb, positions = (
            random_geometric_graph(seed) if geometric else grid_graph(seed)
        )
        sources, targets = pin_groups(seed, positions, 2)

        def run():
            return k_shortest_paths(
                nb, {n: 0.0 for n in sources}, set(targets), 5, max_spurs=4,
                positions=positions,
            )

        shared = run()
        with pytest.MonkeyPatch.context() as mp:
            fresh_heuristics(mp, positions)
            fresh = run()
        assert shared == fresh

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.booleans(), st.integers(2, 5))
    def test_m_shortest_routes(self, seed, geometric, n_groups):
        nb, positions = (
            random_geometric_graph(seed) if geometric else grid_graph(seed)
        )
        groups = pin_groups(seed, positions, n_groups)

        def run():
            routes = m_shortest_routes(nb, groups, 4, positions=positions)
            return [(r.length, sorted(r.edges)) for r in routes]

        shared = run()
        with pytest.MonkeyPatch.context() as mp:
            fresh_heuristics(mp, positions)
            fresh = run()
        assert shared == fresh

    def test_memo_holds_the_fresh_values(self):
        nb, positions = grid_graph(3)
        targets = {7, 20, 33}
        memo = ManhattanHeuristic(positions, targets)
        for node in positions:
            assert memo[node] == FreshHeuristic(positions, targets)[node]
        assert len(memo) == len(positions)
        assert memo[10_000] == 0.0  # no position: no estimate
