"""Dijkstra and Yen's K-shortest loopless paths."""

import pytest

from repro.routing import SearchGraph, dijkstra, k_shortest_paths, path_edges


def grid(n=4, weight=1.0):
    """An n x n grid graph with unit edges."""
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
                    adj[u].append((v, weight))
                    adj.setdefault(v, []).append((u, weight))
    return SearchGraph(adj), node


class TestDijkstra:
    def test_shortest_on_grid(self):
        nb, node = grid()
        result = dijkstra(nb, {node(0, 0): 0.0}, {node(3, 3)})
        assert result is not None
        length, path = result
        assert length == 6.0
        assert path[0] == node(0, 0) and path[-1] == node(3, 3)

    def test_multi_source_picks_nearest(self):
        nb, node = grid()
        result = dijkstra(
            nb, {node(0, 0): 0.0, node(3, 2): 0.0}, {node(3, 3)}
        )
        assert result[0] == 1.0
        assert result[1][0] == node(3, 2)

    def test_source_cost_offsets(self):
        nb, node = grid()
        result = dijkstra(
            nb, {node(0, 0): 0.0, node(3, 2): 10.0}, {node(3, 3)}
        )
        # The distant source is cheaper than the near-but-penalized one.
        assert result[1][0] == node(0, 0)

    def test_source_is_target(self):
        nb, node = grid()
        result = dijkstra(nb, {node(1, 1): 0.0}, {node(1, 1)})
        assert result == (0.0, (node(1, 1),))

    def test_unreachable(self):
        adj = {0: [], 1: []}
        assert dijkstra(SearchGraph(adj), {0: 0.0}, {1}) is None

    def test_banned_nodes(self):
        nb, node = grid(3)
        banned = {node(1, 0), node(0, 1), node(1, 2)}
        result = dijkstra(
            nb, {node(0, 0): 0.0}, {node(2, 2)}, banned_nodes=banned
        )
        # Only the path through (1,1)... is blocked too? (0,0)->(1,0) and
        # (0,0)->(0,1) both banned: unreachable.
        assert result is None

    def test_banned_edges_directed(self):
        nb, node = grid(2)
        banned = {(node(0, 0), node(1, 0)), (node(0, 0), node(0, 1))}
        result = dijkstra(
            nb, {node(0, 0): 0.0}, {node(1, 1)}, banned_edges=banned
        )
        assert result is None


class TestKShortest:
    def test_counts_and_order(self):
        nb, node = grid()
        paths = k_shortest_paths(nb, {node(0, 0): 0.0}, {node(3, 3)}, 10)
        assert len(paths) == 10
        lengths = [p[0] for p in paths]
        assert lengths == sorted(lengths)
        assert lengths[0] == 6.0

    def test_all_loopless_and_distinct(self):
        nb, node = grid()
        paths = k_shortest_paths(nb, {node(0, 0): 0.0}, {node(3, 3)}, 15)
        seen = set()
        for _, path in paths:
            assert len(set(path)) == len(path)  # loopless
            assert path not in seen
            seen.add(path)

    def test_exhausts_small_graph(self):
        # A path graph has exactly one route.
        adj = {0: [(1, 1.0)], 1: [(0, 1.0), (2, 1.0)], 2: [(1, 1.0)]}
        paths = k_shortest_paths(SearchGraph(adj), {0: 0.0}, {2}, 5)
        assert len(paths) == 1

    def test_diamond_two_routes(self):
        adj = {
            0: [(1, 1.0), (2, 2.0)],
            1: [(0, 1.0), (3, 1.0)],
            2: [(0, 2.0), (3, 2.0)],
            3: [(1, 1.0), (2, 2.0)],
        }
        paths = k_shortest_paths(SearchGraph(adj), {0: 0.0}, {3}, 5)
        assert [p[0] for p in paths] == [2.0, 4.0]

    def test_k_validation(self):
        nb, node = grid()
        with pytest.raises(ValueError):
            k_shortest_paths(nb, {0: 0.0}, {1}, 0)

    def test_no_path(self):
        adj = {0: [], 1: []}
        assert k_shortest_paths(SearchGraph(adj), {0: 0.0}, {1}, 3) == []

    def test_multi_target(self):
        nb, node = grid()
        paths = k_shortest_paths(
            nb, {node(0, 0): 0.0}, {node(3, 3), node(1, 1)}, 4
        )
        assert paths[0][0] == 2.0  # the near target wins


class TestPathEdges:
    def test_normalized_pairs(self):
        edges = path_edges((3, 1, 2))
        assert edges == frozenset({(1, 3), (1, 2)})

    def test_empty_for_single_node(self):
        assert path_edges((5,)) == frozenset()
