"""Multi-pin route generation (§4.2.1): Prim ordering + M alternatives."""

import pytest

from repro.routing import SearchGraph, m_shortest_routes, prim_order
from repro.routing.steiner import _nearest_groups


def grid(n=5):
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
    return SearchGraph(adj), node


class TestPrimOrder:
    def test_starts_at_first_group(self):
        nb, node = grid()
        order = prim_order(nb, [[node(0, 0)], [node(4, 4)], [node(1, 0)]])
        assert order[0] == 0

    def test_nearest_next(self):
        nb, node = grid()
        order = prim_order(nb, [[node(0, 0)], [node(4, 4)], [node(1, 0)]])
        assert order == [0, 2, 1]

    def test_empty(self):
        nb, _ = grid()
        assert prim_order(nb, []) == []

    def test_equal_distances_take_the_lowest_index(self):
        nb, node = grid()
        # Groups 1 and 2 are both 2 away; group 2's node pops first.
        order = prim_order(nb, [[node(0, 0)], [node(0, 2)], [node(2, 0)]])
        assert order == [0, 1, 2]

    def test_equivalent_member_counts(self):
        nb, node = grid()
        # Group 1 has a member adjacent to group 0 -> connected first.
        order = prim_order(
            nb, [[node(0, 0)], [node(4, 4), node(0, 1)], [node(2, 2)]]
        )
        assert order == [0, 1, 2]


class TestTwoPinNets:
    def test_shortest_first(self):
        nb, node = grid()
        routes = m_shortest_routes(nb, [[node(0, 0)], [node(3, 3)]], 8)
        assert len(routes) == 8
        assert routes[0].length == 6.0
        lengths = [r.length for r in routes]
        assert lengths == sorted(lengths)

    def test_distinct_edge_sets(self):
        nb, node = grid()
        routes = m_shortest_routes(nb, [[node(0, 0)], [node(3, 3)]], 10)
        seen = {r.edges for r in routes}
        assert len(seen) == len(routes)

    def test_m_one(self):
        nb, node = grid()
        routes = m_shortest_routes(nb, [[node(0, 0)], [node(2, 0)]], 1)
        assert len(routes) == 1
        assert routes[0].length == 2.0


class TestMultiPinNets:
    def test_three_corner_steiner(self):
        nb, node = grid(4)
        groups = [[node(0, 0)], [node(3, 0)], [node(0, 3)]]
        routes = m_shortest_routes(nb, groups, 10)
        # The optimal Steiner tree for three corners of a 3x3 extent is 6.
        assert routes[0].length == 6.0

    def test_four_corner_steiner(self):
        nb, node = grid(4)
        groups = [
            [node(0, 0)],
            [node(3, 0)],
            [node(0, 3)],
            [node(3, 3)],
        ]
        routes = m_shortest_routes(nb, groups, 15)
        # Optimal rectilinear Steiner length for the 4 corners: 9.
        assert routes[0].length == pytest.approx(9.0)

    def test_tree_lengths_deduplicate_shared_edges(self):
        nb, node = grid(4)
        groups = [[node(0, 0)], [node(2, 0)], [node(3, 0)]]
        routes = m_shortest_routes(nb, groups, 5)
        # A straight line: total tree length 3, not 2 + 3.
        assert routes[0].length == 3.0

    def test_route_nodes_cover_all_groups(self):
        nb, node = grid(4)
        groups = [[node(0, 0)], [node(3, 1)], [node(1, 3)]]
        for route in m_shortest_routes(nb, groups, 6):
            for group in groups:
                assert any(g in route.nodes for g in group)


class TestEquivalentPins:
    def test_picks_cheaper_member(self):
        nb, node = grid(4)
        # The second group may connect at (3,0) [far] or (1,0) [near].
        groups = [[node(0, 0)], [node(3, 3), node(1, 0)]]
        routes = m_shortest_routes(nb, groups, 4)
        assert routes[0].length == 1.0
        assert node(1, 0) in routes[0].nodes

    def test_figure10_style(self):
        nb, node = grid(5)
        groups = [
            [node(2, 0)],  # P2 start
            [node(0, 2)],  # P1
            [node(4, 2), node(2, 4)],  # P3A / P3B equivalents
            [node(4, 4)],  # P4
        ]
        routes = m_shortest_routes(nb, groups, 12)
        assert routes
        best = routes[0]
        # Both equivalents reachable; the route must contain at least one.
        assert node(4, 2) in best.nodes or node(2, 4) in best.nodes


class TestDegenerateCases:
    def test_single_group(self):
        nb, node = grid()
        routes = m_shortest_routes(nb, [[node(1, 1)]], 5)
        assert len(routes) == 1
        assert routes[0].length == 0.0
        assert routes[0].edges == frozenset()

    def test_empty_groups(self):
        nb, _ = grid()
        assert m_shortest_routes(nb, [], 5) == []

    def test_group_already_on_tree(self):
        nb, node = grid()
        # Two groups sharing a node: zero-cost connection.
        routes = m_shortest_routes(
            nb, [[node(0, 0)], [node(0, 0), node(4, 4)]], 3
        )
        assert routes[0].length == 0.0

    def test_disconnected_returns_empty(self):
        adj = {0: [], 1: []}
        assert m_shortest_routes(SearchGraph(adj), [[0], [1]], 3) == []

    def test_m_validation(self):
        nb, _ = grid()
        with pytest.raises(ValueError):
            m_shortest_routes(nb, [[0], [1]], 0)


class TestGroupDistances:
    """Each Prim step's search stops at the nearest group's distance."""

    def test_early_stop_matches_full_search(self):
        nb, node = grid(5)
        sources = {node(0, 0)}
        group_nodes = {1: {node(4, 4)}, 2: {node(2, 0)}, 3: {node(0, 3)}}
        # A full search settles {1: 8.0, 2: 2.0, 3: 3.0}.
        assert _nearest_groups(nb, sources, group_nodes) == {2: 2.0}

    def test_equal_distances_all_reported(self):
        nb, node = grid(5)
        group_nodes = {1: {node(0, 2)}, 2: {node(2, 0)}, 3: {node(4, 4)}}
        assert _nearest_groups(nb, {node(0, 0)}, group_nodes) == {1: 2.0, 2: 2.0}

    def test_unreachable_group_absent(self):
        adj = {0: [(1, 1.0)], 1: [(0, 1.0)], 9: []}
        settled = _nearest_groups(SearchGraph(adj), {0}, {1: {1}, 2: {9}})
        assert settled == {1: 1.0}
        assert _nearest_groups(SearchGraph(adj), {0}, {2: {9}}) == {}

    def test_group_with_multiple_members_takes_nearest(self):
        nb, node = grid(5)
        settled = _nearest_groups(
            nb, {node(0, 0)}, {1: {node(4, 4), node(1, 0)}}
        )
        assert settled == {1: 1.0}
