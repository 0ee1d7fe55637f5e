"""Congestion accounting and the width rule of Eqn 22."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.channels import (
    WIDTH_MARGIN_TRACKS,
    ChannelGraph,
    cell_edge_expansions,
    compute_congestion,
    decompose_free_space,
    extract_critical_regions,
    region_densities,
    required_channel_width,
)
from repro.geometry import Rect, TileSet, interval_overlap


class TestWidthRule:
    def test_eqn22(self):
        assert required_channel_width(0, 1.0) == 2.0
        assert required_channel_width(5, 1.0) == 7.0
        assert required_channel_width(5, 2.0) == 14.0

    def test_validation(self):
        with pytest.raises(ValueError):
            required_channel_width(-1, 1.0)
        with pytest.raises(ValueError):
            required_channel_width(1, 0.0)

    def test_margin_constant(self):
        assert WIDTH_MARGIN_TRACKS == 2


def simple_setup():
    """Two cells side by side inside a boundary, with a routed net."""
    shapes = {
        "a": TileSet.rectangle(10, 10),
        "b": TileSet.rectangle(10, 10).translated(14, 0),
    }
    boundary = Rect(-15, -15, 30, 15)
    regions = extract_critical_regions(shapes, boundary)
    strips = decompose_free_space(shapes.values(), boundary)
    graph = ChannelGraph(strips, 1.0, regions=regions)
    pa = graph.attach_pin("a", "p", (5.0, 0.0))
    pb = graph.attach_pin("b", "p", (9.0, 0.0))
    return graph, pa, pb


class TestComputeCongestion:
    def test_counts_edges_and_nodes(self):
        graph, pa, pb = simple_setup()
        host_a = graph.pin_host(pa)
        host_b = graph.pin_host(pb)
        route = [(pa, host_a)]
        if host_a != host_b:
            route.append((host_a, host_b))
        route.append((host_b, pb))
        report = compute_congestion(graph, {"n1": route})
        assert report.node_density[host_a] == 1
        assert report.node_density[host_b] == 1
        assert sum(report.edge_density.values()) == len(set(
            tuple(sorted(e)) for e in route
        ))

    def test_net_counted_once_per_node(self):
        graph, pa, pb = simple_setup()
        host = graph.pin_host(pa)
        # Same edge twice in the route: density must still be 1.
        report = compute_congestion(graph, {"n": [(pa, host), (host, pa)]})
        assert report.edge_density[tuple(sorted((pa, host)))] == 1

    def test_two_nets_stack(self):
        graph, pa, pb = simple_setup()
        host = graph.pin_host(pa)
        routes = {"n1": [(pa, host)], "n2": [(pa, host)]}
        report = compute_congestion(graph, routes)
        assert report.node_density[host] == 2

    def test_overflow(self):
        graph, pa, pb = simple_setup()
        host_a, host_b = graph.pin_host(pa), graph.pin_host(pb)
        if host_a == host_b:
            pytest.skip("pins share a strip in this decomposition")
        edge = graph.edge(host_a, host_b)
        routes = {
            f"n{i}": [(host_a, host_b)] for i in range((edge.capacity or 0) + 3)
        }
        report = compute_congestion(graph, routes)
        assert report.overflow(graph) == 3


class TestRegionDensities:
    def test_routed_channel_has_density(self):
        graph, pa, pb = simple_setup()
        host_a, host_b = graph.pin_host(pa), graph.pin_host(pb)
        route = [(pa, host_a), (host_a, host_b), (host_b, pb)]
        densities = region_densities(graph, {"n1": route})
        # The channel between a and b must see the net.
        between = [
            r for r in graph.regions if set(r.cells()) == {"a", "b"}
        ]
        assert between
        assert densities[between[0].index] >= 1

    def test_unrouted_region_zero(self):
        graph, pa, pb = simple_setup()
        densities = region_densities(graph, {})
        assert all(v == 0 for v in densities.values())


class TestCellEdgeExpansions:
    def test_half_width_per_side(self):
        graph, pa, pb = simple_setup()
        host_a, host_b = graph.pin_host(pa), graph.pin_host(pb)
        route = [(pa, host_a), (host_a, host_b), (host_b, pb)]
        expansions = cell_edge_expansions(graph, {"n1": route}, 1.0)
        # Cell a's right edge and cell b's left edge share the channel.
        assert "a" in expansions and "b" in expansions
        assert expansions["a"]["right"] >= required_channel_width(1, 1.0) / 2
        assert expansions["a"]["right"] == expansions["b"]["left"]

    def test_core_boundary_not_expanded(self):
        graph, pa, pb = simple_setup()
        expansions = cell_edge_expansions(graph, {}, 1.0)
        assert "__core__" not in expansions

    def test_zero_density_still_reserves_margin(self):
        graph, pa, pb = simple_setup()
        expansions = cell_edge_expansions(graph, {}, 1.0)
        # Even unrouted channels get (0 + 2) * t_s / 2 = 1 per side.
        assert expansions["a"]["right"] == pytest.approx(1.0)


# -- the brute-force crossing scan, kept as the index's oracle -------------


def _leg_crosses(rect, a, b):
    x1, x2 = sorted((a[0], b[0]))
    y1, y2 = sorted((a[1], b[1]))
    if x1 > rect.x2 or x2 < rect.x1 or y1 > rect.y2 or y2 < rect.y1:
        return False
    # Overlap length along the leg's direction of travel must be positive;
    # a zero-length leg (coincident endpoints) never counts.
    w = interval_overlap(x1, x2, rect.x1, rect.x2)
    h = interval_overlap(y1, y2, rect.y1, rect.y2)
    if x1 == x2 and y1 == y2:
        return False
    if y1 == y2:  # horizontal leg
        return w > 0
    return h > 0  # vertical leg


def _l_path_crosses(rect, p, q):
    """Does the horizontal-then-vertical path p -> (qx, py) -> q touch the
    rectangle along a segment (not a mere corner point)?"""
    corner = (q[0], p[1])
    return _leg_crosses(rect, p, corner) or _leg_crosses(rect, corner, q)


def brute_force_densities(graph, routes):
    """Every route edge tested against every region."""
    region_nets = {r.index: set() for r in graph.regions}
    for net, edges in routes.items():
        for u, v in edges:
            p, q = graph.positions[u], graph.positions[v]
            for region in graph.regions:
                if _l_path_crosses(region.rect, p, q):
                    region_nets[region.index].add(net)
    return {idx: len(nets) for idx, nets in region_nets.items()}


def stub_graph(positions, rects):
    regions = [SimpleNamespace(index=i, rect=r) for i, r in enumerate(rects)]
    return SimpleNamespace(positions=positions, regions=regions)


#: A coarse grid, so legs land on region boundaries and corners, and
#: regions and legs collapse to zero extent, far more often than chance.
coord = st.integers(0, 6).map(float)


@st.composite
def routed_regions(draw):
    n_nodes = draw(st.integers(1, 8))
    positions = {
        i: (draw(coord), draw(coord)) for i in range(n_nodes)
    }
    node = st.integers(0, n_nodes - 1)
    routes = draw(
        st.dictionaries(
            st.sampled_from([f"n{i}" for i in range(6)]),
            st.lists(st.tuples(node, node), max_size=6),
            max_size=6,
        )
    )
    rects = []
    for _ in range(draw(st.integers(0, 6))):
        x1, x2 = sorted((draw(coord), draw(coord)))
        y1, y2 = sorted((draw(coord), draw(coord)))
        rects.append(Rect(x1, y1, x2, y2))
    return positions, routes, rects


class TestRegionDensityIndex:
    """``region_densities`` counts exactly what the brute-force scan of
    every route edge against every region counts."""

    @settings(max_examples=400, deadline=None)
    @given(routed_regions())
    def test_matches_brute_force(self, case):
        positions, routes, rects = case
        graph = stub_graph(positions, rects)
        assert region_densities(graph, routes) == brute_force_densities(
            graph, routes
        )

    def check(self, positions, routes, rects):
        graph = stub_graph(positions, rects)
        densities = region_densities(graph, routes)
        assert densities == brute_force_densities(graph, routes)
        return [densities[i] for i in range(len(rects))]

    def test_zero_length_leg_never_counts(self):
        # p == q: both legs have zero length, even inside the region.
        assert self.check({0: (1.0, 1.0)}, {"n": [(0, 0)]},
                          [Rect(0, 0, 2, 2)]) == [0]

    def test_leg_on_region_boundary(self):
        # A horizontal leg running along the region's top edge counts; one
        # that only reaches the left edge does not.
        positions = {0: (0.0, 2.0), 1: (3.0, 2.0), 2: (-2.0, 1.0), 3: (0.0, 1.0)}
        assert self.check(positions, {"a": [(0, 1)], "b": [(2, 3)]},
                          [Rect(0, 0, 2, 2)]) == [1]

    def test_corner_only_contact(self):
        # The L path (−1, 0) -> (0, 0) -> (0, −1) touches the region only
        # at its corner.
        positions = {0: (-1.0, 0.0), 1: (0.0, -1.0)}
        assert self.check(positions, {"n": [(0, 1)]},
                          [Rect(0, 0, 2, 2)]) == [0]

    def test_zero_width_region(self):
        # A leg crossing a zero-width region has no overlap along it; a
        # leg running along it does.
        positions = {0: (0.0, 1.0), 1: (4.0, 1.0), 2: (2.0, 0.0), 3: (2.0, 3.0)}
        assert self.check(positions, {"across": [(0, 1)], "along": [(2, 3)]},
                          [Rect(2, 0, 2, 2)]) == [1]

    def test_repeated_edges_count_once(self):
        positions = {0: (0.0, 1.0), 1: (4.0, 1.0)}
        assert self.check(positions, {"n": [(0, 1), (0, 1), (1, 0)]},
                          [Rect(1, 0, 3, 2)]) == [1]

    def test_one_net_with_several_crossing_legs(self):
        positions = {0: (0.0, 0.5), 1: (4.0, 1.5), 2: (1.0, -1.0)}
        routes = {"n": [(0, 1), (1, 2), (2, 0)], "m": [(0, 1)]}
        assert self.check(positions, routes, [Rect(1, 0, 3, 2)]) == [2]
