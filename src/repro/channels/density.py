"""Channel density, overflow, and the width rule w = (d + 2) * t_s.

After global routing, every channel's density is known and the required
spacing between its two bounding cell edges follows from Eqn 22.  Half of
each channel's width is charged to each bounding cell edge — these are
the static expansions the stage-2 refinement anneals against.

Densities live at two granularities:

* per *routing-graph edge* (the capacity constraints of Eqn 24), and
* per *critical region* — a net crossing any free-space node that
  intersects a region contributes one track to that region's density,
  which then sets the region's required width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, Iterable, List, Set, Tuple

from .graph import ChannelGraph
from .regions import CORE_BOUNDARY, CriticalRegion

#: Extra tracks of Eqn 22: channel routers achieve t <= d + 1, plus one
#: track of margin, so the expected width is (d + 2) * t_s.
WIDTH_MARGIN_TRACKS = 2


def required_channel_width(density: int, track_spacing: float) -> float:
    """Eqn 22: expected channel width for two-layer routing."""
    if density < 0:
        raise ValueError("density must be non-negative")
    if track_spacing <= 0:
        raise ValueError("track spacing must be positive")
    return (density + WIDTH_MARGIN_TRACKS) * track_spacing


@dataclass
class CongestionReport:
    """Densities and overflow of one global-routing solution."""

    edge_density: Dict[Tuple[int, int], int] = field(default_factory=dict)
    node_density: Dict[int, int] = field(default_factory=dict)

    def overflow(self, graph: ChannelGraph) -> int:
        """X of Eqn 24: total excess tracks over all channel edges."""
        total = 0
        for key, density in self.edge_density.items():
            capacity = graph.edge(*key).capacity
            if capacity is not None and density > capacity:
                total += density - capacity
        return total

    def max_node_density(self) -> int:
        return max(self.node_density.values(), default=0)


def compute_congestion(
    graph: ChannelGraph, routes: Dict[str, Iterable[Tuple[int, int]]]
) -> CongestionReport:
    """Tally densities from net routes.

    ``routes`` maps net names to collections of (u, v) node-pair edges.
    A net contributes one track to every routing edge it uses and to
    every free-space node it visits (pin nodes count toward their host
    node — the pin's access track still occupies the channel).
    """
    report = CongestionReport()
    num_free = graph.num_free_nodes
    for edges in routes.values():
        seen_edges: Set[Tuple[int, int]] = set()
        seen_nodes: Set[int] = set()
        for u, v in edges:
            key = (u, v) if u < v else (v, u)
            if key not in seen_edges:
                seen_edges.add(key)
                report.edge_density[key] = report.edge_density.get(key, 0) + 1
            for node in (u, v):
                host = node if node < num_free else graph.pin_host(node)
                if host is not None and host not in seen_nodes:
                    seen_nodes.add(host)
                    report.node_density[host] = (
                        report.node_density.get(host, 0) + 1
                    )
    return report


def region_densities(
    graph: ChannelGraph,
    routes: Dict[str, Iterable[Tuple[int, int]]],
) -> Dict[int, int]:
    """Density of every critical region: the number of distinct nets
    whose routes actually cross the region.

    A route edge between two graph nodes is modelled as the L-shaped
    (horizontal-then-vertical) connection of their positions — the way a
    global route traverses adjacent strips — and a net is charged to a
    region when either leg passes through the region's rectangle along a
    segment: the leg's fixed coordinate lies in the rectangle's closed
    span, and its interval overlaps the rectangle's by a positive length
    (a zero-length leg or a mere corner contact never counts).

    The legs of all routes are indexed once, per axis, sorted by their
    fixed coordinate; each region then reads the band of legs inside its
    span and filters it by overlap, instead of testing every route edge.
    """
    horizontal, vertical = _RouteLegs.of_routes(graph.positions, routes)
    densities: Dict[int, int] = {}
    for region in graph.regions:
        r = region.rect
        nets: Set[int] = set()
        horizontal.add_nets_crossing(nets, r.y1, r.y2, r.x1, r.x2)
        vertical.add_nets_crossing(nets, r.x1, r.x2, r.y1, r.y2)
        densities[region.index] = len(nets)
    return densities


#: (owning net id, fixed coordinate, lo, hi) of one axis-parallel leg,
#: covering the interval lo < hi along its direction.
Leg = Tuple[int, float, float, float]


class _RouteLegs:
    """The route legs of one direction, sorted by fixed coordinate."""

    def __init__(self, legs: List[Leg]) -> None:
        legs.sort(key=itemgetter(1))
        self.legs = legs
        self.fixed = [leg[1] for leg in legs]

    @classmethod
    def of_routes(
        cls,
        positions: Dict[int, Tuple[float, float]],
        routes: Dict[str, Iterable[Tuple[int, int]]],
    ) -> "Tuple[_RouteLegs, _RouteLegs]":
        """(horizontal, vertical) legs of every route edge's L path
        p -> (qx, py) -> q; zero-length legs are dropped."""
        horizontal: List[Leg] = []
        vertical: List[Leg] = []
        for net_id, edges in enumerate(routes.values()):
            for a, b in edges:
                px, py = positions[a]
                qx, qy = positions[b]
                if px != qx:
                    horizontal.append((net_id, py, min(px, qx), max(px, qx)))
                if py != qy:
                    vertical.append((net_id, qx, min(py, qy), max(py, qy)))
        return cls(horizontal), cls(vertical)

    def add_nets_crossing(
        self, nets: Set[int], f1: float, f2: float, a1: float, a2: float
    ) -> None:
        """Add the nets of the legs with ``f1 <= fixed <= f2`` whose
        interval overlaps ``[a1, a2]`` by a positive length."""
        if not a1 < a2:
            return
        band = self.legs[bisect_left(self.fixed, f1):bisect_right(self.fixed, f2)]
        nets.update([net for net, _, lo, hi in band if lo < a2 and hi > a1])


def cell_edge_expansions(
    graph: ChannelGraph,
    routes: Dict[str, Iterable[Tuple[int, int]]],
    track_spacing: float,
) -> Dict[str, Dict[str, float]]:
    """Static per-cell, per-side expansions for placement refinement (§4.3).

    Each channel's required width (Eqn 22) is split half-and-half between
    its two bounding cell edges; a cell side adjacent to several channels
    takes the widest requirement.
    """
    densities = region_densities(graph, routes)
    expansions: Dict[str, Dict[str, float]] = {}
    for region in graph.regions:
        density = densities.get(region.index, 0)
        half = required_channel_width(density, track_spacing) / 2.0
        for ref in (region.side_a, region.side_b):
            if ref.cell == CORE_BOUNDARY:
                continue
            sides = expansions.setdefault(ref.cell, {})
            sides[ref.edge.side] = max(sides.get(ref.edge.side, 0.0), half)
    return expansions
