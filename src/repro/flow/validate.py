"""Detailed-routability validation of a finished flow.

The paper's headline claim is that TimberWolfMC placements "require very
little placement modification during detailed routing" — i.e. when a
channel router finally runs, each channel fits in the width the flow
reserved.  This module closes that loop without a full detailed router:
for every critical region of the final placement it

1. collects the channel's pin columns from the global routes (each net
   crossing the channel contributes entry/exit columns; pins on the
   bounding cell edges contribute their projections),
2. runs the VCG-constrained left-edge channel router on them, and
3. compares the tracks it needed against the tracks the region's width
   provides.

The resulting :class:`RoutabilityReport` is the reproduction's analogue
of "did detailed routing fit": the fraction of channels that fit, and
the worst shortfall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..channels import (
    ChannelCycleError,
    ChannelGraph,
    ChannelPin,
    CriticalRegion,
    route_channel,
)
from ..geometry import Rect


@dataclass
class ChannelCheck:
    """Routability of one channel."""

    region_index: int
    cells: Tuple[str, str]
    tracks_needed: Optional[int]  # None when the VCG was cyclic
    tracks_available: int
    nets: int

    @property
    def fits(self) -> bool:
        return self.tracks_needed is not None and (
            self.tracks_needed <= self.tracks_available
        )

    @property
    def shortfall(self) -> int:
        if self.tracks_needed is None:
            return 0
        return max(0, self.tracks_needed - self.tracks_available)


@dataclass
class RoutabilityReport:
    """Aggregate detailed-routability of a placement."""

    checks: List[ChannelCheck] = field(default_factory=list)
    cyclic_channels: int = 0

    @property
    def num_channels(self) -> int:
        return len(self.checks)

    @property
    def num_routed_channels(self) -> int:
        return sum(1 for c in self.checks if c.nets > 0)

    @property
    def num_fitting(self) -> int:
        return sum(1 for c in self.checks if c.fits)

    @property
    def fit_fraction(self) -> float:
        routed = [c for c in self.checks if c.nets > 0]
        if not routed:
            return 1.0
        return sum(1 for c in routed if c.fits) / len(routed)

    @property
    def worst_shortfall(self) -> int:
        return max((c.shortfall for c in self.checks), default=0)

    def summary(self) -> str:
        return (
            f"{self.num_fitting}/{self.num_routed_channels} routed channels "
            f"fit their reserved width "
            f"(fit fraction {self.fit_fraction:.2f}, worst shortfall "
            f"{self.worst_shortfall} tracks, {self.cyclic_channels} cyclic)"
        )


def _channel_axis_coords(region: CriticalRegion) -> Tuple[int, int]:
    """(along, across) coordinate indices for a region's axis."""
    # A vertical channel runs in y: columns are y coordinates.
    return (1, 0) if region.axis == "vertical" else (0, 1)


def channel_pins_from_routes(
    graph: ChannelGraph,
    region: CriticalRegion,
    routes: Dict[str, List[Tuple[int, int]]],
) -> List[ChannelPin]:
    """Build the channel-router instance for one critical region.

    Every route edge whose L-path crosses the region contributes the
    crossing positions as pin columns; which shore (top/bottom in channel
    coordinates) is taken from which side of the channel centerline the
    endpoint lies on.
    """
    along, across = _channel_axis_coords(region)
    center_across = region.center[across]
    pins: List[ChannelPin] = []
    lo = region.rect.y1 if region.axis == "vertical" else region.rect.x1
    hi = region.rect.y2 if region.axis == "vertical" else region.rect.x2

    for net, edges in routes.items():
        for u, v in edges:
            p = graph.positions[u]
            q = graph.positions[v]
            for point in (p, q):
                column = point[along]
                if lo <= column <= hi and _near_region(region.rect, point):
                    side = "top" if point[across] >= center_across else "bottom"
                    pins.append(ChannelPin(net, column, side))
    return _dedupe(pins)


def _near_region(rect: Rect, point: Tuple[float, float]) -> bool:
    """Is the graph node close enough to the channel to enter it?"""
    margin = max(rect.width, rect.height)
    return rect.expanded_uniform(margin).contains_point(*point)


def _dedupe(pins: List[ChannelPin]) -> List[ChannelPin]:
    seen = set()
    out = []
    for pin in pins:
        key = (pin.net, round(pin.column, 6), pin.side)
        if key not in seen:
            seen.add(key)
            out.append(pin)
    return out


def check_routability(
    graph: ChannelGraph,
    routes: Dict[str, List[Tuple[int, int]]],
    track_spacing: float,
) -> RoutabilityReport:
    """Run the channel router over every critical region of a placement."""
    report = RoutabilityReport()
    for region in graph.regions:
        pins = channel_pins_from_routes(graph, region, routes)
        nets = len({p.net for p in pins})
        available = region.capacity(track_spacing)
        if not pins:
            report.checks.append(
                ChannelCheck(region.index, region.cells(), 0, available, 0)
            )
            continue
        try:
            routed = route_channel(pins)
            needed: Optional[int] = routed.num_tracks
        except ChannelCycleError:
            needed = None
            report.cyclic_channels += 1
        report.checks.append(
            ChannelCheck(region.index, region.cells(), needed, available, nets)
        )
    return report


def validate_result(result, seed: int = 0) -> RoutabilityReport:
    """Routability report for a completed :class:`TimberWolfResult`.

    Channels are re-extracted and nets re-routed on the *final* placement
    (the stored refinement pass reflects the placement before its last
    anneal), so the report judges exactly what would go to detailed
    routing.
    """
    import random

    from ..placement.refine import define_and_route

    if result.refinement is None or not result.refinement.passes:
        raise ValueError("the flow ran without refinement; nothing to validate")
    graph, routing = define_and_route(
        result.circuit, result.state, result.config, random.Random(seed)
    )
    return check_routability(
        graph,
        {net: list(edges) for net, edges in routing.routes.items()},
        result.circuit.track_spacing,
    )
