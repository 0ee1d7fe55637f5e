"""A vertical-constraint-aware channel router.

The plain left-edge algorithm in :mod:`repro.channels.leftedge` ignores
*where* a net's pins enter the channel.  Real channels have pins on both
shores: when net T has a top pin and net B a bottom pin in the same
column, T's trunk must run on a higher track than B's or their vertical
branches would short.  These column conflicts form the vertical
constraint graph (VCG); the classical constrained left-edge algorithm
fills tracks top-down, placing only nets whose VCG predecessors are
already placed.

This is the detailed-routing model behind Eqn 22's premise ("channel
routers routinely route a channel in t <= d + 1 tracks"): for channels
whose VCG is acyclic and chains are short, the constrained left-edge
lands at t = max(density, longest VCG path), which the tests exercise.
Cyclic VCGs need doglegs, which TimberWolfMC leaves to the detailed
router; we detect and report them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

TOP, BOTTOM = "top", "bottom"


class ChannelCycleError(RuntimeError):
    """The channel's vertical constraint graph is cyclic (doglegs needed)."""


@dataclass(frozen=True)
class ChannelPin:
    """A pin entering the channel at ``column`` from one shore."""

    net: str
    column: float
    side: str

    def __post_init__(self) -> None:
        if self.side not in (TOP, BOTTOM):
            raise ValueError(f"pin side must be top or bottom, got {self.side!r}")


@dataclass
class ChannelRoute:
    """A completed channel routing."""

    tracks: Dict[str, int]  # net -> track index, 0 = topmost
    num_tracks: int
    intervals: Dict[str, Tuple[float, float]]


def net_intervals(pins: Sequence[ChannelPin]) -> Dict[str, Tuple[float, float]]:
    """Each net's trunk interval: the span of its pin columns."""
    intervals: Dict[str, Tuple[float, float]] = {}
    for pin in pins:
        lo, hi = intervals.get(pin.net, (pin.column, pin.column))
        intervals[pin.net] = (min(lo, pin.column), max(hi, pin.column))
    return intervals


def vertical_constraints(pins: Sequence[ChannelPin]) -> Dict[str, Set[str]]:
    """above[net] = nets that must run strictly below it.

    A top pin of net T and a bottom pin of net B in the same column force
    T above B (T's branch descends from the top shore, B's rises from the
    bottom; their trunks must not cross the shared column between them).
    """
    top_at: Dict[float, Set[str]] = {}
    bottom_at: Dict[float, Set[str]] = {}
    for pin in pins:
        bucket = top_at if pin.side == TOP else bottom_at
        bucket.setdefault(pin.column, set()).add(pin.net)
    above: Dict[str, Set[str]] = {}
    for column, tops in top_at.items():
        for t in tops:
            for b in bottom_at.get(column, ()):
                if t != b:
                    above.setdefault(t, set()).add(b)
    return above


def channel_density_of_pins(pins: Sequence[ChannelPin]) -> int:
    """Density of the net trunk intervals (see leftedge.channel_density)."""
    from .leftedge import ChannelSegment, channel_density

    segments = [
        ChannelSegment(net, lo, hi)
        for net, (lo, hi) in net_intervals(pins).items()
    ]
    return channel_density(segments)


def route_channel(pins: Sequence[ChannelPin]) -> ChannelRoute:
    """Constrained left-edge routing of a channel.

    Tracks are filled from the top: a net is eligible for the current
    track when every net constrained to run above it has been placed.
    Raises :class:`ChannelCycleError` when the VCG is cyclic.
    """
    intervals = net_intervals(pins)
    above = vertical_constraints(pins)
    # predecessors[net] = number of nets that must be above it.
    predecessors: Dict[str, int] = {net: 0 for net in intervals}
    for t, belows in above.items():
        for b in belows:
            predecessors[b] += 1

    unplaced = set(intervals)
    tracks: Dict[str, int] = {}
    track = 0
    while unplaced:
        eligible = sorted(
            (net for net in unplaced if predecessors[net] == 0),
            key=lambda n: intervals[n],
        )
        if not eligible:
            raise ChannelCycleError(
                f"cyclic vertical constraints among {sorted(unplaced)}"
            )
        last_hi = None
        placed_this_track: List[str] = []
        for net in eligible:
            lo, hi = intervals[net]
            if last_hi is None or lo > last_hi:
                tracks[net] = track
                placed_this_track.append(net)
                last_hi = hi
        for net in placed_this_track:
            unplaced.discard(net)
            for below in above.get(net, ()):
                predecessors[below] -= 1
        track += 1
    return ChannelRoute(tracks=tracks, num_tracks=track, intervals=intervals)


def validate_route(pins: Sequence[ChannelPin], route: ChannelRoute) -> List[str]:
    """Return human-readable violations (empty when the routing is legal)."""
    problems: List[str] = []
    # Trunk overlaps on a shared track.
    by_track: Dict[int, List[str]] = {}
    for net, track in route.tracks.items():
        by_track.setdefault(track, []).append(net)
    for track, nets in by_track.items():
        spans = sorted((route.intervals[n], n) for n in nets)
        for ((l1, h1), n1), ((l2, h2), n2) in zip(spans, spans[1:]):
            if l2 <= h1:
                problems.append(
                    f"track {track}: nets {n1} and {n2} overlap"
                )
    # Vertical constraints respected.
    for t, belows in vertical_constraints(pins).items():
        for b in belows:
            if route.tracks[t] >= route.tracks[b]:
                problems.append(
                    f"constraint violated: {t} must be above {b}"
                )
    return problems
