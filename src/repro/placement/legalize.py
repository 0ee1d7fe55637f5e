"""Residual-overlap removal before channel definition.

Stage 1 ends with a small residual cell overlap (the paper tracks this
quantity explicitly in §3.2.2-3.2.3).  The channel-definition algorithm
of §4.1, however, needs a placement in which cell interiors are disjoint
— a channel is a *rectangle of empty space* between two facing edges.
This module provides the small constraint-resolution shove pass that any
practical implementation needs between the stages: overlapping cells are
pushed apart along the axis of least penetration until the placement is
legal (cells may spill slightly past the target core; the chip outline
simply grows, which the area metrics reflect).

Only the *actual* cell geometry is separated here; the interconnect
margins may legitimately abut (that is what a shared channel is).
``min_gap`` optionally keeps a minimum spacing between facing cell edges
so that every adjacency still admits a channel.
"""

from __future__ import annotations

from typing import List, Tuple

from ..geometry import Rect, TileSet
from .spatial import UniformGridIndex
from .state import PlacementState


def _penetration(a: Rect, b: Rect) -> Tuple[float, float]:
    """Overlap extents (dx, dy) of two rects' bounding boxes."""
    dx = min(a.x2, b.x2) - max(a.x1, b.x1)
    dy = min(a.y2, b.y2) - max(a.y1, b.y1)
    return (dx, dy)


def remove_overlaps(
    state: PlacementState,
    max_passes: int = 400,
    min_gap: float = 0.0,
    tolerance: float = 1e-9,
    use_expanded: bool = False,
) -> float:
    """Shove cells apart until no two cell interiors overlap.

    With ``use_expanded`` the *margin-carrying* shapes are separated
    instead of the raw cell geometry — the §4.3 spacing step: each cell
    edge carries half its channels' required width, so separating the
    expanded shapes provides exactly the space the routed design needs
    ("if insufficient space was allocated, additional space is provided
    as required").  Only valid in static-expansion (stage-2) mode, where
    margins do not depend on position.

    Returns the remaining overlap area of the separated shapes (0.0 on
    success).  The state's caches are rebuilt before returning.
    """
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    if use_expanded and state.dynamic_expansion:
        raise ValueError(
            "use_expanded requires static expansions (dynamic margins move "
            "with the cell, so separating them is ill-defined)"
        )
    n = len(state.names)
    # Work on a local copy of shapes; records are updated in place.
    if use_expanded:
        shapes: List[TileSet] = [
            state._expanded_shape(i, state._world_shape(i)) for i in range(n)
        ]
    else:
        shapes = [state._world_shape(i) for i in range(n)]
    movable = state.movable
    gap = min_gap / 2.0
    # Each shape padded by the half-gap, rebuilt by ``_shift_cell`` when
    # the cell moves (the unpadded list itself when there is no gap).
    padded = shapes if gap == 0 else [s.expanded_uniform(gap) for s in shapes]

    # Broad phase: bboxes (grown by the half-gap pad, so padded shapes
    # that intersect are guaranteed to share a bin) live in a uniform
    # grid kept current as cells shift.  A pass that shoves nothing has
    # inspected a superset of every overlapping pair, so the legality
    # guarantee on exit is identical to the all-pairs loop.
    grid = UniformGridIndex.for_bboxes([s.bbox for s in shapes])
    for i in range(n):
        grid.insert(i, shapes[i].bbox.expanded_uniform(gap))

    for _ in range(max_passes):
        moved = False
        for i in range(n):
            for j in sorted(grid.candidates(i)):
                if j < i:
                    continue  # pair handled from the lower index
                pad_i = padded[i]
                pad_j = padded[j]
                if not pad_i.bbox.intersects(pad_j.bbox):
                    continue
                if pad_i.overlap_area(pad_j) <= tolerance:
                    continue
                if not movable[i] and not movable[j]:
                    continue  # two pre-placed cells: their overlap is the
                              # designer's responsibility, not ours
                dx, dy = _penetration(pad_i.bbox, pad_j.bbox)
                # Push along the axis of least penetration, half each way
                # (a pre-placed cell stays put; its partner absorbs the
                # whole shift).
                share_i = 0.0 if not movable[i] else (1.0 if movable[j] else 2.0)
                share_j = 0.0 if not movable[j] else (1.0 if movable[i] else 2.0)
                if dx <= dy:
                    shift = dx / 2.0 + tolerance
                    sign = 1.0 if shapes[i].bbox.center.x <= shapes[j].bbox.center.x else -1.0
                    _shift_cell(state, shapes, padded, grid, gap, i, -sign * shift * share_i, 0.0)
                    _shift_cell(state, shapes, padded, grid, gap, j, sign * shift * share_j, 0.0)
                else:
                    shift = dy / 2.0 + tolerance
                    sign = 1.0 if shapes[i].bbox.center.y <= shapes[j].bbox.center.y else -1.0
                    _shift_cell(state, shapes, padded, grid, gap, i, 0.0, -sign * shift * share_i)
                    _shift_cell(state, shapes, padded, grid, gap, j, 0.0, sign * shift * share_j)
                moved = True
        if not moved:
            break

    state.rebuild()
    return raw_overlap(shapes, tolerance)


def _shift_cell(
    state: PlacementState,
    shapes: List[TileSet],
    padded: List[TileSet],
    grid: UniformGridIndex,
    gap: float,
    idx: int,
    dx: float,
    dy: float,
) -> None:
    record = state.records[idx]
    record.center = (record.center[0] + dx, record.center[1] + dy)
    shapes[idx] = shapes[idx].translated(dx, dy)
    if gap:
        # Re-pad rather than translate the padded shape: (x + dx) - g
        # and (x - g) + dx can differ in the last bit.
        padded[idx] = shapes[idx].expanded_uniform(gap)
    grid.update(idx, shapes[idx].bbox.expanded_uniform(gap))


def raw_overlap(shapes: List[TileSet], tolerance: float = 1e-9) -> float:
    """Total pairwise overlap area of the given (unexpanded) shapes."""
    total = 0.0
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            if shapes[i].bbox.intersects(shapes[j].bbox):
                area = shapes[i].overlap_area(shapes[j])
                if area > tolerance:
                    total += area
    return total
