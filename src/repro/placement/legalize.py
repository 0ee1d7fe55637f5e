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

The shove loop works on flat float tuples, not ``Rect``/``TileSet``
objects: each cell keeps its tiles and bbox, unpadded and padded by the
half-gap, and a shift repeats the arithmetic of ``TileSet.translated``
(tiles and the stored bbox translated) and ``TileSet.expanded_uniform``
(padded tiles re-padded from the shifted ones, their bbox re-bounded),
so every coordinate is the float the object operations would produce.
"""

from __future__ import annotations

import warnings
from typing import List, Sequence, Tuple

from ..geometry.tiles import TileSet, tile_overlap
from .spatial import UniformGridIndex
from .state import PlacementState

Box = Tuple[float, float, float, float]


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
    success; see :func:`warn_residual`).  The state's caches are rebuilt
    before returning.
    """
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    if use_expanded and state.dynamic_expansion:
        raise ValueError(
            "use_expanded requires static expansions (dynamic margins move "
            "with the cell, so separating them is ill-defined)"
        )
    n = len(state.names)
    if use_expanded:
        shapes = [state._expanded_shape(i, state._world_shape(i)) for i in range(n)]
    else:
        shapes = [state._world_shape(i) for i in range(n)]
    tiles: List[Tuple[Box, ...]] = [_flat(s) for s in shapes]
    boxes: List[Box] = [tuple(s.bbox) for s in shapes]
    gap = min_gap / 2.0
    # Each shape padded by the half-gap, re-padded when the cell moves
    # (the unpadded lists themselves when there is no gap).
    if gap:
        ptiles = [_padded(t, gap) for t in tiles]
        pboxes = [_bounding(t) for t in ptiles]
    else:
        ptiles, pboxes = tiles, boxes
    records = state.records
    movable = state.movable

    # Broad phase: bboxes (grown by the half-gap pad, so padded shapes
    # that intersect are guaranteed to share a bin) live in a uniform
    # grid kept current as cells shift.  A pass that shoves nothing has
    # inspected a superset of every overlapping pair, so the legality
    # guarantee on exit is identical to the all-pairs loop.
    grid = UniformGridIndex.for_bboxes([s.bbox for s in shapes])
    for i in range(n):
        grid.insert(i, shapes[i].bbox.expanded_uniform(gap))

    def shift(idx: int, dx: float, dy: float) -> None:
        cx, cy = records[idx].center
        records[idx].center = (cx + dx, cy + dy)
        tiles[idx] = shifted = tuple(
            (x1 + dx, y1 + dy, x2 + dx, y2 + dy) for x1, y1, x2, y2 in tiles[idx]
        )
        x1, y1, x2, y2 = boxes[idx]
        boxes[idx] = x1, y1, x2, y2 = (x1 + dx, y1 + dy, x2 + dx, y2 + dy)
        if gap:
            # Re-pad rather than translate the padded shape: (x + dx) - g
            # and (x - g) + dx can differ in the last bit.
            ptiles[idx] = padded = _padded(shifted, gap)
            pboxes[idx] = _bounding(padded)
        grid.update_coords(idx, x1 - gap, y1 - gap, x2 + gap, y2 + gap)

    for _ in range(max_passes):
        moved = False
        for i in range(n):
            for j in grid.neighbourhood(i):
                if j < i:
                    continue  # pair handled from the lower index
                ix1, iy1, ix2, iy2 = pboxes[i]
                jx1, jy1, jx2, jy2 = pboxes[j]
                if not (ix1 < jx2 and jx1 < ix2 and iy1 < jy2 and jy1 < iy2):
                    continue
                if tile_overlap(ptiles[i], ptiles[j]) <= tolerance:
                    continue
                if not movable[i] and not movable[j]:
                    continue  # two pre-placed cells: their overlap is the
                              # designer's responsibility, not ours
                # Push along the axis of least penetration, half each way
                # (a pre-placed cell stays put; its partner absorbs the
                # whole shift).
                dx = min(ix2, jx2) - max(ix1, jx1)
                dy = min(iy2, jy2) - max(iy1, jy1)
                share_i = 0.0 if not movable[i] else (1.0 if movable[j] else 2.0)
                share_j = 0.0 if not movable[j] else (1.0 if movable[i] else 2.0)
                bi = boxes[i]
                bj = boxes[j]
                if dx <= dy:
                    step = dx / 2.0 + tolerance
                    before = (bi[0] + bi[2]) / 2.0 <= (bj[0] + bj[2]) / 2.0
                    sign = 1.0 if before else -1.0
                    shift(i, -sign * step * share_i, 0.0)
                    shift(j, sign * step * share_j, 0.0)
                else:
                    step = dy / 2.0 + tolerance
                    before = (bi[1] + bi[3]) / 2.0 <= (bj[1] + bj[3]) / 2.0
                    sign = 1.0 if before else -1.0
                    shift(i, 0.0, -sign * step * share_i)
                    shift(j, 0.0, sign * step * share_j)
                moved = True
        if not moved:
            break

    state.rebuild()
    return _residual(tiles, boxes, tolerance)


def warn_residual(residual: float, where: str) -> None:
    """Warn that a :func:`remove_overlaps` call ``where`` ran out of
    passes with shapes still overlapping."""
    if residual > 0:
        warnings.warn(
            f"legalization left {residual:.3g} units^2 of overlap {where}; "
            "channels may be missing where shapes still overlap",
            stacklevel=3,
        )


def raw_overlap(shapes: List[TileSet], tolerance: float = 1e-9) -> float:
    """Total pairwise overlap area of the given shapes: cell shapes, or
    the margin-carrying expanded shapes of the §4.3 spacing step."""
    return _residual(
        [_flat(s) for s in shapes], [tuple(s.bbox) for s in shapes], tolerance
    )


def _flat(shape: TileSet) -> Tuple[Box, ...]:
    """A shape's tiles as float tuples."""
    return tuple(tuple(t) for t in shape.tiles)


def _padded(tiles: Sequence[Box], gap: float) -> Tuple[Box, ...]:
    """``Rect.expanded_uniform`` of every tile."""
    return tuple((x1 - gap, y1 - gap, x2 + gap, y2 + gap) for x1, y1, x2, y2 in tiles)


def _bounding(tiles: Sequence[Box]) -> Box:
    """``Rect.bounding`` of the tiles."""
    return (
        min(t[0] for t in tiles),
        min(t[1] for t in tiles),
        max(t[2] for t in tiles),
        max(t[3] for t in tiles),
    )


def _residual(
    tiles: List[Tuple[Box, ...]], boxes: List[Box], tolerance: float
) -> float:
    """Summed pairwise overlap above ``tolerance``, in index order."""
    total = 0.0
    for i in range(len(tiles)):
        ax1, ay1, ax2, ay2 = boxes[i]
        for j in range(i + 1, len(tiles)):
            bx1, by1, bx2, by2 = boxes[j]
            if ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2:
                area = tile_overlap(tiles[i], tiles[j])
                if area > tolerance:
                    total += area
    return total
