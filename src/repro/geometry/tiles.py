"""Rectilinear shapes stored as unions of non-overlapping rectangular tiles.

The paper represents "the area occupied by each rectilinear cell ... as a
set of one or more non-overlapping rectangular tiles" (§2.2).  ``TileSet``
is that representation, together with the operations the placement and
channel-definition algorithms need:

* overlap area between two tile sets (the O(i, j) of Eqn 8),
* per-edge outward expansion (the dynamic interconnect-area border),
* transformation through the eight orientations,
* extraction of the boundary edges of the union (used by the channel
  definition algorithm of §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from . import orientation as ori
from .rect import Rect, interval_overlap

#: Outward normal directions for boundary edges.
LEFT, RIGHT, BOTTOM, TOP = "left", "right", "bottom", "top"

_VERTICAL_SIDES = (LEFT, RIGHT)
_HORIZONTAL_SIDES = (BOTTOM, TOP)


@dataclass(frozen=True)
class BoundaryEdge:
    """One maximal axis-aligned segment of a tile-union boundary.

    ``side`` names the outward normal direction.  For a vertical edge
    (side left/right) ``position`` is its x coordinate and ``lo``/``hi``
    bound its y span; for a horizontal edge the roles are exchanged.
    """

    side: str
    position: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.side not in (LEFT, RIGHT, BOTTOM, TOP):
            raise ValueError(f"bad side {self.side!r}")
        if self.lo > self.hi:
            raise ValueError("malformed boundary edge span")

    @property
    def is_vertical(self) -> bool:
        return self.side in _VERTICAL_SIDES

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Tuple[float, float]:
        mid = (self.lo + self.hi) / 2.0
        if self.is_vertical:
            return (self.position, mid)
        return (mid, self.position)

    def translated(self, dx: float, dy: float) -> "BoundaryEdge":
        if self.is_vertical:
            return BoundaryEdge(self.side, self.position + dx, self.lo + dy, self.hi + dy)
        return BoundaryEdge(self.side, self.position + dy, self.lo + dx, self.hi + dx)


def _subtract_intervals(
    lo: float, hi: float, holes: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Remove the (possibly overlapping) holes from [lo, hi]."""
    if not holes:
        return [(lo, hi)]
    holes = sorted(holes)
    result: List[Tuple[float, float]] = []
    cursor = lo
    for h_lo, h_hi in holes:
        if h_hi <= cursor:
            continue
        if h_lo > hi:
            break
        if h_lo > cursor:
            result.append((cursor, min(h_lo, hi)))
        cursor = max(cursor, h_hi)
        if cursor >= hi:
            break
    if cursor < hi:
        result.append((cursor, hi))
    return [(a, b) for a, b in result if b > a]


def tile_overlap(
    a: Sequence[Tuple[float, float, float, float]],
    b: Sequence[Tuple[float, float, float, float]],
) -> float:
    """:meth:`TileSet.overlap_area`'s narrow phase over flat
    (x1, y1, x2, y2) tile tuples, ``a`` outermost, for the placement
    kernels that keep tiles as tuples.  A skipped term is the 0.0 that
    ``Rect.overlap_area`` returns, and 0.0 + w * h is w * h, so a
    single-tile pair also matches the method's fast path."""
    total = 0.0
    for tx1, ty1, tx2, ty2 in a:
        for ux1, uy1, ux2, uy2 in b:
            w = min(tx2, ux2) - max(tx1, ux1)
            if w <= 0.0:
                continue
            h = min(ty2, uy2) - max(ty1, uy1)
            if h <= 0.0:
                continue
            total += w * h
    return total


class TileSet:
    """An immutable union of non-overlapping rectangles.

    Coordinates are cell-local.  On construction the tiles are validated
    to be pairwise non-overlapping (touching is fine) and, for multi-tile
    shapes, edge-connected — a disconnected "cell" is almost certainly an
    input error.
    """

    __slots__ = ("_tiles", "_bbox", "_area")

    def __init__(self, tiles: Iterable[Rect], check_connected: bool = True):
        tile_list = tuple(tiles)
        if not tile_list:
            raise ValueError("a TileSet needs at least one tile")
        for t in tile_list:
            if t.area <= 0:
                raise ValueError(f"tile with non-positive area: {t}")
        for i in range(len(tile_list)):
            for j in range(i + 1, len(tile_list)):
                if tile_list[i].intersects(tile_list[j]):
                    raise ValueError(
                        f"tiles {i} and {j} overlap: {tile_list[i]} / {tile_list[j]}"
                    )
        if check_connected and len(tile_list) > 1:
            _check_connected(tile_list)
        self._tiles = tile_list
        self._bbox = Rect.bounding(tile_list)
        self._area = sum(t.area for t in tile_list)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rectangle(width: float, height: float) -> "TileSet":
        """A single rectangular tile centered at the origin."""
        return TileSet([Rect.from_center(0.0, 0.0, width, height)])

    @staticmethod
    def l_shape(width: float, height: float, notch_w: float, notch_h: float) -> "TileSet":
        """An L-shaped cell: a width x height box with its upper-right
        notch_w x notch_h corner removed, then re-centered at the origin."""
        if notch_w >= width or notch_h >= height:
            raise ValueError("notch must be strictly smaller than the cell")
        lower = Rect(0.0, 0.0, width, height - notch_h)
        upper = Rect(0.0, height - notch_h, width - notch_w, height)
        return TileSet([lower, upper]).recentered()

    @staticmethod
    def t_shape(width: float, height: float, stem_w: float, cap_h: float) -> "TileSet":
        """A T-shaped cell: a full-width cap of height cap_h over a centered
        stem, re-centered at the origin."""
        if stem_w >= width or cap_h >= height:
            raise ValueError("stem/cap must be strictly smaller than the cell")
        x0 = (width - stem_w) / 2.0
        stem = Rect(x0, 0.0, x0 + stem_w, height - cap_h)
        cap = Rect(0.0, height - cap_h, width, height)
        return TileSet([stem, cap]).recentered()

    # -- accessors -------------------------------------------------------

    @property
    def tiles(self) -> Tuple[Rect, ...]:
        return self._tiles

    @property
    def bbox(self) -> Rect:
        return self._bbox

    @property
    def area(self) -> float:
        return self._area

    @property
    def width(self) -> float:
        return self._bbox.width

    @property
    def height(self) -> float:
        return self._bbox.height

    def __len__(self) -> int:
        return len(self._tiles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TileSet):
            return NotImplemented
        return set(self._tiles) == set(other._tiles)

    def __hash__(self) -> int:
        return hash(frozenset(self._tiles))

    def __repr__(self) -> str:
        return f"TileSet({len(self._tiles)} tiles, bbox={self._bbox})"

    # -- geometry --------------------------------------------------------

    def contains_point(self, x: float, y: float) -> bool:
        return any(t.contains_point(x, y) for t in self._tiles)

    def overlap_area(self, other: "TileSet") -> float:
        """The paper's O(i, j): summed common area over all tile pairs (Eqn 8)."""
        # Broad-phase reject: disjoint bounding boxes share no area.
        if not self._bbox.intersects(other._bbox):
            return 0.0
        a, b = self._tiles, other._tiles
        if len(a) == 1 and len(b) == 1:
            # Rectangular cells dominate real netlists; skip the loop.
            return a[0].overlap_area(b[0])
        total = 0.0
        for ti in a:
            for tj in b:
                total += ti.overlap_area(tj)
        return total

    def recentered(self) -> "TileSet":
        """Translate so the bounding-box center sits at the origin."""
        c = self._bbox.center
        return self.translated(-c.x, -c.y)

    def translated(self, dx: float, dy: float) -> "TileSet":
        # Translation preserves whatever invariants the input satisfied
        # (expanded tile unions legitimately self-overlap), so the
        # validating constructor is bypassed.
        rects = [t.translated(dx, dy) for t in self._tiles]
        out = TileSet.__new__(TileSet)
        out._tiles = tuple(rects)
        out._bbox = self._bbox.translated(dx, dy)
        out._area = self._area
        return out

    def transformed(self, orientation: int) -> "TileSet":
        """Apply one of the eight orientations about the origin."""
        tiles = self._tiles
        if len(tiles) == 1:
            # Single-rect cells re-orient on every aspect/rotation move;
            # a lone transformed tile needs no validation pass.
            only = ori.transform_rect(orientation, tiles[0])
            out = TileSet.__new__(TileSet)
            out._tiles = (only,)
            out._bbox = only
            out._area = only.area
            return out
        return TileSet(
            [ori.transform_rect(orientation, t) for t in self._tiles],
            check_connected=False,
        )

    def expanded_uniform(self, margin: float) -> "TileSet":
        """Expand every tile outward by ``margin`` on all four sides.

        Expanded tiles may overlap each other; since expansion only feeds
        the overlap-area penalty (an upper-bound-ish estimate is fine and
        is what the original implementation computed tile-by-tile), the
        non-overlap invariant is deliberately not enforced here.
        """
        if margin < 0:
            raise ValueError("margin must be non-negative")
        rects = [t.expanded_uniform(margin) for t in self._tiles]
        out = TileSet.__new__(TileSet)
        out._tiles = tuple(rects)
        out._bbox = Rect.bounding(rects)
        out._area = sum(r.area for r in rects)
        return out

    def translated_expanded(
        self,
        dx: float,
        dy: float,
        left: float,
        bottom: float,
        right: float,
        top: float,
    ) -> "TileSet":
        """``translated(dx, dy).expanded_per_side(left, bottom, right, top)``
        without materializing the intermediate tile set (the annealing hot
        path builds one expanded set per move); the arithmetic composes
        the two steps verbatim, so the result is bit-identical."""
        if min(left, bottom, right, top) < 0:
            raise ValueError("expansions must be non-negative")
        rects = [
            Rect(
                (t.x1 + dx) - left,
                (t.y1 + dy) - bottom,
                (t.x2 + dx) + right,
                (t.y2 + dy) + top,
            )
            for t in self._tiles
        ]
        out = TileSet.__new__(TileSet)
        out._tiles = tuple(rects)
        if len(rects) == 1:
            only = rects[0]
            out._bbox = only
            out._area = only.area
        else:
            out._bbox = Rect.bounding(rects)
            out._area = sum(r.area for r in rects)
        return out

    def expanded_per_side(
        self, left: float, bottom: float, right: float, top: float
    ) -> "TileSet":
        """Expand every tile outward by per-side amounts (dynamic estimator)."""
        if min(left, bottom, right, top) < 0:
            raise ValueError("expansions must be non-negative")
        rects = [t.expanded(left, bottom, right, top) for t in self._tiles]
        out = TileSet.__new__(TileSet)
        out._tiles = tuple(rects)
        if len(rects) == 1:
            # Single-tile fast path (this runs on every annealing move).
            only = rects[0]
            out._bbox = only
            out._area = only.area
        else:
            out._bbox = Rect.bounding(rects)
            out._area = sum(r.area for r in rects)
        return out

    # -- boundary extraction ----------------------------------------------

    def boundary_edges(self) -> List[BoundaryEdge]:
        """Maximal boundary segments of the tile union with outward normals.

        A segment of a tile edge lies on the union boundary exactly where
        the region immediately outside that edge is not covered by a
        sibling tile.  Segments from different tiles that are collinear
        and contiguous are merged into maximal edges.
        """
        raw: List[BoundaryEdge] = []
        for t in self._tiles:
            raw.extend(self._tile_boundary(t, LEFT))
            raw.extend(self._tile_boundary(t, RIGHT))
            raw.extend(self._tile_boundary(t, BOTTOM))
            raw.extend(self._tile_boundary(t, TOP))
        return _merge_collinear(raw)

    def _tile_boundary(self, tile: Rect, side: str) -> List[BoundaryEdge]:
        if side == LEFT:
            pos, lo, hi = tile.x1, tile.y1, tile.y2
        elif side == RIGHT:
            pos, lo, hi = tile.x2, tile.y1, tile.y2
        elif side == BOTTOM:
            pos, lo, hi = tile.y1, tile.x1, tile.x2
        else:
            pos, lo, hi = tile.y2, tile.x1, tile.x2

        holes: List[Tuple[float, float]] = []
        for other in self._tiles:
            if other is tile:
                continue
            if side == LEFT and other.x1 < pos <= other.x2:
                holes.append((other.y1, other.y2))
            elif side == RIGHT and other.x1 <= pos < other.x2:
                holes.append((other.y1, other.y2))
            elif side == BOTTOM and other.y1 < pos <= other.y2:
                holes.append((other.x1, other.x2))
            elif side == TOP and other.y1 <= pos < other.y2:
                holes.append((other.x1, other.x2))
        return [
            BoundaryEdge(side, pos, a, b)
            for a, b in _subtract_intervals(lo, hi, holes)
        ]

    def boundary_length(self) -> float:
        """Perimeter of the tile union."""
        return sum(e.length for e in self.boundary_edges())


def _merge_collinear(edges: List[BoundaryEdge]) -> List[BoundaryEdge]:
    groups: Dict[Tuple[str, float], List[BoundaryEdge]] = {}
    for e in edges:
        groups.setdefault((e.side, e.position), []).append(e)
    merged: List[BoundaryEdge] = []
    for (side, pos), group in groups.items():
        group.sort(key=lambda e: e.lo)
        cur_lo, cur_hi = group[0].lo, group[0].hi
        for e in group[1:]:
            if e.lo <= cur_hi:
                cur_hi = max(cur_hi, e.hi)
            else:
                merged.append(BoundaryEdge(side, pos, cur_lo, cur_hi))
                cur_lo, cur_hi = e.lo, e.hi
        merged.append(BoundaryEdge(side, pos, cur_lo, cur_hi))
    merged.sort(key=lambda e: (e.side, e.position, e.lo))
    return merged


def _check_connected(tiles: Sequence[Rect]) -> None:
    """Raise if the tiles do not form a single edge-connected component."""
    n = len(tiles)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            a, b = tiles[i], tiles[j]
            touch_x = (
                (a.x2 == b.x1 or b.x2 == a.x1)
                and interval_overlap(a.y1, a.y2, b.y1, b.y2) > 0
            )
            touch_y = (
                (a.y2 == b.y1 or b.y2 == a.y1)
                and interval_overlap(a.x1, a.x2, b.x1, b.x2) > 0
            )
            if touch_x or touch_y:
                ra, rb = find(i), find(j)
                parent[ra] = rb
    roots = {find(i) for i in range(n)}
    if len(roots) > 1:
        raise ValueError(f"tiles form {len(roots)} disconnected components")
