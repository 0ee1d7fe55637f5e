"""Uniform-grid spatial index over axis-aligned bounding boxes.

The stage-1/stage-2 annealers attempt hundreds of thousands of moves;
each move must only pay for the cells it can actually interact with.
``UniformGridIndex`` is the broad phase that makes that possible: every
cell's *expanded* bounding box is binned into a uniform grid, and a
query returns the occupants of the bins a box covers — a guaranteed
superset of the boxes that intersect it (two intersecting boxes share a
common point, hence a common bin).  The narrow phase
(``TileSet.overlap_area``) then computes exact overlap for candidates
only, so the three-term cost stays identical to a from-scratch rebuild.

The grid is unbounded: bins are stored sparsely in a dict keyed by
integer bin coordinates, so items may live anywhere (cells legitimately
spill outside the target core during annealing).  Items larger than one
bin are simply registered in every bin their box covers.

:meth:`UniformGridIndex.neighbourhood` memoizes the sorted candidate
tuple of an item.  A candidate set only changes when a bin the item
occupies gains or loses an occupant, so every (re-)binning drops the
memo of each occupant of the bins it touches; a shift that stays inside
its bin range costs the memo nothing.
"""

from __future__ import annotations

from math import floor
from typing import Dict, Hashable, Iterable, Set, Tuple

from ..geometry import Rect

__all__ = ["UniformGridIndex"]

_BinRange = Tuple[int, int, int, int]


class UniformGridIndex:
    """Sparse uniform grid mapping items to the bins their bboxes cover.

    ``bin_size`` is the edge length of one square bin.  Pick it near the
    typical item size (see :meth:`for_bboxes`): much smaller and large
    items touch many bins, much larger and every bin holds many items.
    """

    __slots__ = ("bin_size", "_inv", "_bins", "_ranges", "_near")

    def __init__(self, bin_size: float) -> None:
        if not bin_size > 0.0:
            raise ValueError("bin_size must be positive")
        self.bin_size = float(bin_size)
        self._inv = 1.0 / self.bin_size
        self._bins: Dict[Tuple[int, int], Set[Hashable]] = {}
        self._ranges: Dict[Hashable, _BinRange] = {}
        #: item -> memoized ``tuple(sorted(candidates(item)))``.
        self._near: Dict[Hashable, Tuple[Hashable, ...]] = {}

    @staticmethod
    def for_bboxes(bboxes: Iterable[Rect], scale: float = 1.0) -> "UniformGridIndex":
        """A grid sized to the mean larger edge of the given boxes, so a
        typical item covers about four bins."""
        sizes = [max(b.width, b.height) for b in bboxes]
        mean = (sum(sizes) / len(sizes)) if sizes else 1.0
        return UniformGridIndex(max(mean * scale, 1e-9))

    # -- bookkeeping ----------------------------------------------------

    def bin_range(self, bbox: Rect) -> _BinRange:
        """Inclusive (bx1, by1, bx2, by2) bin-coordinate range of a box."""
        inv = self._inv
        return (
            floor(bbox.x1 * inv),
            floor(bbox.y1 * inv),
            floor(bbox.x2 * inv),
            floor(bbox.y2 * inv),
        )

    def stored_range(self, item: Hashable) -> _BinRange:
        """The bin range an item is currently registered under."""
        return self._ranges[item]

    def insert(self, item: Hashable, bbox: Rect) -> None:
        if item in self._ranges:
            raise ValueError(f"item {item!r} is already indexed")
        rng = self.bin_range(bbox)
        self._ranges[item] = rng
        bins = self._bins
        bx1, by1, bx2, by2 = rng
        for bx in range(bx1, bx2 + 1):
            for by in range(by1, by2 + 1):
                bins.setdefault((bx, by), set()).add(item)
        self._forget(rng)

    def remove(self, item: Hashable) -> None:
        rng = self._ranges.pop(item)
        self._unbin(item, rng)

    def update(self, item: Hashable, bbox: Rect) -> None:
        """Re-bin an item under its new bbox (no-op while it stays inside
        the same bin range — the common case for small displacements)."""
        self.update_coords(item, bbox.x1, bbox.y1, bbox.x2, bbox.y2)

    def update_coords(
        self, item: Hashable, x1: float, y1: float, x2: float, y2: float
    ) -> None:
        """:meth:`update` from raw coordinates — the array-core hot path
        re-bins straight from its flat bbox mirrors, skipping the ``Rect``
        construction (and its validation) entirely."""
        inv = self._inv
        new = (floor(x1 * inv), floor(y1 * inv), floor(x2 * inv), floor(y2 * inv))
        old = self._ranges.get(item)
        if old == new:
            return
        if old is not None:
            self._unbin(item, old)
        self._ranges[item] = new
        bins = self._bins
        bx1, by1, bx2, by2 = new
        for bx in range(bx1, bx2 + 1):
            for by in range(by1, by2 + 1):
                bins.setdefault((bx, by), set()).add(item)
        self._forget(new)

    def _unbin(self, item: Hashable, rng: _BinRange) -> None:
        bins = self._bins
        bx1, by1, bx2, by2 = rng
        for bx in range(bx1, bx2 + 1):
            for by in range(by1, by2 + 1):
                key = (bx, by)
                occupants = bins[key]
                occupants.discard(item)
                if not occupants:
                    del bins[key]
        self._near.pop(item, None)
        self._forget(rng)

    def _forget(self, rng: _BinRange) -> None:
        """Drop the memoized neighbourhood of every occupant of the bins
        in ``rng`` (free while nothing is memoized)."""
        near = self._near
        if not near:
            return
        bins = self._bins
        bx1, by1, bx2, by2 = rng
        for bx in range(bx1, bx2 + 1):
            for by in range(by1, by2 + 1):
                occupants = bins.get((bx, by))
                if occupants:
                    for other in occupants:
                        near.pop(other, None)

    # -- queries ---------------------------------------------------------

    def query(self, bbox: Rect) -> Set[Hashable]:
        """Every indexed item whose bbox *may* intersect the given box: a
        superset of the true intersectors (exactness invariant)."""
        out: Set[Hashable] = set()
        bins = self._bins
        bx1, by1, bx2, by2 = self.bin_range(bbox)
        for bx in range(bx1, bx2 + 1):
            for by in range(by1, by2 + 1):
                occupants = bins.get((bx, by))
                if occupants:
                    out |= occupants
        return out

    def candidates(self, item: Hashable) -> Set[Hashable]:
        """Items sharing at least one bin with ``item`` (item excluded):
        a superset of the items whose bboxes intersect item's bbox."""
        out: Set[Hashable] = set()
        bins = self._bins
        bx1, by1, bx2, by2 = self._ranges[item]
        for bx in range(bx1, bx2 + 1):
            for by in range(by1, by2 + 1):
                occupants = bins.get((bx, by))
                if occupants:
                    out |= occupants
        out.discard(item)
        return out

    def neighbourhood(self, item: Hashable) -> Tuple[Hashable, ...]:
        """``tuple(sorted(candidates(item)))``, memoized until a bin the
        item occupies gains or loses an occupant (items must be
        mutually orderable)."""
        near = self._near.get(item)
        if near is None:
            near = self._near[item] = tuple(sorted(self.candidates(item)))
        return near

    def __contains__(self, item: Hashable) -> bool:
        return item in self._ranges

    def __len__(self) -> int:
        return len(self._ranges)

    def __repr__(self) -> str:
        return (
            f"UniformGridIndex(bin_size={self.bin_size}, "
            f"{len(self._ranges)} items, {len(self._bins)} bins)"
        )
