"""The placement state: cell positions, caches, and the three-term cost.

This is the mutable object both annealing stages operate on.  It tracks,
incrementally:

* ``C1`` — the TEIC of Eqn 6 (weighted net spans over exact pin positions),
* ``C2`` — the overlap penalty of Eqns 7-8 over *expanded* cell tiles
  (dynamic interconnect-area borders in stage 1, static per-side
  expansions in stage 2), including overlap with the four dummy border
  cells that keep cells inside the core (footnote 16),
* ``C3`` — the pin-site capacity penalty of Eqns 10-11 for custom cells.

Moves are applied through ``move_cell`` / ``swap_cells`` /
``move_pin_group``, each of which returns the cost delta and a snapshot
token that ``restore`` undoes exactly (no float drift on rejection).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..estimator import CorePlan
from ..geometry import BOTTOM, LEFT, RIGHT, TOP, Rect, TileSet
from ..geometry import orientation as ori
from ..netlist import Circuit, CustomCell, MacroCell, Net
from .spatial import UniformGridIndex

#: Default kappa of Eqn 10 — drives pin-site overflow to zero late in stage 1.
DEFAULT_KAPPA = 5.0

#: Per-cell cap on memoized oriented shapes / pin offsets (custom-cell
#: aspect ratios are continuous, so those cache keys are unbounded).
_SHAPE_CACHE_LIMIT = 64

#: Custom-cell pin-offset combinations (sides x sites per group) are
#: larger but each entry is a handful of floats.
_PIN_CACHE_LIMIT = 512

_SIDES = (LEFT, RIGHT, BOTTOM, TOP)
_SIDE_DIRS = {LEFT: (-1.0, 0.0), RIGHT: (1.0, 0.0), BOTTOM: (0.0, -1.0), TOP: (0.0, 1.0)}


def _compute_world_side(canonical_side: str, orientation: int) -> str:
    dx, dy = _SIDE_DIRS[canonical_side]
    wx, wy = ori.transform_point(orientation, dx, dy)
    for side, (sx, sy) in _SIDE_DIRS.items():
        if (sx, sy) == (wx, wy):
            return side
    raise AssertionError("orientation must permute the four sides")


#: orientation -> {canonical side -> world side} (precomputed: the mapping
#: sits on the stage-1 hot path via the dynamic expansion).
_SIDE_MAP = tuple(
    {s: _compute_world_side(s, o) for s in _SIDES}
    for o in range(ori.N_ORIENTATIONS)
)

#: orientation -> {world side -> canonical side} (the inverse mapping).
_SIDE_MAP_INV = tuple(
    {world: canonical for canonical, world in _SIDE_MAP[o].items()}
    for o in range(ori.N_ORIENTATIONS)
)


def world_side(canonical_side: str, orientation: int) -> str:
    """The world-frame side that a canonical cell side faces after the
    orientation transform (e.g. LEFT under R90 faces BOTTOM)."""
    return _SIDE_MAP[orientation][canonical_side]


@dataclass(slots=True)
class CellRecord:
    """Mutable placement attributes of one cell."""

    center: Tuple[float, float]
    orientation: int = 0
    instance: int = 0
    aspect_ratio: Optional[float] = None
    #: custom cells: pin-group key -> (canonical side, starting site index).
    pin_sites: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    def copy(self) -> "CellRecord":
        # Manual field copy: dataclasses.replace() is measurably slower
        # and this runs inside every snapshot.
        return CellRecord(
            self.center,
            self.orientation,
            self.instance,
            self.aspect_ratio,
            dict(self.pin_sites),
        )


@dataclass(slots=True)
class _Snapshot:
    """Everything needed to restore the state after a rejected move."""

    cost_before: float
    records: Dict[int, CellRecord]
    shapes: Dict[int, TileSet]
    expanded: Dict[int, TileSet]
    pins: Dict[int, Dict[str, Tuple[float, float]]]
    net_spans: Dict[str, Tuple[float, float]]
    overlaps: Dict[Tuple[int, int], float]
    borders: Dict[int, float]
    c3: Dict[int, float]
    c1: float
    c2_raw: float
    c3_total: float
    #: False for moves that cannot change any cell geometry (pin-group
    #: reassignment): shapes, the grid, borders, and overlaps are known
    #: unchanged, so snapshot and restore skip them entirely.
    geometry: bool = True


class PlacementState:
    """Placement of a circuit inside a core region, with incremental cost."""

    def __init__(
        self,
        circuit: Circuit,
        plan: CorePlan,
        p2: float = 1.0,
        kappa: float = DEFAULT_KAPPA,
        dynamic_expansion: bool = True,
        static_expansions: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> None:
        self.circuit = circuit
        self.plan = plan
        self.core = plan.core
        self.estimator = plan.estimator
        self.p2 = p2
        self.kappa = kappa
        self.dynamic_expansion = dynamic_expansion

        self.names: List[str] = list(circuit.cells)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)

        #: Pre-placed cells (FixedPlacement) are never moved or reshaped.
        self.movable: List[bool] = [
            not circuit.cells[name].is_fixed for name in self.names
        ]
        self._is_macro: List[bool] = [
            isinstance(circuit.cells[name], MacroCell) for name in self.names
        ]

        # Static (stage-2) per-world-side expansions, name -> side -> margin.
        self._static: List[Dict[str, float]] = [
            dict((static_expansions or {}).get(name, {})) for name in self.names
        ]

        # Net membership: cell idx -> list of net names; net name -> the
        # (cell index, pin name) pairs its span is computed from.
        self._cell_nets: List[List[str]] = [[] for _ in range(n)]
        self._net_members: Dict[str, List[Tuple[int, str]]] = {}
        for net in circuit.nets.values():
            members = []
            touched = set()
            for ref in net.pins:
                idx = self.index[ref.cell]
                members.append((idx, ref.pin))
                if idx not in touched:
                    touched.add(idx)
                    self._cell_nets[idx].append(net.name)
            self._net_members[net.name] = members

        # Canonical-side pin densities for macro cells (static per instance).
        self._side_density: List[Optional[Dict[str, float]]] = [
            self._macro_side_density(i) for i in range(n)
        ]

        # Pin-group structure for custom cells: idx -> [(key, [pin names])].
        self._groups: List[List[Tuple[str, List[str]]]] = []
        for name in self.names:
            cell = circuit.cells[name]
            if isinstance(cell, CustomCell):
                groups = [
                    (key, [p.name for p in pins])
                    for key, pins in cell.pin_groups().items()
                ]
                self._groups.append(groups)
            else:
                self._groups.append([])
        # Inverse lookup, idx -> {pin name -> (group key, member index)}:
        # _group_of sits on the refresh hot path (every uncommitted pin,
        # every move), so the membership scan is precomputed once.
        self._pin_group_of: List[Dict[str, Tuple[str, int]]] = [
            {
                pin: (key, k)
                for key, members in groups
                for k, pin in enumerate(members)
            }
            for groups in self._groups
        ]

        # Border slabs (the four dummy cells of footnote 16).
        big = 10.0 * max(self.core.width, self.core.height)
        c = self.core
        self._slabs = (
            Rect(c.x1 - big, c.y1 - big, c.x1, c.y2 + big),        # left
            Rect(c.x2, c.y1 - big, c.x2 + big, c.y2 + big),        # right
            Rect(c.x1 - big, c.y1 - big, c.x2 + big, c.y1),        # bottom
            Rect(c.x1 - big, c.y2, c.x2 + big, c.y2 + big),        # top
        )

        # Placement records: default everything at the core center.
        self.records: List[CellRecord] = [self._default_record(i) for i in range(n)]

        # Memoized oriented local shapes and (macro) world-frame pin
        # offsets: a displacement changes neither, so the per-move work
        # reduces to one translation.  Keys are (instance|aspect,
        # orientation); custom-cell aspect ratios are continuous, so
        # those caches are bounded (cleared when they grow past
        # _SHAPE_CACHE_LIMIT entries).
        self._shape_cache: List[Dict[Tuple, TileSet]] = [dict() for _ in range(n)]
        self._pin_offset_cache: List[
            Dict[Tuple, Dict[str, Tuple[float, float]]]
        ] = [dict() for _ in range(n)]

        # Caches and cost accumulators, built by rebuild().
        self._shapes: List[TileSet] = [None] * n  # type: ignore[list-item]
        self._expanded: List[TileSet] = [None] * n  # type: ignore[list-item]
        self._pins: List[Dict[str, Tuple[float, float]]] = [dict() for _ in range(n)]
        self._net_spans: Dict[str, Tuple[float, float]] = {}
        self._overlaps: Dict[Tuple[int, int], float] = {}
        #: idx -> indices it currently overlaps (mirror of _overlaps, so
        #: snapshot/restore touch only actual partners).
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        #: Broad-phase index over expanded-cell bboxes (built by rebuild).
        self._grid: UniformGridIndex = UniformGridIndex(1.0)
        self._borders: List[float] = [0.0] * n
        self._c3: List[float] = [0.0] * n
        self._c1 = 0.0
        self._c2_raw = 0.0
        self._c3_total = 0.0
        self.rebuild()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _default_record(self, idx: int) -> CellRecord:
        cell = self.circuit.cells[self.names[idx]]
        if cell.fixed is not None:
            record = CellRecord(
                center=(cell.fixed.x, cell.fixed.y),
                orientation=cell.fixed.orientation,
            )
        else:
            record = CellRecord(center=(self.core.center.x, self.core.center.y))
        if isinstance(cell, CustomCell):
            record.aspect_ratio = cell.aspect.default()
            for g, (key, members) in enumerate(self._groups[idx]):
                pins = [cell.pins[m] for m in members]
                sides = frozenset.intersection(*(p.sides for p in pins))
                side = sorted(sides)[0] if sides else sorted(pins[0].sides)[0]
                record.pin_sites[key] = (side, g % cell.sites_per_edge)
        return record

    def _macro_side_density(self, idx: int) -> Optional[Dict[str, float]]:
        cell = self.circuit.cells[self.names[idx]]
        if not isinstance(cell, MacroCell):
            return None
        inst = cell.instances[0]
        edges = inst.shape.boundary_edges()
        side_len: Dict[str, float] = {s: 0.0 for s in _SIDES}
        for e in edges:
            side_len[e.side] += e.length
        counts: Dict[str, int] = {s: 0 for s in _SIDES}
        for pin in cell.pins.values():
            px, py = inst.pin_offset(pin)
            best = None
            best_d = None
            for e in edges:
                if e.is_vertical:
                    d = abs(px - e.position) + max(0.0, e.lo - py, py - e.hi)
                else:
                    d = abs(py - e.position) + max(0.0, e.lo - px, px - e.hi)
                if best_d is None or d < best_d:
                    best_d = d
                    best = e.side
            counts[best] += 1  # type: ignore[index]
        return {
            s: (counts[s] / side_len[s]) if side_len[s] > 0 else 0.0 for s in _SIDES
        }

    # ------------------------------------------------------------------
    # world-frame geometry
    # ------------------------------------------------------------------

    def cell(self, idx: int):
        return self.circuit.cells[self.names[idx]]

    def _local_shape(self, idx: int) -> TileSet:
        cell = self.cell(idx)
        record = self.records[idx]
        if isinstance(cell, MacroCell):
            return cell.instances[record.instance].shape
        assert record.aspect_ratio is not None
        return cell.shape_for(record.aspect_ratio)

    def _oriented_shape(self, idx: int) -> TileSet:
        """The cell's shape in its current orientation, origin-centered
        (memoized: a displacement changes neither input)."""
        record = self.records[idx]
        if self._is_macro[idx]:
            key: Tuple = (record.instance, record.orientation)
        else:
            key = (record.aspect_ratio, record.orientation)
        cache = self._shape_cache[idx]
        shape = cache.get(key)
        if shape is None:
            if len(cache) >= _SHAPE_CACHE_LIMIT:
                cache.clear()
            shape = self._local_shape(idx).transformed(record.orientation)
            cache[key] = shape
        return shape

    def _world_shape(self, idx: int) -> TileSet:
        return self._oriented_shape(idx).translated(*self.records[idx].center)

    def _expansions(
        self, idx: int, x1: float, y1: float, x2: float, y2: float
    ) -> Tuple[float, float, float, float]:
        """Outward (left, bottom, right, top) expansion of a cell whose
        world bbox is (x1, y1, x2, y2) — the dynamic estimator of §2.2,
        or the static table."""
        if not self.dynamic_expansion:
            static = self._static[idx]
            return (
                static.get(LEFT, 0.0),
                static.get(BOTTOM, 0.0),
                static.get(RIGHT, 0.0),
                static.get(TOP, 0.0),
            )
        densities = self._side_density[idx]
        if densities is None:
            d_left = d_bottom = d_right = d_top = None
        else:
            inverse = _SIDE_MAP_INV[self.records[idx].orientation]
            d_left = densities[inverse[LEFT]]
            d_bottom = densities[inverse[BOTTOM]]
            d_right = densities[inverse[RIGHT]]
            d_top = densities[inverse[TOP]]
        return self.estimator.side_expansions(
            x1, y1, x2, y2, d_left, d_bottom, d_right, d_top
        )

    def _expanded_shape(self, idx: int, world: TileSet) -> TileSet:
        bbox = world.bbox
        left, bottom, right, top = self._expansions(
            idx, bbox.x1, bbox.y1, bbox.x2, bbox.y2
        )
        return world.expanded_per_side(left, bottom, right, top)

    def _pin_positions(self, idx: int) -> Dict[str, Tuple[float, float]]:
        record = self.records[idx]
        cx, cy = record.center
        if self._is_macro[idx]:
            # Macro pin offsets in the world frame depend only on the
            # instance and orientation — memoized, so a displacement
            # costs one add per pin.
            key = (record.instance, record.orientation)
            offsets = self._pin_offset_cache[idx].get(key)
            if offsets is None:
                cell = self.cell(idx)
                inst = cell.instances[record.instance]
                offsets = {}
                for pin in cell.pins.values():
                    lx, ly = inst.pin_offset(pin)
                    offsets[pin.name] = ori.transform_point(
                        record.orientation, lx, ly
                    )
                self._pin_offset_cache[idx][key] = offsets
            return {
                name: (cx + wx, cy + wy) for name, (wx, wy) in offsets.items()
            }
        cell = self.cell(idx)
        assert isinstance(cell, CustomCell) and record.aspect_ratio is not None
        # Custom-cell offsets depend on (aspect, orientation, site
        # assignment); the sites are discrete, so the combinations recur
        # heavily during pin-group annealing.  pin_sites keys are fixed
        # after construction, so the value tuple is a stable signature.
        sig = (
            record.aspect_ratio,
            record.orientation,
            tuple(record.pin_sites.values()),
        )
        cache = self._pin_offset_cache[idx]
        offsets = cache.get(sig)
        if offsets is None:
            if len(cache) >= _PIN_CACHE_LIMIT:
                cache.clear()
            width, height = cell.dimensions(record.aspect_ratio)
            nsites = cell.sites_per_edge
            offsets = {}
            for pin in cell.pins.values():
                if pin.is_committed:
                    lx, ly = pin.offset  # type: ignore[misc]
                    offsets[pin.name] = ori.transform_point(
                        record.orientation, lx, ly
                    )
                else:
                    key, member_idx = self._group_of(idx, pin.name)
                    side, start = record.pin_sites[key]
                    offsets[pin.name] = _site_offset(
                        side,
                        (start + member_idx) % nsites,
                        nsites,
                        width,
                        height,
                        record.orientation,
                    )
            cache[sig] = offsets
        return {name: (cx + wx, cy + wy) for name, (wx, wy) in offsets.items()}

    def _group_of(self, idx: int, pin_name: str) -> Tuple[str, int]:
        try:
            return self._pin_group_of[idx][pin_name]
        except KeyError:
            raise KeyError(
                f"pin {pin_name!r} has no group on cell {self.names[idx]!r}"
            ) from None

    # ------------------------------------------------------------------
    # cost bookkeeping
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute every cache and accumulator from the records.

        This is the from-scratch reference the incremental bookkeeping is
        tested against, so the overlap pass deliberately stays the plain
        all-pairs loop (bbox-rejected); the broad-phase grid and the
        adjacency map are rebuilt alongside it.
        """
        n = len(self.names)
        for i in range(n):
            world = self._world_shape(i)
            self._shapes[i] = world
            self._expanded[i] = self._expanded_shape(i, world)
            self._pins[i] = self._pin_positions(i)
            self._c3[i] = self._cell_c3(i)
        self._net_spans = {
            net.name: self._net_span(net) for net in self.circuit.nets.values()
        }
        self._c1 = sum(
            self.circuit.nets[name].weighted_length(xs, ys)
            for name, (xs, ys) in self._net_spans.items()
        )
        self._grid = UniformGridIndex.for_bboxes(
            [shape.bbox for shape in self._expanded]
        )
        for i in range(n):
            self._grid.insert(i, self._expanded[i].bbox)
        self._overlaps = {}
        self._adj = [set() for _ in range(n)]
        self._c2_raw = 0.0
        for i in range(n):
            self._borders[i] = self._border_overlap(i)
            self._c2_raw += self._borders[i]
            for j in range(i + 1, n):
                area = self._pair_overlap(i, j)
                if area > 0.0:
                    self._overlaps[(i, j)] = area
                    self._adj[i].add(j)
                    self._adj[j].add(i)
                    self._c2_raw += area
        self._c3_total = sum(self._c3)

    def _net_span(self, net: Net) -> Tuple[float, float]:
        pins = self._pins
        members = self._net_members[net.name]
        if not members:
            return (0.0, 0.0)
        x, y = pins[members[0][0]][members[0][1]]
        x_lo = x_hi = x
        y_lo = y_hi = y
        for idx, pin_name in members:
            x, y = pins[idx][pin_name]
            if x < x_lo:
                x_lo = x
            elif x > x_hi:
                x_hi = x
            if y < y_lo:
                y_lo = y
            elif y > y_hi:
                y_hi = y
        return (x_hi - x_lo, y_hi - y_lo)

    def _pair_overlap(self, i: int, j: int) -> float:
        return self._expanded[i].overlap_area(self._expanded[j])

    def _border_overlap(self, idx: int, exp: Optional[TileSet] = None) -> float:
        if exp is None:
            exp = self._expanded[idx]
        bbox = exp.bbox
        core = self.core
        # The slabs tile the plane outside the core, so a shape whose
        # bbox stays inside the core cannot touch any of them — the
        # common case for every in-core move.
        if (
            bbox.x1 >= core.x1
            and bbox.x2 <= core.x2
            and bbox.y1 >= core.y1
            and bbox.y2 <= core.y2
        ):
            return 0.0
        total = 0.0
        for slab in self._slabs:
            if not bbox.intersects(slab):
                continue
            for tile in exp.tiles:
                total += tile.overlap_area(slab)
        return total

    def _cell_c3(self, idx: int) -> float:
        if self._is_macro[idx] or not self._groups[idx]:
            return 0.0
        cell = self.cell(idx)
        assert isinstance(cell, CustomCell)
        record = self.records[idx]
        assert record.aspect_ratio is not None
        nsites = cell.sites_per_edge
        occupancy: Dict[Tuple[str, int], int] = {}
        pins = 0
        for key, members in self._groups[idx]:
            side, start = record.pin_sites[key]
            pins += len(members)
            for k in range(len(members)):
                site = (side, (start + k) % nsites)
                occupancy[site] = occupancy.get(site, 0) + 1
        if len(occupancy) == pins:
            # No two pins share a site, and every capacity is at least 1.
            return 0.0
        width, height = cell.dimensions(record.aspect_ratio)
        pitch = cell.pin_pitch
        penalty = 0.0
        for (side, _), count in occupancy.items():
            edge_len = height if side in (LEFT, RIGHT) else width
            capacity = max(1, int(edge_len / pitch / nsites))
            if count > capacity:
                excess = count - capacity + self.kappa
                penalty += excess * excess
        return penalty

    # ------------------------------------------------------------------
    # cost queries
    # ------------------------------------------------------------------

    def c1(self) -> float:
        """The TEIC (Eqn 6)."""
        return self._c1

    def c2_raw(self) -> float:
        """Total overlap area, before the p2 normalization (Eqn 7)."""
        return self._c2_raw

    def c3(self) -> float:
        """The pin-site penalty (Eqn 11)."""
        return self._c3_total

    def cost(self) -> float:
        return self._c1 + self.p2 * self._c2_raw + self._c3_total

    def teil(self) -> float:
        """Total estimated interconnect length: the TEIC with unit weights."""
        return sum(xs + ys for xs, ys in self._net_spans.values())

    def net_spans(self) -> Dict[str, Tuple[float, float]]:
        """name -> (x span, y span) of every net — the public accessor
        (subclasses may keep the span bookkeeping elsewhere)."""
        return dict(self._net_spans)

    def chip_bbox(self) -> Rect:
        """Bounding box of the expanded cells — the chip outline including
        the interconnect area the estimator reserved."""
        return Rect.bounding(s.bbox for s in self._expanded)

    def chip_area(self) -> float:
        return self.chip_bbox().area

    def world_shape(self, name: str) -> TileSet:
        idx = self.index[name]
        shape = self._shapes[idx]
        if shape is None:
            # _refresh_cells leaves the world shape stale (only the
            # expanded shape feeds the cost terms); materialize on demand.
            shape = self._shapes[idx] = self._world_shape(idx)
        return shape

    def expanded_shape(self, name: str) -> TileSet:
        return self._expanded[self.index[name]]

    def pin_position(self, cell_name: str, pin_name: str) -> Tuple[float, float]:
        return self._pins[self.index[cell_name]][pin_name]

    def moves_per_iteration(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------------
    # snapshotting
    # ------------------------------------------------------------------

    def _take_snapshot(
        self, idxs: Sequence[int], geometry: bool = True
    ) -> _Snapshot:
        overlaps: Dict[Tuple[int, int], float] = {}
        spans = self._net_spans
        if len(idxs) == 1:
            # The single-cell path (every displacement): _cell_nets
            # entries are duplicate-free, so no set building, and the
            # per-cell maps are one-entry dict literals.
            i = idxs[0]
            if geometry:
                current = self._overlaps
                for j in self._adj[i]:
                    key = (i, j) if i < j else (j, i)
                    overlaps[key] = current[key]
            return _Snapshot(
                self.cost(),
                {i: self.records[i].copy()},
                {i: self._shapes[i]},
                {i: self._expanded[i]},
                {i: self._pins[i]},
                {name: spans[name] for name in self._cell_nets[i]},
                overlaps,
                {i: self._borders[i]},
                {i: self._c3[i]},
                self._c1,
                self._c2_raw,
                self._c3_total,
                geometry,
            )
        idx_set = set(idxs)
        nets = {name for i in idx_set for name in self._cell_nets[i]}
        # Only actual overlap partners are recorded (the adjacency map
        # mirrors _overlaps exactly); restore reconstructs both from it.
        if geometry:
            for i in idx_set:
                for j in self._adj[i]:
                    key = (i, j) if i < j else (j, i)
                    if key not in overlaps:
                        overlaps[key] = self._overlaps[key]
        return _Snapshot(
            cost_before=self.cost(),
            records={i: self.records[i].copy() for i in idx_set},
            shapes={i: self._shapes[i] for i in idx_set},
            expanded={i: self._expanded[i] for i in idx_set},
            pins={i: self._pins[i] for i in idx_set},
            net_spans={name: self._net_spans[name] for name in nets},
            overlaps=overlaps,
            borders={i: self._borders[i] for i in idx_set},
            c3={i: self._c3[i] for i in idx_set},
            c1=self._c1,
            c2_raw=self._c2_raw,
            c3_total=self._c3_total,
            geometry=geometry,
        )

    def restore(self, snap: _Snapshot) -> None:
        if not snap.geometry:
            # The move could not have touched shapes, the grid, borders,
            # or overlaps — only pins, spans, and the pin-site penalty.
            for i, record in snap.records.items():
                self.records[i] = record
                self._pins[i] = snap.pins[i]
                self._c3[i] = snap.c3[i]
            self._net_spans.update(snap.net_spans)
            self._c1 = snap.c1
            self._c3_total = snap.c3_total
            return
        adj = self._adj
        overlaps = self._overlaps
        # Remove every current overlap entry touching the snapped cells
        # (the adjacency map lists exactly those), then put back the
        # saved ones and their adjacency edges.  adj[i] is not mutated
        # while it is iterated (cells are never self-adjacent), so no
        # defensive copy is needed.
        for i in snap.records:
            ai = adj[i]
            for j in ai:
                overlaps.pop((i, j) if i < j else (j, i), None)
                adj[j].discard(i)
            ai.clear()
        overlaps.update(snap.overlaps)
        for i, j in snap.overlaps:
            adj[i].add(j)
            adj[j].add(i)
        for i, record in snap.records.items():
            self.records[i] = record
            self._shapes[i] = snap.shapes[i]
            self._expanded[i] = snap.expanded[i]
            self._grid.update(i, snap.expanded[i].bbox)
            self._pins[i] = snap.pins[i]
            self._borders[i] = snap.borders[i]
            self._c3[i] = snap.c3[i]
        self._net_spans.update(snap.net_spans)
        self._c1 = snap.c1
        self._c2_raw = snap.c2_raw
        self._c3_total = snap.c3_total

    # ------------------------------------------------------------------
    # applying changes
    # ------------------------------------------------------------------

    def _refresh_cells(self, idxs: Sequence[int], geometry: bool = True) -> None:
        """Recompute caches and cost accumulators for the given cells.

        ``geometry=False`` is the pin-group fast path: the move touched
        only pin-site assignments, so shapes, the grid, borders, and
        overlaps are unchanged by construction and skipped wholesale.
        """
        # Multi-cell refreshes iterate in sorted order everywhere floats
        # are accumulated: the summation order must be a function of the
        # placement alone (not of set insertion history or string hash
        # seeds), or a checkpoint-resumed process would accumulate the
        # same deltas in a different order and drift off the original
        # run's trajectory by ULPs.
        if len(idxs) == 1:
            idx_set: Sequence[int] = idxs
            members: Optional[Set[int]] = None
            nets: Iterable[str] = self._cell_nets[idxs[0]]
        else:
            members = set(idxs)
            idx_set = sorted(members)
            nets = sorted({name for i in idx_set for name in self._cell_nets[i]})
        for i in idx_set:
            if geometry:
                # The world (translated, unexpanded) shape is not needed
                # by any cost term — leave it stale and let world_shape()
                # materialize it on demand.  The expanded set is built in
                # one pass from the cached oriented shape; the composed
                # arithmetic matches translate-then-expand exactly.
                oriented = self._oriented_shape(i)
                cx, cy = self.records[i].center
                obb = oriented.bbox
                left, bottom, right, top = self._expansions(
                    i, obb.x1 + cx, obb.y1 + cy, obb.x2 + cx, obb.y2 + cy
                )
                expanded = oriented.translated_expanded(
                    cx, cy, left, bottom, right, top
                )
                self._shapes[i] = None
                self._expanded[i] = expanded
                self._grid.update(i, expanded.bbox)
            self._pins[i] = self._pin_positions(i)
            if self._groups[i]:
                new_c3 = self._cell_c3(i)
                self._c3_total += new_c3 - self._c3[i]
                self._c3[i] = new_c3
        # Net spans of every net touching a refreshed cell.  The delta is
        # accumulated with weighted_length's exact expression inlined
        # ((x*h + y*v), then the subtraction).
        circuit_nets = self.circuit.nets
        spans = self._net_spans
        for name in nets:
            net = circuit_nets[name]
            old_x, old_y = spans[name]
            new = self._net_span(net)
            spans[name] = new
            h = net.h_weight
            v = net.v_weight
            self._c1 += (new[0] * h + new[1] * v) - (old_x * h + old_y * v)
        if not geometry:
            return
        # Overlaps touching refreshed cells.  The broad phase: the grid's
        # candidates cover every cell the new bbox may intersect (gained
        # overlaps), and the adjacency map lists the current partners
        # (overlaps that may vanish); anything outside the union cannot
        # change its pair term.
        overlaps = self._overlaps
        adj = self._adj
        expanded = self._expanded
        for i in idx_set:
            old_border = self._borders[i]
            new_border = self._border_overlap(i)
            self._borders[i] = new_border
            self._c2_raw += new_border - old_border
            partners = self._grid.candidates(i)
            partners |= adj[i]
            exp_i = expanded[i]
            single_i = len(exp_i._tiles) == 1
            bbox_i = exp_i.bbox
            bx1, by1, bx2, by2 = bbox_i.x1, bbox_i.y1, bbox_i.x2, bbox_i.y2
            # sorted(): the c2 accumulation order over partners must not
            # depend on the candidate set's insertion history (see above).
            for j in sorted(partners):
                if members is not None and j in members and j < i:
                    continue  # pair handled once
                key = (i, j) if i < j else (j, i)
                old = overlaps.pop(key, 0.0)
                exp_j = expanded[j]
                bbox_j = exp_j.bbox
                # Inline bbox reject (touching boxes share no area, so
                # >=/<= is exact) before the tile-level narrow phase.
                if (
                    bbox_j.x1 >= bx2
                    or bbox_j.x2 <= bx1
                    or bbox_j.y1 >= by2
                    or bbox_j.y2 <= by1
                ):
                    new = 0.0
                elif single_i and len(exp_j._tiles) == 1:
                    # Single-tile pair: the bbox carries the same floats
                    # as the sole tile, so this is Rect.overlap_area
                    # verbatim (w > 0 and h > 0 follow from the reject).
                    new = (min(bx2, bbox_j.x2) - max(bx1, bbox_j.x1)) * (
                        min(by2, bbox_j.y2) - max(by1, bbox_j.y1)
                    )
                else:
                    new = exp_i.overlap_area(exp_j)
                if new > 0.0:
                    overlaps[key] = new
                    adj[i].add(j)
                    adj[j].add(i)
                elif old > 0.0:
                    adj[i].discard(j)
                    adj[j].discard(i)
                self._c2_raw += new - old

    def move_cell(
        self,
        idx: int,
        center: Optional[Tuple[float, float]] = None,
        orientation: Optional[int] = None,
        instance: Optional[int] = None,
        aspect_ratio: Optional[float] = None,
    ) -> Tuple[float, _Snapshot]:
        """Apply a single-cell change; returns (cost delta, snapshot)."""
        snap = self._take_snapshot([idx])
        record = self.records[idx]
        if center is not None:
            record.center = center
        if orientation is not None:
            record.orientation = orientation
        if instance is not None:
            record.instance = instance
        if aspect_ratio is not None:
            record.aspect_ratio = aspect_ratio
        self._refresh_cells([idx])
        return (self.cost() - snap.cost_before, snap)

    def swap_cells(self, i: int, j: int) -> Tuple[float, _Snapshot]:
        """Interchange the centers of two cells (Eqn-free §3.2.1 A2)."""
        if i == j:
            raise ValueError("cannot swap a cell with itself")
        snap = self._take_snapshot([i, j])
        ci, cj = self.records[i].center, self.records[j].center
        self.records[i].center = cj
        self.records[j].center = ci
        self._refresh_cells([i, j])
        return (self.cost() - snap.cost_before, snap)

    def swap_cells_inverted(self, i: int, j: int) -> Tuple[float, _Snapshot]:
        """Interchange with both cells' aspect ratios inverted (the retry
        of §3.2.1 when the plain interchange is rejected)."""
        if i == j:
            raise ValueError("cannot swap a cell with itself")
        snap = self._take_snapshot([i, j])
        ci, cj = self.records[i].center, self.records[j].center
        self.records[i].center = cj
        self.records[j].center = ci
        for k in (i, j):
            self._invert_record_aspect(k)
        self._refresh_cells([i, j])
        return (self.cost() - snap.cost_before, snap)

    def _invert_record_aspect(self, idx: int) -> None:
        record = self.records[idx]
        cell = self.cell(idx)
        if isinstance(cell, CustomCell):
            assert record.aspect_ratio is not None
            record.aspect_ratio = cell.aspect.inverted(record.aspect_ratio)
        else:
            record.orientation = ori.aspect_inverting_orientation(record.orientation)

    def move_cell_inverted(
        self, idx: int, center: Tuple[float, float]
    ) -> Tuple[float, _Snapshot]:
        """Displace with the aspect ratio inverted (§3.2.1's second attempt:
        macro cells rotate 90 degrees, custom cells invert their ratio)."""
        snap = self._take_snapshot([idx])
        self.records[idx].center = center
        self._invert_record_aspect(idx)
        self._refresh_cells([idx])
        return (self.cost() - snap.cost_before, snap)

    def move_pin_group(
        self, idx: int, group_key: str, side: str, start: int
    ) -> Tuple[float, _Snapshot]:
        """Reassign an uncommitted pin group to new sites (§2.4).

        Pin sites live on the cell boundary: the move cannot change the
        cell's shape or expansion, so the geometry bookkeeping (grid,
        borders, overlaps) is skipped on both the apply and restore side.
        """
        snap = self._take_snapshot([idx], geometry=False)
        self.records[idx].pin_sites[group_key] = (side, start)
        self._refresh_cells([idx], geometry=False)
        return (self.cost() - snap.cost_before, snap)

    def set_static_expansions(
        self, expansions: Dict[str, Dict[str, float]]
    ) -> None:
        """Switch to stage-2 mode: per-cell, per-world-side static margins
        (half the required width of each adjacent channel, §4.3) replace
        the dynamic estimator.  Rebuilds all caches."""
        self._static = [
            dict(expansions.get(name, {})) for name in self.names
        ]
        self.dynamic_expansion = False
        self.rebuild()

    # ------------------------------------------------------------------
    # checkpointing and auditing
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict:
        """Everything needed to reconstruct this placement exactly.

        The cost accumulators are included verbatim: they are running
        float sums whose last bits depend on the whole move history, and
        a bit-for-bit resume must continue from the history-exact values
        (``rebuild()`` recomputes them in canonical order, which agrees
        only to rounding).
        """
        return {
            "records": {
                self.names[i]: {
                    "center": tuple(record.center),
                    "orientation": record.orientation,
                    "instance": record.instance,
                    "aspect_ratio": record.aspect_ratio,
                    "pin_sites": dict(record.pin_sites),
                }
                for i, record in enumerate(self.records)
            },
            "p2": self.p2,
            "dynamic_expansion": self.dynamic_expansion,
            "static_expansions": {
                self.names[i]: dict(static)
                for i, static in enumerate(self._static)
                if static
            },
            "accumulators": {
                "c1": self._c1,
                "c2_raw": self._c2_raw,
                "c3_total": self._c3_total,
            },
        }

    def load_state_dict(self, data: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same circuit required).

        Caches are regenerated with ``rebuild()`` — per-entry cache
        values are pure functions of the geometry, so they come back
        identical — and the accumulators are then overwritten with the
        snapshot's history-exact values.
        """
        records = data["records"]
        if set(records) != set(self.names):
            raise ValueError(
                "placement snapshot does not match this circuit's cells"
            )
        for i, name in enumerate(self.names):
            saved = records[name]
            self.records[i] = CellRecord(
                center=tuple(saved["center"]),
                orientation=saved["orientation"],
                instance=saved["instance"],
                aspect_ratio=saved["aspect_ratio"],
                pin_sites=dict(saved["pin_sites"]),
            )
        static = data.get("static_expansions") or {}
        self._static = [dict(static.get(name, {})) for name in self.names]
        self.dynamic_expansion = data["dynamic_expansion"]
        self.p2 = data["p2"]
        self.rebuild()
        accumulators = data["accumulators"]
        self._c1 = accumulators["c1"]
        self._c2_raw = accumulators["c2_raw"]
        self._c3_total = accumulators["c3_total"]

    def cost_breakdown_fresh(self) -> Tuple[float, float, float]:
        """(C1, C2_raw, C3) recomputed from the records, read-only —
        the reference the drift guard reconciles the accumulators
        against.  Touches none of the incremental bookkeeping."""
        n = len(self.names)
        expanded = [
            self._expanded_shape(i, self._world_shape(i)) for i in range(n)
        ]
        pins = [self._pin_positions(i) for i in range(n)]
        c1 = 0.0
        for net in self.circuit.nets.values():
            members = self._net_members[net.name]
            if not members:
                continue
            x, y = pins[members[0][0]][members[0][1]]
            x_lo = x_hi = x
            y_lo = y_hi = y
            for idx, pin_name in members:
                x, y = pins[idx][pin_name]
                x_lo = min(x_lo, x)
                x_hi = max(x_hi, x)
                y_lo = min(y_lo, y)
                y_hi = max(y_hi, y)
            c1 += net.weighted_length(x_hi - x_lo, y_hi - y_lo)
        c2 = 0.0
        for i in range(n):
            c2 += self._border_overlap(i, expanded[i])
            for j in range(i + 1, n):
                c2 += expanded[i].overlap_area(expanded[j])
        c3 = sum(self._cell_c3(i) for i in range(n))
        return c1, c2, c3

    def cost_drift(
        self, held: Optional[Tuple[float, float, float]] = None
    ) -> Dict[str, float]:
        """Accumulated-minus-fresh difference of each cost term, plus
        the largest difference normalized by the term's magnitude.
        ``held`` audits other running (C1, C2_raw, C3) totals than the
        accumulators: a batch session's."""
        if held is None:
            held = (self._c1, self._c2_raw, self._c3_total)
        pairs = tuple(
            (value - ref, ref)
            for value, ref in zip(held, self.cost_breakdown_fresh())
        )
        return {
            "c1": pairs[0][0],
            "c2_raw": pairs[1][0],
            "c3": pairs[2][0],
            "max_relative": max(
                abs(diff) / max(1.0, abs(ref)) for diff, ref in pairs
            ),
        }

    def resync(self) -> None:
        """Snap the accumulators back to canonical from-scratch values."""
        self.rebuild()

    # ------------------------------------------------------------------
    # initial placement
    # ------------------------------------------------------------------

    def randomize(self, rng: random.Random) -> None:
        """Random initial configuration (§3.2.1: the initial state has no
        influence on the final TEIC, so a random start is used)."""
        for idx in range(len(self.names)):
            if not self.movable[idx]:
                continue
            record = self.records[idx]
            record.center = (
                rng.uniform(self.core.x1, self.core.x2),
                rng.uniform(self.core.y1, self.core.y2),
            )
            record.orientation = rng.randrange(ori.N_ORIENTATIONS)
            cell = self.cell(idx)
            if isinstance(cell, MacroCell) and cell.num_instances > 1:
                record.instance = rng.randrange(cell.num_instances)
        self.rebuild()

    def enforce_fixed(self) -> None:
        """Reset every pre-placed cell to its mandated position (used by
        placers that do not natively understand fixed cells)."""
        changed = False
        for idx in range(len(self.names)):
            cell = self.cell(idx)
            if cell.fixed is None:
                continue
            record = self.records[idx]
            target = ((cell.fixed.x, cell.fixed.y), cell.fixed.orientation)
            if (record.center, record.orientation) != target:
                record.center = (cell.fixed.x, cell.fixed.y)
                record.orientation = cell.fixed.orientation
                changed = True
        if changed:
            self.rebuild()

    def clamp_to_core(self, point: Tuple[float, float]) -> Tuple[float, float]:
        """Clamp a candidate cell center into the core region."""
        return (
            min(max(point[0], self.core.x1), self.core.x2),
            min(max(point[1], self.core.y1), self.core.y2),
        )


def _site_offset(
    side: str,
    site_idx: int,
    nsites: int,
    width: float,
    height: float,
    orientation: int,
) -> Tuple[float, float]:
    """World-frame offset, from the cell center, of site ``site_idx`` on
    the canonical ``side`` of a ``width`` x ``height`` custom cell in
    ``orientation`` — the one site formula both placement cores use."""
    fraction = (site_idx + 0.5) / nsites
    hw, hh = width / 2.0, height / 2.0
    if side == LEFT:
        lx, ly = -hw, -hh + fraction * height
    elif side == RIGHT:
        lx, ly = hw, -hh + fraction * height
    elif side == BOTTOM:
        lx, ly = -hw + fraction * width, -hh
    else:
        lx, ly = -hw + fraction * width, hh
    return ori.transform_point(orientation, lx, ly)
