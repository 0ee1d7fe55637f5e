"""Array-native stage-1 placement kernel (struct-of-arrays hot path).

``PlacementState`` walks a Python object graph on every move: dict-keyed
pin positions, per-net span dicts, freshly allocated ``TileSet``/``Rect``
objects, and dict-of-dict snapshots.  On the 20-cell flowbench circuit
``flow20_serial`` (seed 7, 25% custom cells, one pinned core of a
2-vCPU x86-64 host, best of three flows) that costs about 50 us per
attempted stage-1 move and 38 us per refine-anneal move; this kernel
takes about 31 and 19 us.

``ArrayPlacementState`` keeps the object model as the authoring / IO
layer (construction, ``state_dict``, ``rebuild``, drift audits, and every
cold accessor are inherited unchanged) and replaces only the per-move hot
path with a struct-of-arrays mirror:

* cell geometry     — flat parallel lists / numpy arrays of expanded
  bounding boxes and (rarely) per-tile coordinate tuples,
* pin positions     — one flat coordinate pair per pin, indexed by a
  per-cell slot table instead of name-keyed dicts,
* net incidence     — integer net ids with flat member-pin-id lists,
  weights, and spans,
* variant cache     — per-(instance, orientation) oriented-bbox tuples
  of macro cells, flattened once from the object-core shape cache,
* site tables       — per custom cell, at its current (aspect ratio,
  orientation): the oriented bbox, each side's site capacity, and each
  pin site's world-frame offset, filled on first use; a variant change
  or a ``rebuild()`` replaces the table, a restore puts the old one back,
* site counts       — per custom cell, the pin count of each site and
  the set of sites holding two or more pins, so a pin-group move
  updates only the group's old and new sites, and C3 needs no recount
  while no site is over its capacity,
* variant mirrors   — each cell's current oriented bbox and per-pin
  world-frame offsets (a macro's read from the object-core offset
  cache, a custom cell's from its site table, when the variant
  changes), so a move that only translates a cell (every stage-2
  displacement, every plain displacement and interchange) sets each
  pin to center + offset with no key building or cache probe.

The mirror is rebuilt from the object model by ``rebuild()`` (so every
existing entry point — ``randomize``, ``load_state_dict``, legalization,
``set_static_expansions`` — stays correct), and the move methods write
both the mirror and the authoritative ``records``.  The one path around
``rebuild()`` is ``adopt_centers()``, through which the batched refine
hands its kernel's centers to the pin-group moves: it recomputes pins,
spans and the three totals from the mirror with ``rebuild()``'s own
expressions and order, and leaves the grid, overlap map, adjacency,
borders, bbox mirrors and object caches stale until the session's
closing ``rebuild()``.

Bit-identity contract
---------------------

The kernel replays any move sequence with *identical* accept/reject
decisions and cost accumulators to the object core.  This is not an
approximation: every floating-point expression is evaluated with the
same operands in the same order as ``PlacementState._refresh_cells``:

* net spans are exact min/max reductions (order-independent),
* the C1/C2/C3 deltas accumulate per-net / per-partner terms in the
  object core's documented order (insertion order for single-cell moves,
  name-sorted for pair moves, index-sorted partner loops),
* the C2 narrow phase reproduces ``TileSet.overlap_area``'s accumulation
  order, including the single-tile fast path,
* adding a zero term is a float no-op, so the broad phase only needs to
  visit a *superset* of the partners whose pair term changes — the same
  grid-candidates-plus-adjacency superset the object core visits — and
  the terms a move cannot change are skipped: C3 on a translation (it
  depends only on aspect ratio and pin sites), and on a pin-group move
  every net none of the group's pins is on (its span is unchanged),
* a custom cell's C3 is 0.0 when no site holds more pins than its
  side's capacity, ``max(1, int(edge / pin_pitch / sites_per_edge))`` at
  the current aspect ratio.  That is exactly when ``_cell_c3`` returns
  0.0 (a site that holds one pin never exceeds a capacity of 1 or
  more).  Every other case calls ``_cell_c3`` itself, so a positive C3
  keeps its terms and their order.  The counts are rebuilt from the
  records with the other mirrors, and a restore takes back a pin move's
  count steps,
* no geometry formula has a second implementation: macro shapes and
  pin offsets are flattened from the object core's own caches
  (``_oriented_shape`` / ``_pin_positions``); a custom cell's rectangle
  comes from ``cell.dimensions``, ``Rect.from_center`` and
  ``ori.transform_rect``, the calls ``_oriented_shape`` reaches, its
  committed pins from ``ori.transform_point`` and its site offsets from
  ``_site_offset``, the calls ``_pin_positions`` makes.

A ``state_dict`` loads into either core losslessly, history-exact
accumulators included.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

from ..config import CORES
from ..estimator import CorePlan
from ..geometry import BOTTOM, LEFT, RIGHT, TOP, Rect, TileSet
from ..geometry import orientation as ori
from ..geometry.tiles import tile_overlap
from ..netlist import Circuit, CustomCell
from .state import _SIDE_MAP_INV, _SIDES, PlacementState, _site_offset

__all__ = ["ArrayPlacementState", "ArraySnapshot", "make_placement_state"]

def make_placement_state(
    core: str,
    circuit: Circuit,
    plan: CorePlan,
    p2: float = 1.0,
    kappa: float = 5.0,
    dynamic_expansion: bool = True,
    static_expansions: Optional[Dict[str, Dict[str, float]]] = None,
) -> PlacementState:
    """Construct the placement state for the configured core."""
    if core not in CORES:
        raise ValueError(f"unknown placement core {core!r}")
    cls = ArrayPlacementState if core == "array" else PlacementState
    return cls(
        circuit,
        plan,
        p2=p2,
        kappa=kappa,
        dynamic_expansion=dynamic_expansion,
        static_expansions=static_expansions,
    )


#: A custom cell's flat site index is ``_SIDE_SLOT[side] * sites_per_edge
#: + index``; slots follow ``_SIDES`` (left, right, bottom, top), so slots
#: 0 and 1 are the sides that run along the cell's height.
_SIDE_SLOT = {side: k for k, side in enumerate(_SIDES)}


class _SiteTable:
    """One custom cell at one (aspect ratio, orientation): its oriented
    bbox, the pin capacity of a site on each side slot, and each flat
    site's world-frame offset from the cell center, computed on first
    use with ``_site_offset`` (the one site formula).  A table is never
    updated: a new variant gets a new table."""

    __slots__ = ("key", "geom", "width", "height", "nsites", "caps", "offsets")

    def __init__(self, cell: CustomCell, aspect_ratio: float, orientation: int):
        width, height = cell.dimensions(aspect_ratio)
        nsites = cell.sites_per_edge
        pitch = cell.pin_pitch
        # _cell_c3's capacity expression, per side.
        along_height = max(1, int(height / pitch / nsites))
        along_width = max(1, int(width / pitch / nsites))
        self.key = (aspect_ratio, orientation)
        # _oriented_shape's rectangle: shape_for, then transformed.
        r = ori.transform_rect(
            orientation, Rect.from_center(0.0, 0.0, width, height)
        )
        self.geom = (r.x1, r.y1, r.x2, r.y2, None)
        self.width = width
        self.height = height
        self.nsites = nsites
        self.caps = (along_height, along_height, along_width, along_width)
        self.offsets: List[Optional[Tuple[float, float]]] = [None] * (4 * nsites)

    def offset(self, site: int) -> Tuple[float, float]:
        off = self.offsets[site]
        if off is None:
            slot, index = divmod(site, self.nsites)
            off = self.offsets[site] = _site_offset(
                _SIDES[slot], index, self.nsites, self.width, self.height,
                self.key[1],
            )
        return off


class ArraySnapshot:
    """Undo token of one array-core move: plain scalars and short lists.

    ``kind`` selects the restore path: 0 = single-cell geometry move,
    1 = pair interchange, 2 = pin-group reassignment (no geometry).
    ``geometry`` mirrors the object core's ``_Snapshot.geometry`` flag.
    ``variants`` holds the saved variant mirrors (a custom cell's site
    table among them) of a move that changed orientation, instance or
    aspect ratio, and is None for a move that only translated its cells.
    """

    __slots__ = (
        "kind",
        "geometry",
        "cost_before",
        "cells",
        "recs",
        "ebbs",
        "exp_refs",
        "shape_refs",
        "pins",
        "spans",
        "overlaps",
        "borders",
        "c3s",
        "pin_site",
        "c1",
        "c2_raw",
        "c3_total",
        "variants",
    )

    def __init__(self, kind, geometry, cost_before, cells, recs, ebbs,
                 exp_refs, shape_refs, pins, spans, overlaps, borders, c3s,
                 pin_site, c1, c2_raw, c3_total, variants):
        self.kind = kind
        self.geometry = geometry
        self.cost_before = cost_before
        self.cells = cells
        self.recs = recs
        self.ebbs = ebbs
        self.exp_refs = exp_refs
        self.shape_refs = shape_refs
        self.pins = pins
        self.spans = spans
        self.overlaps = overlaps
        self.borders = borders
        self.c3s = c3s
        self.pin_site = pin_site
        self.c1 = c1
        self.c2_raw = c2_raw
        self.c3_total = c3_total
        self.variants = variants


class ArrayPlacementState(PlacementState):
    """Struct-of-arrays hot path over the object-core placement model."""

    def __init__(self, *args, **kwargs) -> None:
        self._soa_ready = False
        super().__init__(*args, **kwargs)
        self._build_static_soa()
        self._sync_soa()
        self._soa_ready = True

    # ------------------------------------------------------------------
    # SoA construction and synchronization
    # ------------------------------------------------------------------

    def _build_static_soa(self) -> None:
        """Immutable incidence structure: pin slots, net ids, densities."""
        n = len(self.names)
        circuit = self.circuit

        # Flat pin slots: per-cell contiguous ranges in cell.pins order
        # (the iteration order _pin_positions builds its dicts in).
        self._pin_start: List[int] = []
        self._pin_count: List[int] = []
        self._pin_names: List[Tuple[str, ...]] = []
        self._pin_slot: List[Dict[str, int]] = []
        total = 0
        for i in range(n):
            cell = self.cell(i)
            names = tuple(cell.pins)
            self._pin_start.append(total)
            self._pin_count.append(len(names))
            self._pin_names.append(names)
            self._pin_slot.append(
                {name: total + k for k, name in enumerate(names)}
            )
            total += len(names)
        self._num_pins = total
        self._lpx: List[float] = [0.0] * total
        self._lpy: List[float] = [0.0] * total
        #: World-frame pin offsets from the cell center for the cell's
        #: current variant: a move that only translates a cell sets each
        #: pin to center + offset with no cache lookup.
        self._lox: List[float] = [0.0] * total
        self._loy: List[float] = [0.0] * total

        # Net ids in circuit.nets order; members as flat pin ids.
        self._net_names: List[str] = list(circuit.nets)
        self._nid: Dict[str, int] = {
            name: e for e, name in enumerate(self._net_names)
        }
        self._nmem: List[List[int]] = []
        self._nh: List[float] = []
        self._nv: List[float] = []
        for name in self._net_names:
            net = circuit.nets[name]
            self._nmem.append(
                [self._pin_slot[idx][pin] for idx, pin in self._net_members[name]]
            )
            self._nh.append(net.h_weight)
            self._nv.append(net.v_weight)
        #: Rank of each net id under name ordering: sorting ids by rank
        #: reproduces the object core's name-sorted pair-move net loop.
        self._nrank: List[int] = [0] * len(self._net_names)
        for rank, name in enumerate(sorted(self._net_names)):
            self._nrank[self._nid[name]] = rank
        self._cnets: List[List[int]] = [
            [self._nid[name] for name in self._cell_nets[i]] for i in range(n)
        ]
        #: Per net, a C-level gather of its member pins' coordinates
        #: (None for a pinless net).  A one-pin net gathers its pin twice,
        #: so the getter always returns a tuple.
        self._nget: List[Optional[itemgetter]] = [
            itemgetter(*mem) if len(mem) > 1
            else itemgetter(mem[0], mem[0]) if mem
            else None
            for mem in self._nmem
        ]
        # Custom-cell pin groups: key -> (member slots in member order,
        # ids of the nets those pins touch in the cell's net order).  A
        # pin-group move rewrites only these slots and re-spans only
        # these nets; every other net of the cell keeps all its pins, so
        # its C1 delta would be exactly 0.0.
        self._gpins: List[Dict[str, Tuple[Tuple[int, ...], List[int]]]] = []
        for i in range(n):
            slot = self._pin_slot[i]
            table = {}
            for key, members in self._groups[i]:
                slots = tuple(slot[m] for m in members)
                mine = set(slots)
                table[key] = (
                    slots,
                    [e for e in self._cnets[i] if not mine.isdisjoint(self._nmem[e])],
                )
            self._gpins.append(table)
        self._lsx: List[float] = [0.0] * len(self._net_names)
        self._lsy: List[float] = [0.0] * len(self._net_names)

        # Macro side densities resolved per orientation (static data).
        self._dens8: List[Optional[Tuple[Tuple, ...]]] = []
        for i in range(n):
            dens = self._side_density[i]
            if dens is None:
                self._dens8.append(None)
            else:
                self._dens8.append(
                    tuple(
                        (
                            dens[_SIDE_MAP_INV[o][LEFT]],
                            dens[_SIDE_MAP_INV[o][BOTTOM]],
                            dens[_SIDE_MAP_INV[o][RIGHT]],
                            dens[_SIDE_MAP_INV[o][TOP]],
                        )
                        for o in range(8)
                    )
                )
        self._slab4: Tuple[Tuple[float, float, float, float], ...] = tuple(
            (s.x1, s.y1, s.x2, s.y2) for s in self._slabs
        )
        self._has_groups: List[bool] = [bool(g) for g in self._groups]
        #: Custom cells' committed pins as (slot, local x, local y), in
        #: cell.pins order (empty for macro cells).
        self._committed: List[Tuple[Tuple[int, float, float], ...]] = [
            ()
            if self._is_macro[i]
            else tuple(
                (self._pin_slot[i][pin.name], *pin.offset)
                for pin in self.cell(i).pins.values()
                if pin.is_committed
            )
            for i in range(n)
        ]
        #: Each custom cell's site table at its current variant.
        self._stab: List[Optional[_SiteTable]] = [None] * n

        # Flattened macro variant cache: (instance, orientation) ->
        # oriented bbox (+tiles), filled lazily from the object core's own
        # shape cache.  Its keys are few, so it keeps every entry.
        self._g_flat: List[Dict[Tuple, Tuple]] = [dict() for _ in range(n)]

    def _sync_soa(self) -> None:
        """Refresh the mutable mirrors from the object-core caches (runs
        after every ``rebuild()``, so every cold entry point stays valid)."""
        n = len(self.names)
        self._lex1: List[float] = [0.0] * n
        self._ley1: List[float] = [0.0] * n
        self._lex2: List[float] = [0.0] * n
        self._ley2: List[float] = [0.0] * n
        #: None for single-tile cells (the bbox *is* the tile); else the
        #: world-frame expanded tile coordinates.
        self._ltiles: List[Optional[Tuple]] = [None] * n
        #: The oriented bbox (+tiles) of each cell's current variant.
        self._cgeom: List[Tuple] = [None] * n  # type: ignore[list-item]
        #: Per custom cell, the pin count of each flat site and the set
        #: of sites that hold two or more pins (None for macro cells).
        self._socc: List[Optional[List[int]]] = [None] * n
        self._sshared: List[Optional[Set[int]]] = [None] * n
        for i in range(n):
            if not self._is_macro[i]:
                nsites = self.cell(i).sites_per_edge
                occ = [0] * (4 * nsites)
                sites = self.records[i].pin_sites
                for key, (slots, _) in self._gpins[i].items():
                    side, start = sites[key]
                    base = _SIDE_SLOT[side] * nsites
                    for k in range(len(slots)):
                        occ[base + (start + k) % nsites] += 1
                self._socc[i] = occ
                self._sshared[i] = {s for s, c in enumerate(occ) if c > 1}
                # A fresh table: it holds only the sites used from here on.
                self._stab[i] = None
            self._commit_variant(i)
            exp = self._expanded[i]
            bb = exp.bbox
            self._lex1[i] = bb.x1
            self._ley1[i] = bb.y1
            self._lex2[i] = bb.x2
            self._ley2[i] = bb.y2
            tiles = exp._tiles
            self._ltiles[i] = (
                None
                if len(tiles) == 1
                else tuple((t.x1, t.y1, t.x2, t.y2) for t in tiles)
            )
            start = self._pin_start[i]
            pins = self._pins[i]
            for k, name in enumerate(self._pin_names[i]):
                x, y = pins[name]
                self._lpx[start + k] = x
                self._lpy[start + k] = y
        for e, name in enumerate(self._net_names):
            sx, sy = self._net_spans[name]
            self._lsx[e] = sx
            self._lsy[e] = sy
        self._stat4: List[Tuple[float, float, float, float]] = [
            (
                static.get(LEFT, 0.0),
                static.get(BOTTOM, 0.0),
                static.get(RIGHT, 0.0),
                static.get(TOP, 0.0),
            )
            for static in self._static
        ]

    def rebuild(self) -> None:
        super().rebuild()
        if self._soa_ready:
            self._sync_soa()

    def adopt_centers(self) -> None:
        """Bring what a pin-group move reads up to the records' centers,
        without a ``rebuild()``: every pin at center + current offset,
        every net span, and C1, C2_raw and C3 as the very floats
        ``rebuild()`` computes (same expressions, same summation order).
        A pin move returns ``cost - cost_before``, so the last bits of
        these totals enter its delta.  Only the centers may differ from
        the mirrors: variants, pin sites and expansions must be the ones
        they hold.  The grid, overlap map, adjacency, borders, flat bbox
        mirrors and object caches are left stale; no pin move reads
        them, and the next ``rebuild()`` makes them canonical."""
        n = len(self.names)
        for i in range(n):
            self._commit_pins(i)
        lpx = self._lpx
        lpy = self._lpy
        lsx = self._lsx
        lsy = self._lsy
        for e, get in enumerate(self._nget):
            if get is None:
                lsx[e] = lsy[e] = 0.0
            else:
                xs = get(lpx)
                ys = get(lpy)
                lsx[e] = max(xs) - min(xs)
                lsy[e] = max(ys) - min(ys)
        nh = self._nh
        nv = self._nv
        # sum(), as rebuild() sums: from Python 3.12 it is not a plain loop.
        self._c1 = sum(sx * nh[e] + lsy[e] * nv[e] for e, sx in enumerate(lsx))
        geoms = [self._cell_geometry(i) for i in range(n)]
        tiles = [g[4] or (g[:4],) for g in geoms]
        c2 = 0.0
        for i, (x1, y1, x2, y2, ti) in enumerate(geoms):
            c2 += self._border_flat(x1, y1, x2, y2, ti)
            for j in range(i + 1, n):
                jx1, jy1, jx2, jy2, _ = geoms[j]
                if jx1 >= x2 or jx2 <= x1 or jy1 >= y2 or jy2 <= y1:
                    continue
                c2 += tile_overlap(tiles[i], tiles[j])
        self._c2_raw = c2
        self._c3_total = sum(self._c3)

    # ------------------------------------------------------------------
    # variant caches (flattened views over the object-core caches)
    # ------------------------------------------------------------------

    def _geom_flat(self, i: int, key: Tuple) -> Tuple:
        """(ox1, oy1, ox2, oy2, local_tiles|None) of a macro cell's
        oriented shape."""
        cache = self._g_flat[i]
        entry = cache.get(key)
        if entry is None:
            ts = self._oriented_shape(i)  # object-core math + memoization
            bb = ts.bbox
            tiles = ts._tiles
            entry = (
                bb.x1,
                bb.y1,
                bb.x2,
                bb.y2,
                None
                if len(tiles) == 1
                else tuple((t.x1, t.y1, t.x2, t.y2) for t in tiles),
            )
            cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    # hot-path helpers
    # ------------------------------------------------------------------

    def _cell_geometry(self, i: int):
        """New expanded bbox (+tiles) for cell i's current record.

        Reproduces _refresh_cells' geometry block: oriented bbox,
        ``side_expansions`` on the translated bbox, and the composed
        translate+expand arithmetic of ``translated_expanded``.
        """
        rec = self.records[i]
        ox1, oy1, ox2, oy2, ltiles = self._cgeom[i]
        cx, cy = rec.center
        if self.dynamic_expansion:
            dens = self._dens8[i]
            if dens is None:
                dl = db = dr = dt = None
            else:
                dl, db, dr, dt = dens[rec.orientation]
            left, bottom, right, top = self.estimator.side_expansions(
                ox1 + cx, oy1 + cy, ox2 + cx, oy2 + cy, dl, db, dr, dt
            )
        else:
            left, bottom, right, top = self._stat4[i]
        if ltiles is None:
            return (
                (ox1 + cx) - left,
                (oy1 + cy) - bottom,
                (ox2 + cx) + right,
                (oy2 + cy) + top,
                None,
            )
        tiles = tuple(
            (
                (tx1 + cx) - left,
                (ty1 + cy) - bottom,
                (tx2 + cx) + right,
                (ty2 + cy) + top,
            )
            for tx1, ty1, tx2, ty2 in ltiles
        )
        return (
            min(t[0] for t in tiles),
            min(t[1] for t in tiles),
            max(t[2] for t in tiles),
            max(t[3] for t in tiles),
            tiles,
        )

    def _border_flat(self, x1, y1, x2, y2, tiles) -> float:
        """``_border_overlap`` over flat coordinates (same accumulation)."""
        core = self.core
        if x1 >= core.x1 and x2 <= core.x2 and y1 >= core.y1 and y2 <= core.y2:
            return 0.0
        if tiles is None:
            tiles = ((x1, y1, x2, y2),)
        total = 0.0
        for sx1, sy1, sx2, sy2 in self._slab4:
            if not (x1 < sx2 and sx1 < x2 and y1 < sy2 and sy1 < y2):
                continue
            for tx1, ty1, tx2, ty2 in tiles:
                w = min(tx2, sx2) - max(tx1, sx1)
                if w <= 0.0:
                    continue
                h = min(ty2, sy2) - max(ty1, sy1)
                if h <= 0.0:
                    continue
                total += w * h
        return total

    def _pair_area_flat(self, x1, y1, x2, y2, tiles_i, j) -> float:
        """Narrow-phase overlap of the (already bbox-accepted) pair,
        with cell i's tiles outermost (the object core always calls
        exp_i.overlap_area)."""
        return tile_overlap(
            ((x1, y1, x2, y2),) if tiles_i is None else tiles_i,
            self._ltiles[j]
            or ((self._lex1[j], self._ley1[j], self._lex2[j], self._ley2[j]),),
        )

    def _span_delta(self, net_ids, saved_spans) -> None:
        """Recompute spans of ``net_ids`` (in the given order) and
        accumulate the C1 delta with _refresh_cells' exact expression."""
        lpx = self._lpx
        lpy = self._lpy
        lsx = self._lsx
        lsy = self._lsy
        nh = self._nh
        nv = self._nv
        nget = self._nget
        c1 = self._c1
        for e in net_ids:
            get = nget[e]
            if get is not None:
                xs = get(lpx)
                ys = get(lpy)
                new_x = max(xs) - min(xs)
                new_y = max(ys) - min(ys)
            else:
                new_x = new_y = 0.0
            old_x = lsx[e]
            old_y = lsy[e]
            saved_spans.append((e, old_x, old_y))
            lsx[e] = new_x
            lsy[e] = new_y
            h = nh[e]
            v = nv[e]
            c1 += (new_x * h + new_y * v) - (old_x * h + old_y * v)
        self._c1 = c1

    def _partner_delta(self, i, x1, y1, x2, y2, tiles, skip, saved_over) -> None:
        """Border + partner-pair C2 delta for cell i (object-core order:
        border first, then grid-candidates ∪ adjacency, index-sorted,
        with pair moves skipping the already-handled twin).

        A candidate outside ``adj[i]`` whose bbox misses cell i's had
        zero overlap and still has: its pair would add ``0.0 - 0.0`` to
        C2, so it is skipped before any dict work and never reaches
        ``saved_over`` (``restore`` replays only pairs that changed)."""
        old_border = self._borders[i]
        new_border = self._border_flat(x1, y1, x2, y2, tiles)
        self._borders[i] = new_border
        c2 = self._c2_raw + (new_border - old_border)
        partners = self._grid.candidates(i)
        adj = self._adj
        ai = adj[i]
        if ai:
            partners |= ai
        overlaps = self._overlaps
        lex1 = self._lex1
        ley1 = self._ley1
        lex2 = self._lex2
        ley2 = self._ley2
        ltiles = self._ltiles
        for j in sorted(partners):
            if skip is not None and j in skip and j < i:
                continue
            jx1 = lex1[j]
            jy1 = ley1[j]
            jx2 = lex2[j]
            jy2 = ley2[j]
            if jx1 >= x2 or jx2 <= x1 or jy1 >= y2 or jy2 <= y1:
                if j not in ai:
                    continue
                new = 0.0
            elif tiles is None and ltiles[j] is None:
                new = (min(x2, jx2) - max(x1, jx1)) * (min(y2, jy2) - max(y1, jy1))
            else:
                new = self._pair_area_flat(x1, y1, x2, y2, tiles, j)
            key = (i, j) if i < j else (j, i)
            old = overlaps.pop(key, 0.0)
            if new > 0.0:
                overlaps[key] = new
                ai.add(j)
                adj[j].add(i)
            elif old > 0.0:
                ai.discard(j)
                adj[j].discard(i)
            c2 += new - old
            saved_over.append((i, j, old))
        self._c2_raw = c2

    def _commit_geometry(self, i, x1, y1, x2, y2, tiles) -> None:
        self._lex1[i] = x1
        self._ley1[i] = y1
        self._lex2[i] = x2
        self._ley2[i] = y2
        self._ltiles[i] = tiles
        self._shapes[i] = None
        self._expanded[i] = None  # type: ignore[call-overload]
        self._grid.update_coords(i, x1, y1, x2, y2)

    def _commit_variant(self, i) -> None:
        """Point cell i's variant mirrors (oriented geometry, pin
        offsets, a custom cell's site table) at its current record's
        orientation / instance / aspect ratio / pin sites."""
        rec = self.records[i]
        lox = self._lox
        loy = self._loy
        if self._is_macro[i]:
            key = (rec.instance, rec.orientation)
            self._cgeom[i] = self._geom_flat(i, key)
            offsets = self._pin_offset_cache[i].get(key)
            if offsets is None:
                # Populate the object-core cache (its dict iterates in
                # cell.pins order — the same order as our slots).
                self._pin_positions(i)
                offsets = self._pin_offset_cache[i][key]
            start = self._pin_start[i]
            end = start + self._pin_count[i]
            lox[start:end] = [wx for wx, _ in offsets.values()]
            loy[start:end] = [wy for _, wy in offsets.values()]
            return
        # A custom cell, placed as _pin_positions places it: committed
        # pins through the orientation, grouped pins at their sites.
        key = (rec.aspect_ratio, rec.orientation)
        table = self._stab[i]
        if table is None or table.key != key:
            table = self._stab[i] = _SiteTable(
                self.cell(i), rec.aspect_ratio, rec.orientation
            )
        self._cgeom[i] = table.geom
        orientation = rec.orientation
        for p, lx, ly in self._committed[i]:
            lox[p], loy[p] = ori.transform_point(orientation, lx, ly)
        nsites = table.nsites
        offsets = table.offsets
        sites = rec.pin_sites
        for group, (slots, _) in self._gpins[i].items():
            side, start = sites[group]
            base = _SIDE_SLOT[side] * nsites
            for k, p in enumerate(slots):
                s = base + (start + k) % nsites
                lox[p], loy[p] = offsets[s] or table.offset(s)

    def _save_variant(self, i) -> Tuple:
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        return (
            self._cgeom[i],
            self._lox[start:end],
            self._loy[start:end],
            self._stab[i],
        )

    def _restore_variant(self, i, saved) -> None:
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        (
            self._cgeom[i],
            self._lox[start:end],
            self._loy[start:end],
            self._stab[i],
        ) = saved

    def _commit_pins(self, i) -> None:
        """Translate cell i's pins: center + current-variant offset."""
        cx, cy = self.records[i].center
        lpx = self._lpx
        lpy = self._lpy
        lox = self._lox
        loy = self._loy
        start = self._pin_start[i]
        for p in range(start, start + self._pin_count[i]):
            lpx[p] = cx + lox[p]
            lpy[p] = cy + loy[p]

    def _move_counts(self, i, size, old, new) -> None:
        """Move a group of ``size`` pins from sites ``old`` to ``new``
        (each a (side, start) pair) in cell i's site counts."""
        occ = self._socc[i]
        shared = self._sshared[i]
        nsites = len(occ) // 4
        old_side, old_start = old
        new_side, new_start = new
        old_base = _SIDE_SLOT[old_side] * nsites
        new_base = _SIDE_SLOT[new_side] * nsites
        for k in range(size):
            s = old_base + (old_start + k) % nsites
            c = occ[s] - 1
            occ[s] = c
            if c == 1:
                shared.discard(s)
            s = new_base + (new_start + k) % nsites
            c = occ[s] + 1
            occ[s] = c
            if c == 2:
                shared.add(s)

    def _commit_c3(self, i) -> None:
        """Cell i's C3 from its site counts.  ``_cell_c3`` returns 0.0
        exactly when no site holds more pins than its side's capacity
        (only a shared site can), so that case needs no recount; any
        other case is ``_cell_c3`` itself, its terms in its order."""
        if self._has_groups[i]:
            new_c3 = 0.0
            shared = self._sshared[i]
            if shared:
                occ = self._socc[i]
                table = self._stab[i]
                caps = table.caps
                nsites = table.nsites
                for s in shared:
                    if occ[s] > caps[s // nsites]:
                        new_c3 = self._cell_c3(i)
                        break
            self._c3_total += new_c3 - self._c3[i]
            self._c3[i] = new_c3

    def _save_pins(self, i) -> Tuple[List[float], List[float]]:
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        return (self._lpx[start:end], self._lpy[start:end])

    # ------------------------------------------------------------------
    # move API (same signatures and semantics as the object core)
    # ------------------------------------------------------------------

    def move_cell(
        self,
        idx: int,
        center: Optional[Tuple[float, float]] = None,
        orientation: Optional[int] = None,
        instance: Optional[int] = None,
        aspect_ratio: Optional[float] = None,
    ) -> Tuple[float, ArraySnapshot]:
        rec = self.records[idx]
        if center is not None:
            rec_center = center
        else:
            rec_center = rec.center
        return self._apply_single(
            idx,
            rec_center,
            rec.orientation if orientation is None else orientation,
            rec.instance if instance is None else instance,
            rec.aspect_ratio if aspect_ratio is None else aspect_ratio,
            invert=False,
        )

    def move_cell_inverted(
        self, idx: int, center: Tuple[float, float]
    ) -> Tuple[float, ArraySnapshot]:
        rec = self.records[idx]
        return self._apply_single(
            idx, center, rec.orientation, rec.instance, rec.aspect_ratio,
            invert=True,
        )

    def _apply_single(
        self, i, new_center, new_o, new_inst, new_ar, invert
    ) -> Tuple[float, ArraySnapshot]:
        rec = self.records[i]
        # A move that keeps the variant only translates the cell: its
        # oriented shape and pin offsets stand, and so does its C3 (a
        # function of aspect ratio and pin sites alone).
        translate = (
            not invert
            and new_o == rec.orientation
            and new_inst == rec.instance
            and new_ar == rec.aspect_ratio
        )
        cost_before = self._c1 + self.p2 * self._c2_raw + self._c3_total
        snap = ArraySnapshot(
            0,
            True,
            cost_before,
            i,
            (rec.center, rec.orientation, rec.instance, rec.aspect_ratio),
            (
                self._lex1[i],
                self._ley1[i],
                self._lex2[i],
                self._ley2[i],
                self._ltiles[i],
            ),
            self._expanded[i],
            self._shapes[i],
            self._save_pins(i),
            [],
            [],
            self._borders[i],
            self._c3[i],
            None,
            self._c1,
            self._c2_raw,
            self._c3_total,
            None if translate else self._save_variant(i),
        )
        rec.center = new_center
        rec.orientation = new_o
        rec.instance = new_inst
        rec.aspect_ratio = new_ar
        if invert:
            self._invert_record_aspect(i)
        if not translate:
            self._commit_variant(i)
        x1, y1, x2, y2, tiles = self._cell_geometry(i)
        self._commit_geometry(i, x1, y1, x2, y2, tiles)
        self._commit_pins(i)
        if not translate:
            self._commit_c3(i)
        self._span_delta(self._cnets[i], snap.spans)
        self._partner_delta(i, x1, y1, x2, y2, tiles, None, snap.overlaps)
        cost = self._c1 + self.p2 * self._c2_raw + self._c3_total
        return (cost - cost_before, snap)

    def swap_cells(self, i: int, j: int) -> Tuple[float, ArraySnapshot]:
        if i == j:
            raise ValueError("cannot swap a cell with itself")
        return self._apply_pair(i, j, invert=False)

    def swap_cells_inverted(self, i: int, j: int) -> Tuple[float, ArraySnapshot]:
        if i == j:
            raise ValueError("cannot swap a cell with itself")
        return self._apply_pair(i, j, invert=True)

    def _apply_pair(self, i, j, invert) -> Tuple[float, ArraySnapshot]:
        a, b = (i, j) if i < j else (j, i)
        ra, rb = self.records[a], self.records[b]
        cost_before = self._c1 + self.p2 * self._c2_raw + self._c3_total
        snap = ArraySnapshot(
            1,
            True,
            cost_before,
            (a, b),
            (
                (ra.center, ra.orientation, ra.instance, ra.aspect_ratio),
                (rb.center, rb.orientation, rb.instance, rb.aspect_ratio),
            ),
            (
                (self._lex1[a], self._ley1[a], self._lex2[a], self._ley2[a],
                 self._ltiles[a]),
                (self._lex1[b], self._ley1[b], self._lex2[b], self._ley2[b],
                 self._ltiles[b]),
            ),
            (self._expanded[a], self._expanded[b]),
            (self._shapes[a], self._shapes[b]),
            (self._save_pins(a), self._save_pins(b)),
            [],
            [],
            (self._borders[a], self._borders[b]),
            (self._c3[a], self._c3[b]),
            None,
            self._c1,
            self._c2_raw,
            self._c3_total,
            (self._save_variant(a), self._save_variant(b)) if invert else None,
        )
        ci, cj = self.records[i].center, self.records[j].center
        self.records[i].center = cj
        self.records[j].center = ci
        if invert:
            self._invert_record_aspect(i)
            self._invert_record_aspect(j)
        # Loop 1 — geometry, pins, C3, in ascending cell order (the
        # object core's sorted idx_set).  A plain interchange only
        # translates both cells (see _apply_single).
        geoms = {}
        for k in (a, b):
            if invert:
                self._commit_variant(k)
            x1, y1, x2, y2, tiles = self._cell_geometry(k)
            self._commit_geometry(k, x1, y1, x2, y2, tiles)
            geoms[k] = (x1, y1, x2, y2, tiles)
            self._commit_pins(k)
            if invert:
                self._commit_c3(k)
        # Loop 2 — net spans in name-sorted order.
        net_ids = set(self._cnets[a])
        net_ids.update(self._cnets[b])
        rank = self._nrank
        self._span_delta(sorted(net_ids, key=rank.__getitem__), snap.spans)
        # Loop 3 — borders and partners, ascending cell order; the (a, b)
        # pair itself is evaluated once, in a's partner loop.
        skip = (a, b)
        for k in (a, b):
            x1, y1, x2, y2, tiles = geoms[k]
            self._partner_delta(k, x1, y1, x2, y2, tiles, skip, snap.overlaps)
        cost = self._c1 + self.p2 * self._c2_raw + self._c3_total
        return (cost - cost_before, snap)

    def move_pin_group(
        self, idx: int, group_key: str, side: str, start: int
    ) -> Tuple[float, ArraySnapshot]:
        """Move only the group: its site counts, its pin slots (offsets
        from the cell's site table) and the spans of the nets its pins
        touch."""
        rec = self.records[idx]
        slots, net_ids = self._gpins[idx][group_key]
        old_site = rec.pin_sites[group_key]
        lpx = self._lpx
        lpy = self._lpy
        lox = self._lox
        loy = self._loy
        cost_before = self._c1 + self.p2 * self._c2_raw + self._c3_total
        snap = ArraySnapshot(
            2,
            False,
            cost_before,
            idx,
            None,
            None,
            None,
            None,
            [(p, lpx[p], lpy[p], lox[p], loy[p]) for p in slots],
            [],
            None,
            None,
            self._c3[idx],
            (group_key, old_site),
            self._c1,
            self._c2_raw,
            self._c3_total,
            None,
        )
        rec.pin_sites[group_key] = (side, start)
        self._move_counts(idx, len(slots), old_site, (side, start))
        table = self._stab[idx]
        offsets = table.offsets
        nsites = table.nsites
        base = _SIDE_SLOT[side] * nsites
        cx, cy = rec.center
        for k, p in enumerate(slots):
            s = base + (start + k) % nsites
            ox, oy = offsets[s] or table.offset(s)
            lox[p] = ox
            loy[p] = oy
            lpx[p] = cx + ox
            lpy[p] = cy + oy
        self._commit_c3(idx)
        self._span_delta(net_ids, snap.spans)
        cost = self._c1 + self.p2 * self._c2_raw + self._c3_total
        return (cost - cost_before, snap)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def _restore_pins(self, i, saved) -> None:
        xs, ys = saved
        start = self._pin_start[i]
        end = start + self._pin_count[i]
        self._lpx[start:end] = xs
        self._lpy[start:end] = ys

    def _restore_spans(self, spans) -> None:
        lsx = self._lsx
        lsy = self._lsy
        for e, sx, sy in spans:
            lsx[e] = sx
            lsy[e] = sy

    def _restore_overlaps(self, saved) -> None:
        overlaps = self._overlaps
        adj = self._adj
        for i, j, old in saved:
            key = (i, j) if i < j else (j, i)
            if old > 0.0:
                overlaps[key] = old
                adj[i].add(j)
                adj[j].add(i)
            else:
                overlaps.pop(key, None)
                adj[i].discard(j)
                adj[j].discard(i)

    def _restore_cell(self, i, rec_tuple, ebb, exp_ref, shape_ref) -> None:
        rec = self.records[i]
        rec.center, rec.orientation, rec.instance, rec.aspect_ratio = rec_tuple
        x1, y1, x2, y2, tiles = ebb
        self._lex1[i] = x1
        self._ley1[i] = y1
        self._lex2[i] = x2
        self._ley2[i] = y2
        self._ltiles[i] = tiles
        self._expanded[i] = exp_ref
        self._shapes[i] = shape_ref
        self._grid.update_coords(i, x1, y1, x2, y2)

    def restore(self, snap: ArraySnapshot) -> None:
        kind = snap.kind
        if kind == 2:
            i = snap.cells
            key, site = snap.pin_site
            sites = self.records[i].pin_sites
            self._move_counts(i, len(snap.pins), sites[key], site)
            sites[key] = site
            lpx = self._lpx
            lpy = self._lpy
            lox = self._lox
            loy = self._loy
            for p, px, py, ox, oy in snap.pins:
                lpx[p] = px
                lpy[p] = py
                lox[p] = ox
                loy[p] = oy
            self._restore_spans(snap.spans)
            self._c3[i] = snap.c3s
            self._c1 = snap.c1
            self._c3_total = snap.c3_total
            return
        if kind == 0:
            i = snap.cells
            self._restore_cell(i, snap.recs, snap.ebbs, snap.exp_refs,
                               snap.shape_refs)
            self._restore_pins(i, snap.pins)
            if snap.variants is not None:
                self._restore_variant(i, snap.variants)
            self._borders[i] = snap.borders
            self._c3[i] = snap.c3s
        else:
            a, b = snap.cells
            self._restore_cell(a, snap.recs[0], snap.ebbs[0],
                               snap.exp_refs[0], snap.shape_refs[0])
            self._restore_cell(b, snap.recs[1], snap.ebbs[1],
                               snap.exp_refs[1], snap.shape_refs[1])
            self._restore_pins(a, snap.pins[0])
            self._restore_pins(b, snap.pins[1])
            if snap.variants is not None:
                self._restore_variant(a, snap.variants[0])
                self._restore_variant(b, snap.variants[1])
            self._borders[a] = snap.borders[0]
            self._borders[b] = snap.borders[1]
            self._c3[a] = snap.c3s[0]
            self._c3[b] = snap.c3s[1]
        self._restore_spans(snap.spans)
        self._restore_overlaps(snap.overlaps)
        self._c1 = snap.c1
        self._c2_raw = snap.c2_raw
        self._c3_total = snap.c3_total

    # ------------------------------------------------------------------
    # accessors over the flat mirrors (the object caches go stale after
    # the first array move; everything below reads the mirror instead)
    # ------------------------------------------------------------------

    def pin_position(self, cell_name: str, pin_name: str) -> Tuple[float, float]:
        i = self.index[cell_name]
        p = self._pin_slot[i][pin_name]
        return (self._lpx[p], self._lpy[p])

    def expanded_shape(self, name: str) -> TileSet:
        idx = self.index[name]
        exp = self._expanded[idx]
        if exp is None:
            exp = self._expanded[idx] = self._materialize_expanded(idx)
        return exp

    def _materialize_expanded(self, idx: int) -> TileSet:
        tiles = self._ltiles[idx]
        if tiles is None:
            rects = [
                Rect(
                    self._lex1[idx],
                    self._ley1[idx],
                    self._lex2[idx],
                    self._ley2[idx],
                )
            ]
        else:
            rects = [Rect(*t) for t in tiles]
        out = TileSet.__new__(TileSet)
        out._tiles = tuple(rects)
        if len(rects) == 1:
            out._bbox = rects[0]
            out._area = rects[0].area
        else:
            out._bbox = Rect(
                self._lex1[idx],
                self._ley1[idx],
                self._lex2[idx],
                self._ley2[idx],
            )
            out._area = sum(r.area for r in rects)
        return out

    def chip_bbox(self) -> Rect:
        return Rect(
            min(self._lex1), min(self._ley1), max(self._lex2), max(self._ley2)
        )

    def teil(self) -> float:
        lsy = self._lsy
        return sum(sx + lsy[e] for e, sx in enumerate(self._lsx))

    def net_spans(self) -> Dict[str, Tuple[float, float]]:
        return {
            name: (self._lsx[e], self._lsy[e])
            for e, name in enumerate(self._net_names)
        }
