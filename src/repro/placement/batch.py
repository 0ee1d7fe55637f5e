"""Batched move proposal/acceptance over the struct-of-arrays mirror.

The serial array kernel (``ArrayPlacementState``) replays the object
core bit-for-bit, but each move still pays interpreter overhead for a
few dozen scalar operations — a hard floor around 10^4 moves/sec.  This
module is the throughput path: it evaluates *batches* of displacement
and interchange proposals with vectorized numpy C1/C2 delta evaluation
and accepts each proposal with the Metropolis rule.

Semantics (synchronous batched SA, PARSAC-style)
------------------------------------------------

Every proposal in a batch touches distinct cells and is evaluated
against the state *frozen at the start of the batch*; all accepted
proposals are then committed together and the exact totals recomputed
(vectorized, from scratch) before the next batch.  Within a batch the
interaction between two accepted moves is therefore not reflected in
their acceptance deltas — the standard synchronous-parallel annealing
approximation.  The committed state and its cost totals are always
exact; only the accept decisions use slightly stale deltas.  Batch size
trades throughput against fidelity: ``batch=1`` is ordinary serial SA.

The kernel runs a *session*: ``begin()`` freezes the SoA mirrors into
numpy arrays, batches mutate those arrays only, and ``finish()`` writes
the surviving placement back through the object model (``rebuild()``),
restoring every serial-path invariant.  C3 never changes under a batch
(displacements and plain interchanges touch neither pin sites nor
aspect ratios), so it is carried as a constant.  The refine anneal's
pin-group moves run on the serial kernel without closing the session:
``hand_off()`` writes the centers into the records and brings only what
a pin move reads up to date (pins, spans, and the three totals exactly
as ``rebuild()`` computes them), and ``reopen()`` refreshes only what a
pin move changes (pin offsets, spans, C1 and C3).

``BatchMoveGenerator`` drives the kernel, one session per anneal, and
is itself the engine's annealing state.

Layout notes
------------

numpy dispatch and memory layout, not arithmetic, bound this kernel:

* Tiles live in four parallel coordinate vectors (``sx1``..``sy2``)
  rather than an (n, 4) matrix — broadcasting two strided column
  slices costs ~10x a contiguous broadcast.
* The static tile table is *compressed* (real tiles only) and
  augmented with one degenerate "dummy" slot (padding scatters land
  there) and the four border slabs, so border terms ride the same
  overlap pass as cell-vs-cell terms.
* Each commit refreshes ``O_tile`` — every tile's summed overlap with
  other cells' tiles and the slabs — so a later proposal reads its
  "old contribution" with a single gather instead of a second overlap
  pass.
* Net membership is padded with a zero-weight *sentinel net*, which
  makes padded entries exact no-ops without a single ``np.where`` mask.
* A net's span tables stack (hi_x, hi_y, -lo_x, -lo_y), so one max
  covers both ends: a min is the negated max of negated values, and
  max, min and negation are exact.  The owner-slot table ``ntab``
  (cm, 4, R) is padded with -inf and refreshed per commit; one top-2
  halving pass over its slots gives every net's span and its first and
  second extremes, each step one contiguous ufunc call.
* The per-cell C1 tables have no owner axis: each (cell, net) pair keeps
  ``own`` (its own extremes) and ``others`` (the extremes over the net's
  other owners: the second where it holds the first, else the first),
  each (4, n, netmax).  A displacement's new extreme is
  max(own + shift, others), so a batch's ΔC1 is a few calls over one
  small table.  Both are gathered per commit by a 1-D ``take`` through
  a precomputed flat index (``own_idx``, ``top_idx``).
* Every ``np.take`` into an ``out=`` buffer passes ``mode="clip"``.
  Under the default ``mode="raise"`` numpy stages ``out`` through a
  temporary copy; the indices are in range by construction, so
  clipping never changes a value.
* Not every hot operation is a contiguous ufunc call: the interchange
  batch gathers its cells' per-pair rows, and the owner-slot rows of the
  nets both cells of a pair own, with fancy indexing, and ``_own_sum``
  and the per-commit refresh gather single elements through flat
  indices.  The ``_buf`` pool keeps the displacement batch and the
  refreshes free of new scratch arrays in steady state; the proposal
  draws, the accepted subsets and the interchange batch still allocate.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..annealing.engine import AnnealingState
from ..telemetry import current_tracer
from .arraycore import ArrayPlacementState
from .moves import telemetry_fields

__all__ = ["BatchKernel", "BatchMoveGenerator"]

#: The batched move kinds (mirrors ``MOVE_KINDS`` for the serial path).
BATCH_KINDS = ("displace_batch", "interchange_batch")


class BatchKernel:
    """Vectorized displacement / interchange batches over an array state."""

    def __init__(self, state: ArrayPlacementState) -> None:
        self.state = state
        self._active = False
        #: Reusable scratch arrays keyed by (call site, shape): batch
        #: shapes are fixed within a session, so after the first sweep
        #: of each kind every hot operation lands in a preallocated
        #: buffer.  ``scratch_misses`` counts pool allocations — a flat
        #: counter across sweeps is the "no per-sweep allocations"
        #: invariant the e2e bench asserts.
        self._scratch: Dict[Any, np.ndarray] = {}
        self.scratch_misses = 0
        # Fused tent-function gather columns: (x1,x2,xc,y1,y2,yc) →
        # left/bottom/right/top factor pairs (see _expansions).
        self._exp_i1 = np.array([0, 2, 1, 2], dtype=np.intp)
        self._exp_i2 = np.array([5, 3, 5, 4], dtype=np.intp)

    def _buf(self, key, shape, dtype=np.float64) -> np.ndarray:
        arr = self._scratch.get(key)
        if arr is None or arr.shape != tuple(shape) or arr.dtype != dtype:
            self._scratch[key] = arr = np.empty(shape, dtype=dtype)
            self.scratch_misses += 1
        return arr

    def _irows(self, k: int) -> np.ndarray:
        """Cached (k, tmax) row-index table for the flattened-gather
        path of _own_sum (contents are constant per shape)."""
        key = ("rows", k)
        arr = self._scratch.get(key)
        if arr is None:
            self._scratch[key] = arr = np.arange(
                k * self.tmax, dtype=np.int64
            ).reshape(k, self.tmax)
            self.scratch_misses += 1
        return arr

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Freeze the SoA mirrors into numpy arrays for batched annealing."""
        state = self.state
        n = len(state.names)
        self.n = n
        self.movable = np.array(
            [i for i in range(n) if state.movable[i]], dtype=np.int64
        )
        self.centers = np.array(
            [r.center for r in state.records], dtype=np.float64
        )
        #: (4, n) stacked coordinate rows (x, y, -x, -y) of the same
        #: centers — the hot C1 path gathers per-coordinate; kept in
        #: sync by _commit.  ``cxy`` is its (x, y) half.
        self.cxy4 = np.concatenate([self.centers.T, -self.centers.T])
        self.cxy = self.cxy4[:2]

        # Oriented local tiles.  Orientation, instance, and aspect are
        # all frozen during a session, so these tables are static.
        local = []
        for i in range(n):
            gkey, _ = state._variant_keys(i)
            ox1, oy1, ox2, oy2, tiles = state._geom_flat(i, gkey)
            local.append(((ox1, oy1, ox2, oy2), tiles or ((ox1, oy1, ox2, oy2),)))
        tmax = max(len(t) for _, t in local)
        self.tmax = tmax
        # Local tiles padded with inverted boxes (+inf, +inf, -inf, -inf):
        # any finite translation keeps them inverted, and the overlap
        # kernel's relu clamps their area to zero — no masks needed.
        self.ltx1 = np.full((n, tmax), np.inf)
        self.lty1 = np.full((n, tmax), np.inf)
        self.ltx2 = np.full((n, tmax), -np.inf)
        self.lty2 = np.full((n, tmax), -np.inf)
        for i, (_, tiles) in enumerate(local):
            arr = np.asarray(tiles, dtype=np.float64)
            c = len(tiles)
            self.ltx1[i, :c] = arr[:, 0]
            self.lty1[i, :c] = arr[:, 1]
            self.ltx2[i, :c] = arr[:, 2]
            self.lty2[i, :c] = arr[:, 3]
        #: (4, n, tmax) stacked view — _world gathers all four planes at once.
        self.lt = np.stack([self.ltx1, self.lty1, self.ltx2, self.lty2])

        # Expansion model: either the closed-form dynamic estimator
        # (vectorized tent functions) or the static per-side table.
        est = state.estimator
        self.dynamic = state.dynamic_expansion
        if self.dynamic:
            cx, cy = est._cx, est._cy
            hw, hh = est._half_w, est._half_h
            p = est.profile
            # Stacked tent-function parameters for the fused 6-column
            # evaluation: columns (x1, x2, xc, y1, y2, yc).
            self._tc = np.array([cx, cx, cx, cy, cy, cy])
            self._th = np.array([hw, hw, hw, hh, hh, hh])
            self._tm = np.array([p.m_x] * 3 + [p.m_y] * 3)
            sx = (p.m_x - p.b_x) / hw
            sy = (p.m_y - p.b_y) / hh
            self._ts = np.array([sx, sx, sx, sy, sy, sy])
            basefrp = np.full((n, 4), est._base)
            for i in range(n):
                dens = state._dens8[i]
                if dens is not None:
                    o = state.records[i].orientation
                    basefrp[i] *= [est.frp(d) for d in dens[o]]
            self.basefrp = basefrp
            # Local bbox in fused column order (x1, x2, xc, y1, y2, yc).
            bb = np.array([b for b, _ in local], dtype=np.float64)
            self.obb6 = np.column_stack(
                [
                    bb[:, 0],
                    bb[:, 2],
                    (bb[:, 0] + bb[:, 2]) / 2.0,
                    bb[:, 1],
                    bb[:, 3],
                    (bb[:, 1] + bb[:, 3]) / 2.0,
                ]
            )
        else:
            self.stat = np.array(state._stat4, dtype=np.float64)

        # Compressed static tile table: T real tile slots (contiguous
        # per cell), one dummy slot, then the four border slabs.
        counts = [len(t) for _, t in local]
        self.cell_off = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=self.cell_off[1:])
        T = int(sum(counts))
        self.T = T
        S = T + 1 + 4
        self.S = S
        #: (n, tmax) slot of each padded local tile; padding → dummy T.
        self.slotidx = np.full((n, tmax), T, dtype=np.int64)
        for i, c in enumerate(counts):
            self.slotidx[i, :c] = self.cell_off[i] + np.arange(c)
        self.sx1 = np.full(S, np.inf)
        self.sy1 = np.full(S, np.inf)
        self.sx2 = np.full(S, -np.inf)
        self.sy2 = np.full(S, -np.inf)
        tile_cell = np.full(S, -2, dtype=np.int64)
        for i in range(n):
            tile_cell[self.cell_off[i] : self.cell_off[i] + counts[i]] = i
        # Expanded world tiles of every cell at its current center,
        # computed with the kernel's own vectorized expansion math (not
        # the object caches): commits scatter _world outputs into this
        # table, so building it from _world makes every slot a pure
        # function of (local geometry, center) — which is what lets a
        # resumed session reconstruct the mid-anneal table bit-for-bit.
        allc = np.arange(n, dtype=np.int64)
        wx1, wy1, wx2, wy2 = self._world(allc, self.centers, "init")
        idx = self.slotidx.ravel()
        self.sx1[idx] = wx1.ravel()
        self.sy1[idx] = wy1.ravel()
        self.sx2[idx] = wx2.ravel()
        self.sy2[idx] = wy2.ravel()
        # Padding rows scattered into the dummy slot; restore its
        # canonical inverted box.
        self.sx1[T] = np.inf
        self.sy1[T] = np.inf
        self.sx2[T] = -np.inf
        self.sy2[T] = -np.inf
        for t, (x1, y1, x2, y2) in enumerate(state._slab4):
            self.sx1[T + 1 + t] = x1
            self.sy1[T + 1 + t] = y1
            self.sx2[T + 1 + t] = x2
            self.sy2[T + 1 + t] = y2
            tile_cell[T + 1 + t] = -1
        self.tile_cell = tile_cell
        # Pair-count weights: 1 between tiles of different owners (the
        # dummy never overlaps; slab-vs-slab shares owner -1 → 0), so
        # C2 = Σ ov·V / 2 — both cell pairs and borders appear twice.
        self.V = (tile_cell[:, None] != tile_cell[None, :]).astype(np.float64)

        # Pin ownership (needed to group net members by owner below).
        P = len(state._lpx)
        self.pin_cell = np.zeros(max(P, 1), dtype=np.int64)
        for i in range(n):
            s = state._pin_start[i]
            self.pin_cell[s : s + state._pin_count[i]] = i

        # Live nets plus a zero-weight sentinel net (row R-1).  Members
        # are collapsed to one slot per (net, owner cell) carrying the
        # owner's static pin-offset extremes — a net's span only needs
        # each owner's min/max offset plus its live center, and the
        # collapsed width is the distinct-owner count, not the pin
        # count.  Per-cell net lists are padded with the sentinel, whose
        # zero weight makes its contribution exactly 0.0.  No masks
        # anywhere.
        live = [e for e, mem in enumerate(state._nmem) if mem]
        nlive = len(live)
        R = nlive + 1
        groups = []
        for e in live:
            by_owner = {}
            for p in state._nmem[e]:
                by_owner.setdefault(int(self.pin_cell[p]), []).append(p)
            groups.append(by_owner)
        hw = np.asarray(state._nh, dtype=np.float64)
        vw = np.asarray(state._nv, dtype=np.float64)
        self.w2 = np.zeros((2, R), dtype=np.float64)
        self.w2[0, :nlive] = hw[live]
        self.w2[1, :nlive] = vw[live]
        live_row = {e: r for r, e in enumerate(live)}
        cell_nets = [
            [live_row[e] for e in state._cnets[i] if e in live_row]
            for i in range(n)
        ]
        netmax = max((len(x) for x in cell_nets), default=1) or 1
        self.cnet = np.full((n, netmax), nlive, dtype=np.int64)
        for i, ids in enumerate(cell_nets):
            self.cnet[i, : len(ids)] = ids
        self.wcell = self.w2[:, self.cnet]

        # Stacked (hi_x, hi_y, -lo_x, -lo_y) owner-slot tables, slot
        # axis first: ``noff`` holds each owner's static offset extremes
        # and ``ntab`` (refreshed per commit) its live extremes.  Slots
        # are padded to a power of two (at least 2) with -inf, which no
        # max ever picks, so no padded slot counts as another owner.
        # The sentinel's slot 0 is cell 0's center with zero offsets, so
        # its span is exactly 0.0; its slot 1 stays -inf and is every
        # cell's own slot on it.
        cm = max((len(g) for g in groups), default=1)
        cm = max(2, 1 << (cm - 1).bit_length())
        self.cm = cm
        self.nowner = np.zeros((cm, R), dtype=np.int64)
        # Each (net, owner) slot's member pins, flat and contiguous per
        # slot, for _refresh_noff's segment reductions.
        slot_pins, starts, slot_idx, net_idx = [], [], [], []
        for r, by_owner in enumerate(groups):
            for s, (c, pins) in enumerate(by_owner.items()):
                self.nowner[s, r] = c
                starts.append(len(slot_pins))
                slot_pins.extend(pins)
                slot_idx.append(s)
                net_idx.append(r)
        self._slot_pins = np.array(slot_pins, dtype=np.int64)
        self._slot_cell = self.pin_cell[self._slot_pins]
        self._slot_start = np.array(starts, dtype=np.int64)
        self._slot_at = (
            np.array(slot_idx, dtype=np.int64),
            np.array(net_idx, dtype=np.int64),
        )
        self.noff = np.full((cm, 4, R), -np.inf)
        self.noff[0, :, nlive] = 0.0
        self._refresh_noff()
        slot = [{c: s for s, c in enumerate(g)} for g in groups]
        own_slot = np.ones((n, netmax), dtype=np.int64)
        for i, ids in enumerate(cell_nets):
            own_slot[i, : len(ids)] = [slot[r][i] for r in ids]
        planes = np.arange(4, dtype=np.int64)
        #: Flat index of each (plane, slot, net) center into ``cxy4``.
        self.base_idx = planes[None, :, None] * n + self.nowner[:, None, :]
        #: Flat index of each (plane, cell, net) pair's own slot into the
        #: raveled ``ntab``, and of its net's first and second extremes
        #: into the raveled ``top`` (slot group 0): one 1-D take each per
        #: refresh.
        self.own_idx = (
            (own_slot[None] * 4 + planes[:, None, None]) * R + self.cnet
        )
        top_planes = np.stack([planes, planes + 2 * cm])
        self.top_idx = top_planes[:, :, None, None] * R + self.cnet

        core = state.core
        self.core_lo = np.array([core.x1, core.y1])
        self.core_hi = np.array([core.x2, core.y2])

        # Persistent center-dependent tables, preallocated once per
        # session so the per-commit refreshes are pure out= ufunc calls.
        self.R = R
        self.netmax = netmax
        self.ntab = np.empty((cm, 4, R))
        #: Top-2 halving pass: ``top[0, j]``/``top[1, j]`` hold the
        #: first/second extremes of slot group j, and group 0 ends with
        #: every net's; ``top_min`` is the pass's scratch.
        self.top = np.empty((2, cm // 2, 4, R))
        self.top_min = np.empty((max(1, cm // 4), 4, R))
        self.cur_s = np.empty((2, R))
        self.own = np.empty((4, n, netmax))
        #: (first, second) extremes of each pair's net; after a refresh
        #: ``others`` (row 0) is the extreme over the net's other owners.
        self.pair_top = np.empty((2, 4, n, netmax))
        self.others = self.pair_top[0]
        self.cs_cell = np.empty((2, n, netmax))
        self.O_tile = np.empty(S)
        self.O_cell = np.empty(n)

        self.p2 = state.p2
        self.c3 = state._c3_total
        self.c1 = self._c1_total()
        self._refresh_c1_tables()
        self._refresh_overlaps()
        self._active = True

    def _refresh_noff(self) -> None:
        """Each (net, owner) slot's pin-offset extremes, stacked (hi_x,
        hi_y, -lo_x, -lo_y), from the state's pin mirrors: offsets are
        pin minus center, and max, min and negation are exact."""
        state = self.state
        s, r = self._slot_at
        for axis, mirror in enumerate((state._lpx, state._lpy)):
            off = np.asarray(mirror)[self._slot_pins]
            off -= self.centers[self._slot_cell, axis]
            self.noff[s, axis, r] = np.maximum.reduceat(off, self._slot_start)
            self.noff[s, axis + 2, r] = -np.minimum.reduceat(off, self._slot_start)

    def finish(self) -> None:
        """Write the batch-mode placement back through the object model.

        ``rebuild()`` restores every serial-path structure (grid,
        overlaps, adjacency, object caches) from the records, and the
        accumulators are left at the canonical from-scratch values — the
        same contract as ``PlacementState.resync()``.
        """
        self._write_centers()
        self.state.rebuild()
        self._active = False

    def hand_off(self) -> None:
        """Lend the session's placement to the serial kernel's pin-group
        moves: the centers go into the records, and the array state
        brings pins, spans and its totals up to them
        (``adopt_centers``) without a ``rebuild()``.  The session's
        tables stay as they are, for :meth:`reopen`."""
        self._write_centers()
        self.state.adopt_centers()

    def reopen(self) -> None:
        """Take the placement back after the pin-group moves, with the
        tables a fresh :meth:`begin` would build.  Pin moves change no
        center, variant or expansion, so the tile table, the overlap
        sums, C2 and the index tables stand; the pin offsets, the spans,
        C1 and its tables are refreshed, and C3 is the serial state's."""
        self._refresh_noff()
        self.c1 = self._c1_total()
        self._refresh_c1_tables()
        self.c3 = self.state._c3_total

    def _write_centers(self) -> None:
        """Copy the session's centers into the records (no rebuild)."""
        for i, rec in enumerate(self.state.records):
            rec.center = (float(self.centers[i, 0]), float(self.centers[i, 1]))

    def export_state_dict(self) -> Dict[str, Any]:
        """A checkpoint payload of the *live* mid-session placement.

        The session's centers are written through to the records (which
        is all ``state_dict`` reads — no rebuild) and the accumulator
        snapshot is patched with the kernel's exact running totals, so a
        resume that loads this payload and calls :meth:`begin` lands on
        bit-for-bit the same kernel state this session is in.
        """
        self._write_centers()
        data = self.state.state_dict()
        data["accumulators"] = {
            "c1": self.c1,
            "c2_raw": self.c2,
            "c3_total": self.c3,
        }
        return data

    def cost(self) -> float:
        return self.c1 + self.p2 * self.c2 + self.c3

    # ------------------------------------------------------------------
    # vectorized cost pieces
    # ------------------------------------------------------------------

    def _refresh_spans(self) -> None:
        """Per-net (x, y) spans, and each net's first and second extremes
        per stacked plane, from one top-2 halving pass over the owner
        slots (a tie at the extreme makes the second equal the first)."""
        t = self.ntab
        np.take(self.cxy4.reshape(-1), self.base_idx, out=t, mode="clip")
        np.add(t, self.noff, out=t)
        first, second = self.top
        h = self.cm // 2
        np.maximum(t[:h], t[h:], out=first)
        np.minimum(t[:h], t[h:], out=second)
        while h > 1:
            g, h = h, h // 2
            m = self.top_min[:h]
            np.minimum(first[:h], first[h:g], out=m)
            np.maximum(first[:h], first[h:g], out=first[:h])
            np.maximum(second[:h], second[h:g], out=second[:h])
            np.maximum(second[:h], m, out=second[:h])
        np.add(first[0, :2], first[0, 2:], out=self.cur_s)

    def _refresh_c1_tables(self) -> None:
        """Every (cell, net) pair's own extremes and its co-owners'
        extremes: the net's second extreme where the pair holds its
        first, the first otherwise."""
        pt = self.pair_top
        np.take(self.top.reshape(-1), self.top_idx, out=pt, mode="clip")
        np.add(pt[0, :2], pt[0, 2:], out=self.cs_cell)
        np.take(self.ntab.reshape(-1), self.own_idx, out=self.own, mode="clip")
        held = self._buf("held", self.own.shape, dtype=np.bool_)
        np.equal(self.own, pt[0], out=held)
        np.copyto(pt[0], pt[1], where=held)

    def _refresh_overlaps(self) -> None:
        """Recompute the exact C2 total and the per-tile / per-cell
        interaction sums from the static tile table (one S×S pass)."""
        S = self.S
        w = self._buf("ovl_w", (S, S))
        h = self._buf("ovl_h", (S, S))
        t = self._buf("ovl_t", (S, S))
        np.minimum(self.sx2[:, None], self.sx2[None, :], out=w)
        np.maximum(self.sx1[:, None], self.sx1[None, :], out=t)
        np.subtract(w, t, out=w)
        np.minimum(self.sy2[:, None], self.sy2[None, :], out=h)
        np.maximum(self.sy1[:, None], self.sy1[None, :], out=t)
        np.subtract(h, t, out=h)
        np.maximum(w, 0.0, out=w)
        np.maximum(h, 0.0, out=h)
        np.multiply(w, h, out=w)
        np.einsum("ij,ij->i", w, self.V, out=self.O_tile)
        self.c2 = 0.5 * float(self.O_tile.sum())
        np.add.reduceat(self.O_tile[: self.T], self.cell_off, out=self.O_cell)

    def _c1_total(self) -> float:
        self._refresh_spans()
        return float(np.einsum("cr,cr->", self.w2, self.cur_s))

    def _expansions(
        self, cells: np.ndarray, centers: np.ndarray, tag: str
    ) -> np.ndarray:
        """(K, 4) outward (left, bottom, right, top) expansions of the
        given cells at the given centers — the vectorized Eqn-2 model,
        evaluated as one fused 6-column tent-function pass.  ``tag``
        names the call site for scratch-buffer reuse."""
        k = len(cells)
        if not self.dynamic:
            out = self._buf((tag, "stat"), (k, 4))
            np.take(self.stat, cells, axis=0, out=out, mode="clip")
            return out
        pts = self._buf((tag, "pts"), (k, 6))
        np.take(self.obb6, cells, axis=0, out=pts, mode="clip")
        pts[:, :3] += centers[:, 0:1]
        pts[:, 3:] += centers[:, 1:2]
        np.subtract(pts, self._tc, out=pts)
        np.abs(pts, out=pts)
        np.minimum(pts, self._th, out=pts)
        np.multiply(pts, self._ts, out=pts)
        np.subtract(self._tm, pts, out=pts)
        # left = fx(x1)·fy(yc), bottom = fx(xc)·fy(y1),
        # right = fx(x2)·fy(yc), top = fx(xc)·fy(y2)
        a = self._buf((tag, "ea"), (k, 4))
        b = self._buf((tag, "eb"), (k, 4))
        np.take(pts, self._exp_i1, axis=1, out=a, mode="clip")
        np.take(pts, self._exp_i2, axis=1, out=b, mode="clip")
        np.multiply(a, b, out=a)
        np.take(self.basefrp, cells, axis=0, out=b, mode="clip")
        np.multiply(a, b, out=a)
        return a

    def _world(
        self, cells: np.ndarray, centers: np.ndarray, tag: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Expanded world tiles of cells at given centers as four
        (K, tmax) coordinate planes (padding stays inverted)."""
        e = self._expansions(cells, centers, tag)
        k = len(cells)
        off = self._buf((tag, "off"), (4, k))
        np.subtract(centers[:, 0], e[:, 0], out=off[0])
        np.subtract(centers[:, 1], e[:, 1], out=off[1])
        np.add(centers[:, 0], e[:, 2], out=off[2])
        np.add(centers[:, 1], e[:, 3], out=off[3])
        w = self._buf((tag, "wt"), (4, k, self.tmax))
        np.take(self.lt, cells, axis=1, out=w, mode="clip")
        np.add(w, off[:, :, None], out=w)
        return w[0], w[1], w[2], w[3]

    def _vs_static(
        self,
        x1: np.ndarray,
        y1: np.ndarray,
        x2: np.ndarray,
        y2: np.ndarray,
        tag: str,
    ) -> np.ndarray:
        """(rows, S) overlap of flattened proposal tiles against the
        full static table (slabs included, own tiles NOT excluded)."""
        rows = x1.size
        w = self._buf((tag, "vsw"), (rows, self.S))
        h = self._buf((tag, "vsh"), (rows, self.S))
        t = self._buf((tag, "vst"), (rows, self.S))
        np.minimum(x2.reshape(-1, 1), self.sx2, out=w)
        np.maximum(x1.reshape(-1, 1), self.sx1, out=t)
        np.subtract(w, t, out=w)
        np.minimum(y2.reshape(-1, 1), self.sy2, out=h)
        np.maximum(y1.reshape(-1, 1), self.sy1, out=t)
        np.subtract(h, t, out=h)
        np.maximum(w, 0.0, out=w)
        np.maximum(h, 0.0, out=h)
        np.multiply(w, h, out=w)
        return w

    def _own_sum(
        self, ov: np.ndarray, k: int, cells: np.ndarray, tag: str
    ) -> np.ndarray:
        """(K,) total of ``ov`` columns owned by each proposal's cell
        (ov is (k*tmax, S) row-major by proposal, C-contiguous)."""
        cols = self._buf((tag, "cols"), (k, self.tmax), dtype=np.int64)
        np.take(self.slotidx, cells, axis=0, out=cols, mode="clip")
        rows = self._irows(k)
        flat = self._buf((tag, "flat"), (k, self.tmax, self.tmax), dtype=np.int64)
        np.multiply(rows[:, :, None], self.S, out=flat)
        np.add(flat, cols[:, None, :], out=flat)
        g = self._buf((tag, "own"), (k, self.tmax, self.tmax))
        np.take(ov.reshape(-1), flat, out=g, mode="clip")
        out = self._buf((tag, "osum"), (k,))
        np.sum(g, axis=(1, 2), out=out)
        return out

    @staticmethod
    def _tiles_overlap(
        ax1, ay1, ax2, ay2, bx1, by1, bx2, by2
    ) -> np.ndarray:
        """(K,) overlap between two per-proposal tile groups, each given
        as (K, tmax) coordinate planes."""
        w = np.minimum(ax2[:, :, None], bx2[:, None, :]) - np.maximum(
            ax1[:, :, None], bx1[:, None, :]
        )
        h = np.minimum(ay2[:, :, None], by2[:, None, :]) - np.maximum(
            ay1[:, :, None], by1[:, None, :]
        )
        return (np.maximum(w, 0.0) * np.maximum(h, 0.0)).sum(axis=(1, 2))

    def _disp_dc1(self, cells: np.ndarray, d: np.ndarray) -> np.ndarray:
        """(K,) ΔC1 of displacing ``cells`` by ``d`` — computed for all
        cells at once over the per-pair tables (unmoved cells get an
        exactly-zero delta), then sliced to the batch.  A moved cell's
        new extreme on a net is max(own + shift, others): max, min and
        negation are exact, so this equals a full re-reduction."""
        df = self._buf("disp_df", (4, self.n))
        df.fill(0.0)
        df[:2, cells] = d.T
        np.negative(df[:2], out=df[2:])
        ext = self._buf("disp_ext", self.own.shape)
        np.add(self.own, df[:, :, None], out=ext)
        np.maximum(ext, self.others, out=ext)
        ns = self._buf("disp_ns", self.cs_cell.shape)
        np.add(ext[:2], ext[2:], out=ns)
        np.subtract(ns, self.cs_cell, out=ns)
        dall = self._buf("disp_dall", (self.n,))
        np.einsum("cnm,cnm->n", self.wcell, ns, out=dall)
        out = self._buf("disp_dc1", (len(cells),))
        np.take(dall, cells, out=out, mode="clip")
        return out

    def _swap_dc1(
        self, a: np.ndarray, b: np.ndarray, da: np.ndarray
    ) -> np.ndarray:
        """(K,) ΔC1 of moving cells ``a`` by ``da`` and ``b`` by ``-da``:
        every net of a or b, with nets in both lists counted once (via
        a's list).  A net only one of the pair owns, and the sentinel,
        move as in :meth:`_disp_dc1`; a net both own has two moved
        owners, so its new extremes come from its owner slots."""
        step = np.concatenate([da.T, -da.T])[:, :, None]
        na, nb = self.cnet[a], self.cnet[b]
        both = na[:, :, None] == nb[:, None, :]
        ext_a = np.maximum(self.own[:, a] + step, self.others[:, a])
        i, m = np.nonzero(both.any(axis=2) & (na < self.R - 1))
        nets = na[i, m]
        ow = self.nowner[:, None, nets]
        sh = step[:, i, 0]
        shift = sh * (ow == a[i]) - sh * (ow == b[i])
        ext_a[:, i, m] = (self.ntab[:, :, nets] + shift).max(axis=0)
        ext_b = np.maximum(self.own[:, b] - step, self.others[:, b])

        def terms(ext, rows):
            ns = ext[:2] + ext[2:]
            return (
                self.wcell[:, rows] * (ns - self.cs_cell[:, rows])
            ).sum(axis=0)

        shared = both.any(axis=1)
        return terms(ext_a, a).sum(axis=-1) + np.where(
            shared, 0.0, terms(ext_b, b)
        ).sum(axis=-1)

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------

    def displacement_batch(
        self,
        batch: int,
        temperature: float,
        window: Tuple[float, float],
        rng: np.random.Generator,
    ) -> Tuple[int, int]:
        """One batch of range-limited single-cell displacements.

        Returns (attempts, accepts).  Each step is uniform in
        ±``window`` per axis; ``BatchMoveGenerator`` passes the §3.2.2
        range limiter's full (x, y) span W(T), twice the ±W/2 reach of
        the serial Ds and Dr selectors.
        """
        if not self._active:
            raise RuntimeError("call begin() before running batches")
        k = min(batch, len(self.movable))
        cells = rng.permutation(self.movable)[:k]
        cur = self._buf("disp_cur", (k, 2))
        np.take(self.centers, cells, axis=0, out=cur, mode="clip")
        step = rng.uniform(-1.0, 1.0, size=(k, 2))
        step[:, 0] *= window[0]
        step[:, 1] *= window[1]
        targets = self._buf("disp_tgt", (k, 2))
        np.add(cur, step, out=targets)
        np.clip(targets, self.core_lo, self.core_hi, out=targets)

        nx1, ny1, nx2, ny2 = self._world(cells, targets, "d")
        ov = self._vs_static(nx1, ny1, nx2, ny2, "d")
        rowsum = self._buf("disp_rowsum", (k * self.tmax,))
        np.sum(ov, axis=1, out=rowsum)
        d_c2 = self._buf("disp_dc2", (k,))
        np.sum(rowsum.reshape(k, self.tmax), axis=1, out=d_c2)
        np.subtract(d_c2, self._own_sum(ov, k, cells, "d"), out=d_c2)
        oc = self._buf("disp_oc", (k,))
        np.take(self.O_cell, cells, out=oc, mode="clip")
        np.subtract(d_c2, oc, out=d_c2)

        move = self._buf("disp_move", (k, 2))
        np.subtract(targets, cur, out=move)
        d_c1 = self._disp_dc1(cells, move)

        np.multiply(d_c2, self.p2, out=d_c2)
        np.add(d_c1, d_c2, out=d_c2)
        accept = self._metropolis(d_c2, temperature, rng)
        if accept.any():
            self._commit(
                cells[accept],
                targets[accept],
                nx1[accept],
                ny1[accept],
                nx2[accept],
                ny2[accept],
            )
        return (k, int(accept.sum()))

    def interchange_batch(
        self, batch: int, temperature: float, rng: np.random.Generator
    ) -> Tuple[int, int]:
        """One batch of pairwise interchanges (§3.2.1 A2, not range
        limited); all cells across the batch are distinct."""
        if not self._active:
            raise RuntimeError("call begin() before running batches")
        k = min(batch, len(self.movable) // 2)
        if k < 1:
            return (0, 0)
        chosen = rng.permutation(self.movable)[: 2 * k]
        a = chosen[:k]
        b = chosen[k:]
        ca = self.centers[a]
        cb = self.centers[b]

        ax1, ay1, ax2, ay2 = self._world(a, cb, "ia")
        bx1, by1, bx2, by2 = self._world(b, ca, "ib")
        nx1 = np.concatenate([ax1, bx1])
        ny1 = np.concatenate([ay1, by1])
        nx2 = np.concatenate([ax2, bx2])
        ny2 = np.concatenate([ay2, by2])
        both = np.concatenate([a, b])
        ov = self._vs_static(nx1, ny1, nx2, ny2, "i")
        stat = ov.sum(axis=1).reshape(2 * k, self.tmax).sum(axis=1)
        stat -= self._own_sum(ov, 2 * k, both, "i1")
        stat -= self._own_sum(ov, 2 * k, np.concatenate([b, a]), "i2")
        new_static = stat[:k] + stat[k:]
        intra_new = self._tiles_overlap(
            ax1, ay1, ax2, ay2, bx1, by1, bx2, by2
        )
        # Old contribution straight from the cached per-cell interaction
        # sums; the a-b pair term is in both caches, subtract it once.
        sa = self.slotidx[a]
        sb = self.slotidx[b]
        intra_old = self._tiles_overlap(
            self.sx1[sa], self.sy1[sa], self.sx2[sa], self.sy2[sa],
            self.sx1[sb], self.sy1[sb], self.sx2[sb], self.sy2[sb],
        )
        d_c2 = (
            new_static + intra_new - (self.O_cell[a] + self.O_cell[b] - intra_old)
        )

        d_c1 = self._swap_dc1(a, b, cb - ca)
        accept = self._metropolis(d_c1 + self.p2 * d_c2, temperature, rng)
        if accept.any():
            acc2 = np.concatenate([accept, accept])
            self._commit(
                both[acc2],
                np.concatenate([cb[accept], ca[accept]]),
                nx1[acc2],
                ny1[acc2],
                nx2[acc2],
                ny2[acc2],
            )
        return (k, int(accept.sum()))

    @staticmethod
    def _metropolis(
        delta: np.ndarray, temperature: float, rng: np.random.Generator
    ) -> np.ndarray:
        if temperature <= 0.0:
            return delta <= 0.0
        # Branchless: downhill deltas clamp to exp(0) = 1, which every
        # draw from [0, 1) beats.
        z = np.clip(delta / temperature, 0.0, 700.0)
        return rng.random(delta.shape[0]) < np.exp(-z)

    def _commit(
        self,
        cells: np.ndarray,
        targets: np.ndarray,
        nx1: np.ndarray,
        ny1: np.ndarray,
        nx2: np.ndarray,
        ny2: np.ndarray,
    ) -> None:
        """Apply accepted proposals and refresh the exact totals."""
        self.centers[cells] = targets
        self.cxy[:, cells] = targets.T
        np.negative(self.cxy, out=self.cxy4[2:])
        idx = self.slotidx[cells].ravel()
        self.sx1[idx] = nx1.ravel()
        self.sy1[idx] = ny1.ravel()
        self.sx2[idx] = nx2.ravel()
        self.sy2[idx] = ny2.ravel()
        # Padding rows scattered inverted boxes into the dummy slot; put
        # it back to the canonical inverted box (last write wins, so a
        # real coordinate may have landed there — never read as valid,
        # but keep the table tidy for the next overlap pass).
        t = self.T
        self.sx1[t] = np.inf
        self.sy1[t] = np.inf
        self.sx2[t] = -np.inf
        self.sy2[t] = -np.inf
        # Exact totals of the committed state: accepted proposals were
        # judged against the frozen batch-start state, so their summed
        # deltas would double- or under-count interacting pairs.
        self.c1 = self._c1_total()
        self._refresh_c1_tables()
        self._refresh_overlaps()


class BatchMoveGenerator(AnnealingState):
    """Drives ``BatchKernel`` with the §3.2.1 displacement/interchange
    mixture, and is the engine's annealing state — the batched analogue
    of ``MoveGenerator`` (no cascade, no orientation or aspect moves).

    Every stochastic choice of the batches (kind mix, cells, steps,
    Metropolis draws) comes from the mover's own numpy stream, which the
    cursor's ``generator_state`` captures and restores, so a batched run
    resumes bit-for-bit against itself.

    ``refine`` makes every batch a displacement batch: the §4.3 refine
    anneal.  ``pin_round`` (the refine anneal's
    ``MoveGenerator.pin_round``; stage 1 passes none) runs at the first
    step of each temperature, on the serial kernel: pin moves rewrite
    pin sites and C3, which the kernel holds fixed.  The session stays
    open around it (one ``batch.pin_round`` span): the kernel hands its
    placement off to the array state and reopens on the result.

    The engine runs the mover inside one open session (``begin()`` ..
    ``finish()``), and the cost, the snapshots and the drift audit read
    the session's live placement.
    """

    #: The batch kinds this mover counts in ``stats``.
    KINDS = BATCH_KINDS

    def __init__(
        self,
        state: ArrayPlacementState,
        limiter,
        r_ratio: float = 10.0,
        batch: int = 48,
        seed: int = 0,
        refine: bool = False,
        pin_round: Optional[
            Callable[[float, random.Random], Tuple[int, int]]
        ] = None,
    ) -> None:
        if r_ratio <= 0:
            raise ValueError("r_ratio must be positive")
        if batch < 1:
            raise ValueError("batch must be at least 1")
        self.state = state
        self.kernel = BatchKernel(state)
        self.limiter = limiter
        self.displacement_probability = r_ratio / (1.0 + r_ratio)
        self.refine = refine
        self.batch = batch
        self.rng = np.random.default_rng(seed)
        self.pin_round = pin_round
        self._pin_round_due = False
        #: Move kind -> [attempts, accepts]: the batches over ``KINDS``,
        #: and the pin rounds as ``pin_group``.
        self.stats: Dict[str, List[int]] = {
            kind: [0, 0] for kind in (*BATCH_KINDS, "pin_group")
        }

    def begin(self) -> None:
        self.kernel.begin()

    def finish(self) -> None:
        self.kernel.finish()

    def on_temperature(self, temperature: float) -> None:
        self._pin_round_due = self.pin_round is not None

    def step(self, temperature: float, rng: random.Random) -> Tuple[int, int]:
        """A due pin round (drawing from ``rng``), then one batch:
        displacement with probability r/(1+r), else interchange (always
        a displacement in the refine anneal).  Returns (attempts,
        accepts)."""
        attempts = accepts = 0
        if self._pin_round_due:
            self._pin_round_due = False
            with current_tracer().span("batch.pin_round"):
                self.kernel.hand_off()
                attempts, accepts = self.pin_round(temperature, rng)
                self.kernel.reopen()
            row = self.stats["pin_group"]
            row[0] += attempts
            row[1] += accepts
        if self.refine or self.rng.random() < self.displacement_probability:
            window = (
                self.limiter.window_x(temperature),
                self.limiter.window_y(temperature),
            )
            a, c = self.kernel.displacement_batch(
                self.batch, temperature, window, self.rng
            )
            row = self.stats["displace_batch"]
        else:
            a, c = self.kernel.interchange_batch(
                self.batch, temperature, self.rng
            )
            row = self.stats["interchange_batch"]
        row[0] += a
        row[1] += c
        return (attempts + a, accepts + c)

    def cost(self) -> float:
        return self.kernel.cost()

    def moves_per_iteration(self) -> int:
        """Batches per A_c unit: ceil(N_c / batch).  A displacement
        batch proposes min(batch, movable cells) moves, so a temperature
        step evaluates A_c * N_c proposals only when N_c <= batch or
        batch divides N_c, and up to about twice that otherwise: at
        N_c = 50, batch 48 and A_c = 4, 384 proposals against the
        serial mover's 200."""
        return max(1, -(-len(self.state.names) // self.batch))

    def cost_drift(self) -> Dict[str, float]:
        """The drift guard's audit of the session's running totals
        against the object model's from-scratch recomputation at the
        session's centers.  The kernel recomputes C1 and C2 at every
        commit; C3 is carried in from ``begin()`` and each ``reopen()``,
        so this is what checks the pin rounds' incremental C3."""
        kernel = self.kernel
        kernel._write_centers()
        return self.state.cost_drift(held=(kernel.c1, kernel.c2, kernel.c3))

    def resync(self) -> None:
        """Canonical totals: the session is closed and reopened around
        the object model's rebuild."""
        self.finish()
        self.begin()

    def state_dict(self) -> Dict[str, Any]:
        """The session's live placement (``BatchKernel.export_state_dict``)."""
        return self.kernel.export_state_dict()

    def generator_state_dict(self) -> Dict[str, Any]:
        """The mover's private stream state (the numpy bit-generator),
        for bit-for-bit resume of batched runs."""
        return {"rng": self.rng.bit_generator.state}

    def load_generator_state(self, data: Dict[str, Any]) -> None:
        self.rng.bit_generator.state = data["rng"]

    def telemetry_snapshot(self, temperature: float) -> Dict[str, float]:
        """The trace fields from the session's live totals."""
        kernel = self.kernel
        return telemetry_fields(
            kernel.c1, kernel.c2, kernel.c3, kernel.p2, self.limiter, temperature
        )
