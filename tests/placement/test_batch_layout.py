"""The batched kernel's per-pair C1 tables against the owner-slot-last
layout they replaced.

``BatchKernel`` keeps, for every (cell, net) pair, the cell's own
extremes on the net and the extremes over the net's other owners, so a
displacement's new span is max(own + shift, others) with no owner axis.
The original layout kept every owner slot of every pair, last, and
reduced over them.  Max, min and negation are exact and the einsums see
the same operands, so the spans, C1 and the displacement ΔC1 must agree
exactly — not to a tolerance — after any sequence of displacement and
interchange batches.  ``LastAxisReference`` is that original table
build, ``_refresh_spans`` and ``_disp_dc1``, kept verbatim apart from
the scratch-buffer pool.  The interchange ΔC1 of each pair is checked
against the oracle's C1 of the swapped placement, to rounding: a
difference of two totals adds the same terms in another order.

The inputs cover the edges of the leave-one-out extremes: cells snapped
to a coarse grid, so that several owners share a net's extreme (a
pin-for-pin copy of a macro makes that certain on the coarsest grid), a
net with a single owner, and a cell with no live nets (a row of
sentinel entries).
"""

import random
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.bench import CircuitSpec, generate_circuit
from repro.estimator import determine_core
from repro.netlist import Circuit, MacroCell
from repro.placement import make_placement_state
from repro.placement.batch import BatchKernel


class LastAxisReference:
    """Owner-slot-last C1 tables built from the kernel's state at
    ``begin()``, evaluated over the kernel's live centers."""

    def __init__(self, kernel: BatchKernel) -> None:
        state = kernel.state
        n = len(state.names)
        self.n = n
        centers = np.array([r.center for r in state.records], dtype=np.float64)
        P = len(state._lpx)
        pin_cell = np.zeros(max(P, 1), dtype=np.int64)
        for i in range(n):
            s = state._pin_start[i]
            pin_cell[s : s + state._pin_count[i]] = i
        live = [e for e, mem in enumerate(state._nmem) if mem]
        nlive = len(live)
        R = nlive + 1
        groups = []
        for e in live:
            by_owner = {}
            for p in state._nmem[e]:
                c = int(pin_cell[p])
                ox = state._lpx[p] - centers[c, 0]
                oy = state._lpy[p] - centers[c, 1]
                g = by_owner.get(c)
                if g is None:
                    by_owner[c] = [ox, oy, ox, oy]
                else:
                    g[0] = min(g[0], ox)
                    g[1] = min(g[1], oy)
                    g[2] = max(g[2], ox)
                    g[3] = max(g[3], oy)
            groups.append(by_owner)
        cm = max((len(g) for g in groups), default=1)
        cm = 1 << (cm - 1).bit_length()
        self.nowner = np.zeros((R, cm), dtype=np.int64)
        self.noffmin = np.zeros((2, R, cm), dtype=np.float64)
        self.noffmax = np.zeros((2, R, cm), dtype=np.float64)
        for r, by_owner in enumerate(groups):
            for s, (c, g) in enumerate(by_owner.items()):
                self.nowner[r, s] = c
                self.noffmin[0, r, s] = g[0]
                self.noffmin[1, r, s] = g[1]
                self.noffmax[0, r, s] = g[2]
                self.noffmax[1, r, s] = g[3]
            w = len(by_owner)
            if w:
                self.nowner[r, w:] = self.nowner[r, 0]
                self.noffmin[:, r, w:] = self.noffmin[:, r, 0:1]
                self.noffmax[:, r, w:] = self.noffmax[:, r, 0:1]
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
        self.own = self.nowner[self.cnet]
        self.mine = (self.own == np.arange(n)[:, None, None]).astype(np.float64)
        self.wcell = self.w2[:, self.cnet]

    @staticmethod
    def _hmax(g):
        s = g.shape[-1]
        while s > 1:
            s //= 2
            g = np.maximum(g[..., :s], g[..., s:])
        return g[..., 0]

    @staticmethod
    def _hmin(g):
        s = g.shape[-1]
        while s > 1:
            s //= 2
            g = np.minimum(g[..., :s], g[..., s:])
        return g[..., 0]

    def refresh_spans(self, cxy):
        """``_refresh_spans``, the C1 total and ``_refresh_c1_tables``."""
        base = np.take(cxy, self.nowner, axis=1)
        self.nhi = base + self.noffmax
        self.nlo = base + self.noffmin
        self.cur_s = self._hmax(self.nhi) - self._hmin(self.nlo)
        self.c1 = float(np.einsum("cr,cr->", self.w2, self.cur_s))
        self.bhi = np.take(self.nhi, self.cnet, axis=1)
        self.blo = np.take(self.nlo, self.cnet, axis=1)
        self.cs_cell = np.take(self.cur_s, self.cnet, axis=1)

    def disp_dc1(self, cells, d):
        df = np.zeros((self.n, 2))
        df[cells] = d
        hi = df.T[:, :, None, None] * self.mine
        lo = self.blo + hi
        hi = self.bhi + hi
        ns = self._hmax(hi) - self._hmin(lo)
        ns = ns - self.cs_cell
        dall = np.einsum("cnm,cnm->n", self.wcell, ns)
        return dall[cells]


def _edited(circuit):
    """The circuit with a single-owner net (two pins of one macro moved
    to a net of their own), a pinless macro (no live nets), and a
    pin-for-pin copy of another macro (ties wherever the two coincide)."""
    a, b, c = [cell for cell in circuit.cells.values() if cell.is_macro][:3]
    cells = []
    for cell in circuit.cells.values():
        if cell is a:
            pins = [
                replace(pin, net="solo", equiv_class=None) if k < 2 else pin
                for k, pin in enumerate(cell.pins.values())
            ]
            cell = MacroCell(cell.name, pins, cell.instances)
        elif cell is b:
            cell = MacroCell(cell.name, [], cell.instances)
        elif cell is c:
            cell = MacroCell(cell.name, list(a.pins.values()), a.instances)
        cells.append(cell)
    return Circuit(circuit.name, cells, track_spacing=circuit.track_spacing)


def _snap(state, points):
    """Move every cell, in its first instance and orientation, to the
    nearest of ``points`` x ``points`` grid points spread over the core
    (one point: the core center)."""
    core = state.core
    gx, gy = core.width / points, core.height / points
    for rec in state.records:
        x, y = rec.center
        jx = min(points - 1, max(0, int((x - core.x1) // gx)))
        jy = min(points - 1, max(0, int((y - core.y1) // gy)))
        rec.center = (core.x1 + (jx + 0.5) * gx, core.y1 + (jy + 0.5) * gy)
        rec.orientation = 0
        rec.instance = 0
    state.rebuild()
    return gx, gy


def _kernel(seed, n, custom, edited=False, points=0):
    spec = CircuitSpec(
        name="layout", num_cells=n, num_nets=2 * n, num_pins=5 * n,
        seed=seed, custom_fraction=custom, multi_instance_fraction=0.3,
    )
    circuit = generate_circuit(spec)
    if edited:
        circuit = _edited(circuit)
    state = make_placement_state("array", circuit, determine_core(circuit))
    state.randomize(random.Random(seed))
    grid = _snap(state, points) if points else None
    state.p2 = 1.0
    kernel = BatchKernel(state)
    kernel.begin()
    return kernel, grid


class TestOwnerAxisLayout:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 24),
        custom=st.sampled_from([0.0, 0.25, 0.6]),
        batch=st.integers(1, 16),
        edited=st.booleans(),
        points=st.sampled_from([0, 1, 3]),
    )
    def test_spans_c1_and_disp_dc1_match_last_axis_layout(
        self, seed, n, custom, batch, edited, points
    ):
        # The edits need three macros.
        assume(not edited or n - round(custom * n) >= 3)
        kernel, grid = _kernel(seed, n, custom, edited, points)
        ref = LastAxisReference(kernel)
        ref.refresh_spans(kernel.cxy)
        assert np.array_equal(kernel.cur_s, ref.cur_s)
        assert kernel.c1 == ref.c1
        rng = np.random.default_rng(seed)
        window = (kernel.state.core.width / 4, kernel.state.core.height / 4)
        commits = 0
        for step in range(12):
            cells = rng.permutation(kernel.movable)[:batch]
            if grid is None:
                d = rng.uniform(-window[0], window[0], size=(len(cells), 2))
            else:
                # Whole grid steps land moved cells on shared extremes.
                d = rng.integers(-2, 3, size=(len(cells), 2)) * grid
            assert np.array_equal(kernel._disp_dc1(cells, d), ref.disp_dc1(cells, d))
            # Interchange deltas against the oracle's C1 of each swap.
            k = min(batch, len(kernel.movable) // 2)
            pair = rng.permutation(kernel.movable)[: 2 * k]
            a, b = pair[:k], pair[k:]
            got = kernel._swap_dc1(a, b, kernel.centers[b] - kernel.centers[a])
            swapped_c1 = []
            for i, j in zip(a, b):
                swapped = kernel.cxy.copy()
                swapped[:, [i, j]] = swapped[:, [j, i]]
                ref.refresh_spans(swapped)
                swapped_c1.append(ref.c1)
            ref.refresh_spans(kernel.cxy)
            want = np.array(swapped_c1) - ref.c1
            assert np.allclose(got, want, rtol=0.0, atol=1e-9 * max(ref.c1, 1.0))
            # The first batch displaces and accepts every proposal, so a
            # commit happens even when every cell shares one center.
            temperature = 1e9 if step == 0 else float(rng.choice([0.0, 5.0, 1e9]))
            before = kernel.cxy.copy()
            if step == 0 or rng.random() < 0.5:
                kernel.displacement_batch(batch, temperature, window, rng)
            else:
                kernel.interchange_batch(batch, temperature, rng)
            commits += not np.array_equal(before, kernel.cxy)
            ref.refresh_spans(kernel.cxy)
            assert np.array_equal(kernel.cur_s, ref.cur_s)
            assert kernel.c1 == ref.c1
        assert commits > 0
