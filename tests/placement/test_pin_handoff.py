"""The batched refine's pin round without a session cycle.

At each refine temperature ``BatchMoveGenerator`` lends the open kernel
session to the serial pin-group moves (``BatchKernel.hand_off``: the
centers into the records, then ``ArrayPlacementState.adopt_centers``)
and takes it back (``BatchKernel.reopen``) instead of closing it with a
full ``rebuild()`` and opening it again.  Pin moves return
``cost - cost_before``, so the hand-off must produce the very floats a
``rebuild()`` would, and the reopened kernel the very tables a fresh
``begin()`` would: every check here is ``==``, not a tolerance.
"""

import random

import numpy as np
import pytest

from repro.annealing import RangeLimiter
from repro.bench import CircuitSpec, generate_circuit
from repro.estimator import determine_core
from repro.geometry import BOTTOM, LEFT, RIGHT, TOP
from repro.placement import MoveGenerator, make_placement_state
from repro.placement.batch import BatchKernel


def _state(seed, n=14, dynamic=True):
    """A randomized array state with custom cells (uncommitted pin
    groups) and L/T-shaped macros (multi-tile), in stage-1 dynamic or
    stage-2 static expansion mode.  A non-integer kappa makes C3 terms
    non-integers, so a running C3 total and a fresh sum can differ in
    the last bits."""
    spec = CircuitSpec(
        name="handoff", num_cells=n, num_nets=2 * n, num_pins=5 * n,
        seed=seed, custom_fraction=0.35, rectilinear_fraction=0.6,
    )
    circuit = generate_circuit(spec)
    for cell in circuit.custom_cells():
        # A coarse pitch gives every site capacity 1: pins that share a
        # site pay C3.
        cell.pin_pitch = 10.0
    state = make_placement_state(
        "array", circuit, determine_core(circuit), kappa=2.37
    )
    rng = random.Random(seed)
    state.randomize(rng)
    if not dynamic:
        state.set_static_expansions({
            name: {side: rng.uniform(0.0, 6.0) for side in (LEFT, BOTTOM, RIGHT, TOP)}
            for name in state.names
        })
    assert any(t is not None for t in state._ltiles), "no multi-tile cell"
    return state


def _pin_moves(state, rng, count):
    """Accepted pin-group moves on random custom cells, crowded onto two
    sides and two starting sites so that pins share sites: pin sites,
    pin offsets and C3 move away from the last rebuild()."""
    groups = [(i, key) for i, gs in enumerate(state._groups) for key, _ in gs]
    for _ in range(count):
        i, key = rng.choice(groups)
        state.move_pin_group(i, key, rng.choice((LEFT, BOTTOM)), rng.randrange(2))


def _scatter(state, rng):
    """Arbitrary centers: some clustered so cells overlap, some past the
    core's edges so border terms are non-zero."""
    core = state.core
    hubs = [(rng.uniform(core.x1, core.x2), rng.uniform(core.y1, core.y2))
            for _ in range(3)]
    for rec in state.records:
        kind = rng.random()
        if kind < 0.4:
            hx, hy = rng.choice(hubs)
            rec.center = (hx + rng.uniform(-5, 5), hy + rng.uniform(-5, 5))
        elif kind < 0.6:
            past = rng.uniform(0, 30)
            x = core.x1 - past if rng.random() < 0.5 else core.x2 + past
            rec.center = (x, rng.uniform(core.y1 - 30, core.y2 + 30))
        else:
            rec.center = (rng.uniform(core.x1, core.x2), rng.uniform(core.y1, core.y2))


def _handed_over(state):
    return (
        list(state._lpx), list(state._lpy), list(state._lsx), list(state._lsy),
        state._c1, state._c2_raw, state._c3_total,
    )


class TestHandOffEqualsRebuild:
    @pytest.mark.parametrize("dynamic", [True, False], ids=["dynamic", "static"])
    @pytest.mark.parametrize("seed", range(6))
    def test_pins_spans_and_totals(self, seed, dynamic):
        state = _state(seed, dynamic=dynamic)
        rng = random.Random(100 + seed)
        c2_seen = border_seen = c3_seen = 0
        for _ in range(4):
            _pin_moves(state, rng, 12)
            _scatter(state, rng)
            state.adopt_centers()
            got = _handed_over(state)
            state.rebuild()
            assert got == _handed_over(state)
            c2_seen += state._c2_raw > 0.0
            border_seen += any(b > 0.0 for b in state._borders)
            c3_seen += state._c3_total > 0.0
        assert c2_seen and border_seen and c3_seen


def _session(seed, dynamic=False):
    state = _state(seed, n=16, dynamic=dynamic)
    _pin_moves(state, random.Random(seed), 20)
    state.rebuild()
    state.p2 = 0.7
    core = state.core
    limiter = RangeLimiter(
        full_span_x=core.width, full_span_y=core.height, t_infinity=100.0
    )
    moves = MoveGenerator(state, limiter, refine=True)
    assert moves.pin_cells
    kernel = BatchKernel(state)
    kernel.begin()
    return state, kernel, moves


def _assert_same_kernel(a, b):
    skip = {"state", "_scratch", "scratch_misses"}
    assert set(vars(a)) == set(vars(b))
    for name, want in vars(b).items():
        if name in skip:
            continue
        got = getattr(a, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        elif isinstance(want, tuple):
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), name
        else:
            assert got == want, name


def _loop_noff(kernel):
    """The per-(net, owner) offset table as ``begin()`` built it with a
    Python loop over every pin, before the loop became segment
    reductions (the reference the vectorized builder must equal)."""
    state = kernel.state
    live = [e for e, mem in enumerate(state._nmem) if mem]
    noff = np.full_like(kernel.noff, -np.inf)
    noff[0, :, len(live)] = 0.0
    for r, e in enumerate(live):
        by_owner = {}
        for p in state._nmem[e]:
            c = int(kernel.pin_cell[p])
            ox = state._lpx[p] - kernel.centers[c, 0]
            oy = state._lpy[p] - kernel.centers[c, 1]
            g = by_owner.get(c)
            if g is None:
                by_owner[c] = [ox, oy, ox, oy]
            else:
                g[0] = min(g[0], ox)
                g[1] = min(g[1], oy)
                g[2] = max(g[2], ox)
                g[3] = max(g[3], oy)
        for s, g in enumerate(by_owner.values()):
            noff[s, :, r] = (g[2], g[3], -g[0], -g[1])
    return noff


class TestReopenEqualsBegin:
    @pytest.mark.parametrize("seed", range(4))
    def test_tables_after_pin_rounds(self, seed):
        state, kernel, moves = _session(seed)
        rng = random.Random(seed)
        nprng = np.random.default_rng(seed)
        window = (state.core.width / 3, state.core.height / 3)
        accepted = 0
        c3s = {kernel.c3}
        for t in (1e9, 50.0, 1.0):
            for _ in range(3):
                kernel.displacement_batch(8, t, window, nprng)
            kernel.hand_off()
            accepted += moves.pin_round(t, rng, rounds=2)[1]
            kernel.reopen()
            c3s.add(kernel.c3)
            fresh = BatchKernel(state)
            fresh.begin()
            _assert_same_kernel(kernel, fresh)
            assert np.array_equal(kernel.noff, _loop_noff(kernel))
        assert accepted and len(c3s) > 1

    @pytest.mark.parametrize("seed", range(3))
    def test_replays_the_session_cycle(self, seed):
        """The hand-off/reopen path makes the same pin moves, with the
        same deltas, as closing the session around the round."""
        runs = []
        for cycle in (True, False):
            state, kernel, moves = _session(seed)
            rng = random.Random(seed)
            nprng = np.random.default_rng(seed)
            window = (state.core.width / 3, state.core.height / 3)
            deltas = []
            move = state.move_pin_group

            def recorded(*args):
                delta, snap = move(*args)
                deltas.append(delta)
                return delta, snap

            state.move_pin_group = recorded
            for t in (1e9, 20.0, 0.5):
                kernel.displacement_batch(8, t, window, nprng)
                if cycle:
                    kernel.finish()
                    moves.pin_round(t, rng)
                    kernel.begin()
                else:
                    kernel.hand_off()
                    moves.pin_round(t, rng)
                    kernel.reopen()
            kernel.finish()
            runs.append((
                deltas,
                [(r.center, sorted(r.pin_sites.items())) for r in state.records],
                (state._c1, state._c2_raw, state._c3_total),
            ))
        assert runs[0] == runs[1]


def _old_cell_c3(state, idx, cache):
    """``PlacementState._cell_c3`` before its signature cache was
    dropped, verbatim apart from the cache living in ``cache``."""
    if state._is_macro[idx] or not state._groups[idx]:
        return 0.0
    cell = state.cell(idx)
    record = state.records[idx]
    sig = (record.aspect_ratio, state.kappa, tuple(record.pin_sites.values()))
    hit = cache.get(sig)
    if hit is not None:
        return hit
    width, height = cell.dimensions(record.aspect_ratio)
    nsites = cell.sites_per_edge
    pitch = cell.pin_pitch
    occupancy = {}
    for key, members in state._groups[idx]:
        side, start = record.pin_sites[key]
        for k in range(len(members)):
            site = (side, (start + k) % nsites)
            occupancy[site] = occupancy.get(site, 0) + 1
    penalty = 0.0
    for (side, _), count in occupancy.items():
        edge_len = height if side in (LEFT, RIGHT) else width
        capacity = max(1, int(edge_len / pitch / nsites))
        if count > capacity:
            excess = count - capacity + state.kappa
            penalty += excess * excess
    cache[sig] = penalty
    return penalty


class TestCellC3:
    def test_matches_the_cached_formula(self):
        spec = CircuitSpec(
            name="c3", num_cells=10, num_nets=30, num_pins=120, seed=4,
            custom_fraction=1.0, mean_cell_edge=60.0,
        )
        circuit = generate_circuit(spec)
        # Fine and coarse pitches: sites of capacity 1 and above.
        for k, cell in enumerate(circuit.custom_cells()):
            cell.pin_pitch = 1.0 if k % 2 else 10.0
        state = make_placement_state(
            "array", circuit, determine_core(circuit), kappa=2.37
        )
        rng = random.Random(4)
        caches = [dict() for _ in state.names]
        custom = [i for i, groups in enumerate(state._groups) if groups]
        capacities = set()
        zero = penalised = one_shared = 0
        for _ in range(600):
            i = rng.choice(custom)
            cell = state.cell(i)
            rec = state.records[i]
            rec.aspect_ratio = cell.aspect.clamp(rng.uniform(0.2, 5.0))
            # Few sides and starts: shared sites are common.
            sides = rng.sample((LEFT, BOTTOM, RIGHT, TOP), rng.randint(1, 4))
            for key, _ in state._groups[i]:
                rec.pin_sites[key] = (rng.choice(sides), rng.randrange(3))
            width, height = cell.dimensions(rec.aspect_ratio)
            for edge in (width, height):
                capacities.add(
                    max(1, int(edge / cell.pin_pitch / cell.sites_per_edge))
                )
            want = _old_cell_c3(state, i, caches[i])
            assert state._cell_c3(i) == want
            nsites = cell.sites_per_edge
            sites = [
                (side, (start + k) % nsites)
                for key, members in state._groups[i]
                for side, start in [rec.pin_sites[key]]
                for k in range(len(members))
            ]
            zero += want == 0.0
            penalised += want > 0.0
            one_shared += want > 0.0 and len(set(sites)) == len(sites) - 1
        assert min(capacities) == 1 and max(capacities) > 1
        assert zero and penalised and one_shared
