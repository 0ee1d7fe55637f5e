"""Bit-identity and round-trip properties of the array placement core.

``ArrayPlacementState`` is only allowed to exist because it is
*indistinguishable* from the object core: same accept/reject decisions,
same cost accumulators, bit for bit, over any move sequence.  These
tests replay long fixed-seed walks over randomized circuits (macro
orientations, multi-instance macros, custom cells with grouped and
sequenced pins) under both cores and compare everything exactly — not
to a tolerance.  A ``state_dict`` must likewise load losslessly into
either core.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import RangeLimiter
from repro.bench import CircuitSpec, crowded_circuit, generate_circuit
from repro.estimator import determine_core
from repro.geometry import BOTTOM, LEFT, RIGHT, TOP
from repro.netlist import CustomCell, MacroCell
from repro.placement import (
    ArrayPlacementState,
    BatchMoveGenerator,
    MoveGenerator,
    PlacementState,
    make_placement_state,
)
from repro.placement.arraycore import _SIDE_SLOT

from ..conftest import make_mixed_circuit
from .test_state_properties import mixed_move_sequence

#: Randomized-circuit population for the property tests: custom-heavy,
#: macro-only, and the default mix, across sizes and seeds.  The bench
#: generator emits multi-instance macros (``multi_instance_fraction``)
#: and custom cells with grouped/sequenced pins, so every snapshot
#: field of both cores is exercised.
SPECS = [
    CircuitSpec(name="prop_a", num_cells=12, num_nets=24, num_pins=60, seed=3,
                custom_fraction=0.5),
    CircuitSpec(name="prop_b", num_cells=20, num_nets=40, num_pins=100, seed=5,
                custom_fraction=0.0, multi_instance_fraction=0.6),
    CircuitSpec(name="prop_c", num_cells=16, num_nets=32, num_pins=80, seed=8,
                custom_fraction=0.25),
]


def _pair(spec, seed=0):
    """The same randomized placement under both cores."""
    circuit = generate_circuit(spec)
    plan = determine_core(circuit)
    obj = make_placement_state("object", circuit, plan)
    arr = make_placement_state("array", circuit, plan)
    obj.randomize(random.Random(seed))
    arr.randomize(random.Random(seed))
    return obj, arr


def assert_cost_identical(obj, arr):
    """The accumulators must agree EXACTLY — no tolerance."""
    assert arr._c1 == obj._c1
    assert arr._c2_raw == obj._c2_raw
    assert arr._c3_total == obj._c3_total
    assert arr.cost() == obj.cost()


class TestFactory:
    def test_make_placement_state_dispatch(self):
        circuit = make_mixed_circuit()
        plan = determine_core(circuit)
        assert type(make_placement_state("object", circuit, plan)) is PlacementState
        assert isinstance(
            make_placement_state("array", circuit, plan), ArrayPlacementState
        )

    def test_unknown_core_rejected(self):
        circuit = make_mixed_circuit()
        with pytest.raises(ValueError, match="unknown placement core"):
            make_placement_state("simd", circuit, determine_core(circuit))


class TestRoundTrip:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_object_array_round_trip_bit_identical(self, spec):
        """object -> array -> object through ``load_state_dict``
        preserves the full state_dict and the history-exact cost
        accumulators bit-for-bit, after a long mixed walk has aged the
        object state's accumulators."""
        obj, arr = _pair(spec)
        mixed_move_sequence(obj, 120, seed=13)

        arr.load_state_dict(obj.state_dict())
        assert arr.state_dict() == obj.state_dict()
        assert_cost_identical(obj, arr)

        back = make_placement_state("object", arr.circuit, arr.plan)
        back.load_state_dict(arr.state_dict())
        assert back.state_dict() == obj.state_dict()
        assert_cost_identical(obj, back)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_round_trip_after_array_moves(self, spec):
        """The other direction: age the ARRAY state with moves, load its
        state_dict into an object state, and compare the accumulators
        and every record field (centers, orientations, instances,
        aspect ratios, pin sites)."""
        back, arr = _pair(spec)
        mixed_move_sequence(arr, 120, seed=17)
        back.load_state_dict(arr.state_dict())
        assert back.state_dict() == arr.state_dict()
        assert_cost_identical(back, arr)
        for ra, rb in zip(arr.records, back.records):
            assert (ra.center, ra.orientation, ra.instance) == (
                rb.center,
                rb.orientation,
                rb.instance,
            )
            assert ra.aspect_ratio == rb.aspect_ratio
            assert dict(ra.pin_sites) == dict(rb.pin_sites)


class TestReplayIdentity:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_mixed_sequence_cost_identical(self, spec):
        """The shared mixed move/restore walk (displace, inverted,
        swap, orientation, pin-group, ~half restored) leaves both cores
        with bit-identical accumulators, and every per-move delta
        agrees exactly."""
        obj, arr = _pair(spec)
        assert_cost_identical(obj, arr)
        mixed_move_sequence(obj, 200, seed=0)
        mixed_move_sequence(arr, 200, seed=0)
        assert_cost_identical(obj, arr)

    def test_500_move_generator_walk_identical(self):
        """ISSUE acceptance property: a seeded 500-move MoveGenerator
        walk (the real §3.2.1 cascade, metropolis decisions included)
        replays with identical per-step attempts, accepts, and cost."""
        spec = CircuitSpec(
            name="walk", num_cells=30, num_nets=60, num_pins=150, seed=2,
            custom_fraction=0.25,
        )
        traces = {}
        for core in ("object", "array"):
            circuit = generate_circuit(spec)
            plan = determine_core(circuit)
            state = make_placement_state(core, circuit, plan)
            state.randomize(random.Random(0))
            limiter = RangeLimiter(
                full_span_x=state.core.width,
                full_span_y=state.core.height,
                t_infinity=500.0,
            )
            generator = MoveGenerator(state, limiter)
            rng = random.Random(4)
            trace = []
            for _ in range(500):
                attempts, accepts = generator.step(50.0, rng)
                trace.append((attempts, accepts, state.cost()))
            traces[core] = (trace, dict(generator.stats), state.state_dict())
        assert traces["array"][0] == traces["object"][0]
        assert traces["array"][1] == traces["object"][1]
        assert traces["array"][2] == traces["object"][2]

    def test_500_move_stage2_walk_identical(self):
        """The refine anneal's setting (§4.3): static per-side
        expansions and the stage-2 move set (displacements and pin-group
        moves only) at a stage-2 temperature.  Per-step attempts,
        accepts and cost, the move stats, the state_dict and every pin
        position replay bit-identically."""
        spec = CircuitSpec(
            name="refine", num_cells=16, num_nets=32, num_pins=80, seed=8,
            custom_fraction=0.5,
        )
        runs = {}
        for core in ("object", "array"):
            circuit = generate_circuit(spec)
            state = make_placement_state(core, circuit, determine_core(circuit))
            state.randomize(random.Random(0))
            state.set_static_expansions(
                {
                    name: {
                        LEFT: 1.0 + k % 3,
                        BOTTOM: 0.5,
                        RIGHT: 2.0,
                        TOP: 0.25 * (k + 1),
                    }
                    for k, name in enumerate(state.names)
                }
            )
            limiter = RangeLimiter(
                full_span_x=state.core.width,
                full_span_y=state.core.height,
                t_infinity=500.0,
            )
            generator = MoveGenerator(state, limiter, refine=True)
            temperature = limiter.temperature_for_fraction(0.03)
            rng = random.Random(4)
            trace = []
            for _ in range(500):
                attempts, accepts = generator.step(temperature, rng)
                trace.append((attempts, accepts, state.cost()))
            pins = [
                state.pin_position(name, pin)
                for name in state.names
                for pin in circuit.cells[name].pins
            ]
            runs[core] = (trace, generator.stats, state.state_dict(), pins)
        obj, arr = runs["object"], runs["array"]
        assert arr[0] == obj[0]
        assert arr[1] == obj[1]
        assert arr[2] == obj[2]
        assert arr[3] == obj[3]
        # The walk exercised both stage-2 move kinds, with accepts and
        # rejects, and nothing else.
        stats = arr[1]
        for kind in ("displace", "pin_group"):
            attempts, accepts = stats[kind]
            assert 0 < accepts < attempts, (kind, stats[kind])
        assert all(
            stats[kind][0] == 0 for kind in stats
            if kind not in ("displace", "pin_group")
        )

    def test_500_move_crowded_walk_identical(self):
        """The benchmark's crowded walk: the mixed anneal over a
        ``crowded_circuit`` (two sites per edge, site capacities 1 and 2)
        at kappa 2.37.  C3 is positive along it, so the penalty's
        positive branch is compared too: per-step attempts, accepts,
        cost and C3, the move stats, the state_dict and every pin
        position replay bit-identically."""
        spec = CircuitSpec(
            name="crowded50", num_cells=50, num_nets=100, num_pins=300,
            custom_fraction=0.5,
        )
        runs = {}
        for core in ("object", "array"):
            circuit = crowded_circuit(spec)
            state = make_placement_state(
                core, circuit, determine_core(circuit), kappa=2.37
            )
            state.randomize(random.Random(0))
            limiter = RangeLimiter(
                full_span_x=state.core.width,
                full_span_y=state.core.height,
                t_infinity=500.0,
            )
            generator = MoveGenerator(state, limiter)
            rng = random.Random(4)
            trace = []
            for _ in range(500):
                attempts, accepts = generator.step(50.0, rng)
                trace.append((attempts, accepts, state.cost(), state.c3()))
            pins = [
                state.pin_position(name, pin)
                for name in state.names
                for pin in circuit.cells[name].pins
            ]
            runs[core] = (trace, generator.stats, state.state_dict(), pins)
        obj, arr = runs["object"], runs["array"]
        assert arr[0] == obj[0]
        assert arr[1] == obj[1]
        assert arr[2] == obj[2]
        assert arr[3] == obj[3]
        assert any(c3 > 0.0 for _, _, _, c3 in arr[0])
        for kind in ("pin_group", "aspect", "orientation"):
            assert arr[1][kind][0] > 0, kind

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_accumulators_match_rebuild(self, spec):
        """After a long array-core walk the incremental accumulators
        still agree with a from-scratch rebuild (the object-core
        invariant, inherited)."""
        _, arr = _pair(spec)
        mixed_move_sequence(arr, 150, seed=29)
        c1, c2, c3 = arr._c1, arr._c2_raw, arr._c3_total
        arr.rebuild()
        assert arr._c1 == pytest.approx(c1, rel=1e-9, abs=1e-6)
        assert arr._c2_raw == pytest.approx(c2, rel=1e-9, abs=1e-6)
        assert arr._c3_total == pytest.approx(c3, rel=1e-9, abs=1e-6)


#: The site-count property walks' circuit: 8 cells, 4 of them custom with
#: scarce pin sites.
SITES_CIRCUIT = crowded_circuit(
    CircuitSpec(name="sites", num_cells=8, num_nets=16, num_pins=48, seed=5,
                custom_fraction=0.5)
)

#: One walk step: (kind, seed of its parameters, restore it?).  Kinds 0-6
#: are moves; 7 rebuilds, 8 round-trips the state_dict, 9 hands new
#: centers over with ``adopt_centers``.
WALK_STEP = st.tuples(st.integers(0, 9), st.integers(0, 2**32 - 1), st.booleans())


def _walk_move(state, kind, rng):
    """Apply move ``kind`` with parameters from ``rng``; its snapshot."""
    n = len(state.names)
    customs = [i for i in range(n) if state._has_groups[i]]
    i = rng.randrange(n)
    if kind == 0:
        i = rng.choice(customs)
        key, _ = rng.choice(state._groups[i])
        cell = state.cell(i)
        side = (LEFT, RIGHT, BOTTOM, TOP)[rng.randrange(4)]
        return state.move_pin_group(i, key, side, rng.randrange(cell.sites_per_edge))
    if kind == 1:
        return state.move_cell_inverted(i, state.records[i].center)
    if kind == 2:
        return state.move_cell(i, orientation=rng.randrange(8))
    if kind == 3:
        i = rng.choice(customs)
        spec = state.cell(i).aspect
        return state.move_cell(i, aspect_ratio=rng.uniform(spec.lo, spec.hi))
    j = (i + 1 + rng.randrange(n - 1)) % n
    if kind == 4:
        return state.swap_cells(i, j)
    if kind == 5:
        return state.swap_cells_inverted(i, j)
    target = (rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0))
    return state.move_cell(i, center=target)


def assert_sites_canonical(state):
    """Each custom cell's C3, site counts, shared sites, site table and
    pin mirrors equal what the object core's reference code gives."""
    for i in range(len(state.names)):
        if state._is_macro[i]:
            continue
        rec = state.records[i]
        cell = state.cell(i)
        nsites = cell.sites_per_edge
        assert state._c3[i] == PlacementState._cell_c3(state, i)
        counts = [0] * (4 * nsites)
        for key, members in state._groups[i]:
            side, start = rec.pin_sites[key]
            for k in range(len(members)):
                counts[_SIDE_SLOT[side] * nsites + (start + k) % nsites] += 1
        assert state._socc[i] == counts
        assert state._sshared[i] == {s for s, c in enumerate(counts) if c > 1}
        table = state._stab[i]
        assert table.key == (rec.aspect_ratio, rec.orientation)
        shape = state._oriented_shape(i).bbox
        assert state._cgeom[i] == (shape.x1, shape.y1, shape.x2, shape.y2, None)
        positions = state._pin_positions(i)
        offsets = state._pin_offset_cache[i][
            (rec.aspect_ratio, rec.orientation, tuple(rec.pin_sites.values()))
        ]
        start = state._pin_start[i]
        for k, name in enumerate(state._pin_names[i]):
            p = start + k
            assert (state._lox[p], state._loy[p]) == offsets[name]
            assert (state._lpx[p], state._lpy[p]) == positions[name]


def _sites_state():
    state = make_placement_state(
        "array", SITES_CIRCUIT, determine_core(SITES_CIRCUIT), kappa=2.37
    )
    state.randomize(random.Random(1))
    assert_sites_canonical(state)
    return state


def _checked_step(state, kind, rng, undo):
    """One walk step, then ``assert_sites_canonical``.  A move may call
    ``_cell_c3`` only as the over-capacity fallback: when a site holds
    more pins than its side's capacity, so the penalty is positive."""
    if kind == 7:
        state.rebuild()
    elif kind == 8:
        state.load_state_dict(state.state_dict())
    elif kind == 9:
        for rec in state.records:
            x, y = rec.center
            rec.center = (x + rng.uniform(-5.0, 5.0), y)
        state.adopt_centers()
        assert_sites_canonical(state)
        state.rebuild()
    else:
        fallbacks = []

        def fallback(i):
            fallbacks.append(PlacementState._cell_c3(state, i))
            return fallbacks[-1]

        state._cell_c3 = fallback
        _, snap = _walk_move(state, kind, rng)
        if undo:
            state.restore(snap)
        del state._cell_c3
        assert all(value > 0.0 for value in fallbacks)
    assert_sites_canonical(state)


class TestSiteCounts:
    """The array core's per-custom-cell site counts and site tables, and
    the C3 it derives from them, over random walks of every move kind
    that touches a custom cell, accepted or restored, and of the paths
    that resynchronize the mirrors."""

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(WALK_STEP, min_size=1, max_size=30))
    def test_counts_tables_and_c3_track_every_step(self, steps):
        state = _sites_state()
        for kind, seed, undo in steps:
            _checked_step(state, kind, random.Random(seed), undo)

    def test_seeded_walk_reaches_both_capacities(self):
        """A seeded 400-step walk of the same kinds passes the same
        checks, and along it a shared site sits within a capacity of 2
        (C3 stays 0.0, no recount) and a site overfills its capacity
        (the fallback)."""
        state = _sites_state()
        rng = random.Random(3)
        within = over = 0
        for _ in range(400):
            _checked_step(state, rng.randrange(10), rng, rng.random() < 0.5)
            for i in range(len(state.names)):
                if not state._has_groups[i]:
                    continue
                table = state._stab[i]
                for s in state._sshared[i]:
                    cap = table.caps[s // table.nsites]
                    if state._socc[i][s] > cap:
                        over += 1
                    elif cap >= 2:
                        within += 1
        assert within > 0 and over > 0


class TestBatchGenerator:
    def _arr(self, n=24, seed=0):
        spec = CircuitSpec(
            name="batch", num_cells=n, num_nets=2 * n, num_pins=5 * n, seed=6,
            custom_fraction=0.25,
        )
        circuit = generate_circuit(spec)
        arr = make_placement_state("array", circuit, determine_core(circuit))
        arr.randomize(random.Random(seed))
        return arr

    def test_batched_accumulators_match_fresh_evaluation(self):
        """The batched kernel's incremental cost agrees with a full
        fresh evaluation after hundreds of accepted moves."""
        arr = self._arr()
        limiter = RangeLimiter(
            full_span_x=arr.core.width,
            full_span_y=arr.core.height,
            t_infinity=500.0,
        )
        generator = BatchMoveGenerator(arr, limiter, batch=16, seed=3)
        generator.begin()
        rng = random.Random(0)
        total_attempts = total_accepts = 0
        for _ in range(40):
            a, acc = generator.step(50.0, rng)
            total_attempts += a
            total_accepts += acc
        generator.finish()
        assert total_attempts > 0
        assert total_accepts > 0
        c1, c2, c3 = arr.cost_breakdown_fresh()
        assert arr._c1 == pytest.approx(c1, rel=1e-9, abs=1e-6)
        assert arr._c2_raw == pytest.approx(c2, rel=1e-9, abs=1e-6)
        assert arr._c3_total == pytest.approx(c3, rel=1e-9, abs=1e-6)

    def test_batched_stats_cover_both_kinds(self):
        arr = self._arr()
        limiter = RangeLimiter(
            full_span_x=arr.core.width,
            full_span_y=arr.core.height,
            t_infinity=500.0,
        )
        generator = BatchMoveGenerator(arr, limiter, batch=12, seed=1)
        generator.begin()
        rng = random.Random(0)
        for _ in range(60):
            generator.step(50.0, rng)
        generator.finish()
        stats = generator.stats
        assert stats["displace_batch"][0] > 0
        assert stats["interchange_batch"][0] > 0

    def test_batched_is_deterministic_per_seed(self):
        runs = []
        for _ in range(2):
            arr = self._arr()
            limiter = RangeLimiter(
                full_span_x=arr.core.width,
                full_span_y=arr.core.height,
                t_infinity=500.0,
            )
            generator = BatchMoveGenerator(arr, limiter, batch=16, seed=9)
            generator.begin()
            rng = random.Random(0)
            trace = []
            for _ in range(25):
                trace.append(generator.step(50.0, rng) + (arr.cost(),))
            generator.finish()
            runs.append(trace)
        assert runs[0] == runs[1]


class TestVectorizedCost:
    def test_accessors_read_the_mirror(self):
        """pin_position / net_spans / teil / chip_bbox keep working
        after array moves invalidate the object caches."""
        obj, arr = _pair(SPECS[0])
        mixed_move_sequence(obj, 40, seed=37)
        mixed_move_sequence(arr, 40, seed=37)
        assert arr.teil() == obj.teil()
        assert arr.net_spans() == obj.net_spans()
        assert arr.chip_bbox() == obj.chip_bbox()
        for name in list(arr.index)[:5]:
            cell = arr.cell(arr.index[name])
            for pin in list(cell.pins)[:3]:
                assert arr.pin_position(name, pin) == obj.pin_position(name, pin)
