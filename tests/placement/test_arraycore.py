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

from repro.annealing import RangeLimiter
from repro.bench import CircuitSpec, generate_circuit
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
