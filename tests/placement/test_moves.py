"""The generate cascade of §3.2.1 and its stage-2 restrictions."""

import random

import pytest

from repro.annealing import RangeLimiter
from repro.estimator import determine_core
from repro.placement import MoveGenerator, PlacementState

from ..conftest import make_macro_circuit, make_mixed_circuit


def make_setup(circuit=None, seed=0, **gen_kw):
    ckt = circuit if circuit is not None else make_macro_circuit()
    plan = determine_core(ckt)
    state = PlacementState(ckt, plan)
    state.randomize(random.Random(seed))
    limiter = RangeLimiter(
        plan.core.width, plan.core.height, t_infinity=1e5, rho=4.0
    )
    return state, MoveGenerator(state, limiter, **gen_kw)


class TestStepAccounting:
    def test_hot_steps_mostly_accept(self):
        state, gen = make_setup()
        rng = random.Random(1)
        attempts = accepts = 0
        for _ in range(100):
            a, c = gen.step(1e7, rng)
            attempts += a
            accepts += c
        assert attempts >= 100
        assert accepts / attempts > 0.9

    def test_cold_steps_mostly_reject_uphill(self):
        state, gen = make_setup()
        rng = random.Random(2)
        # Freeze: at T ~ 0 only downhill moves are kept.
        for _ in range(300):
            gen.step(1e-6, rng)
        cost_a = state.cost()
        for _ in range(100):
            gen.step(1e-6, rng)
        assert state.cost() <= cost_a + 1e-6

    def test_cost_stays_consistent_through_steps(self):
        state, gen = make_setup(make_mixed_circuit())
        rng = random.Random(3)
        for t in (1e6, 1e4, 1e2, 1.0):
            for _ in range(50):
                gen.step(t, rng)
        cost = state.cost()
        state.rebuild()
        assert state.cost() == pytest.approx(cost, rel=1e-9, abs=1e-6)


    def test_stats_count_every_attempt(self):
        """``stats`` holds [attempts, accepts] per move kind, and the
        kinds add up to what the steps returned."""
        state, gen = make_setup(make_mixed_circuit())
        rng = random.Random(4)
        attempts = accepts = 0
        for _ in range(60):
            a, c = gen.step(100.0, rng)
            attempts += a
            accepts += c
        assert list(gen.stats) == list(MoveGenerator.KINDS)
        assert all(0 <= c <= a for a, c in gen.stats.values())
        assert gen.stats["displace"][0] > 0
        assert sum(a for a, _ in gen.stats.values()) == attempts
        assert sum(c for _, c in gen.stats.values()) == accepts


class TestCascadeModes:
    def test_displacement_only_when_interchange_disabled(self):
        state, gen = make_setup(refine=True, r_ratio=0.001)
        # r_ratio tiny would make interchanges near-certain if enabled;
        # the refine move set has none, so every step is a displacement.
        rng = random.Random(4)
        for _ in range(50):
            a, c = gen.step(1e6, rng)
            assert a >= 1

    def test_stage2_freezes_orientation_and_aspect(self):
        ckt = make_mixed_circuit()
        state, gen = make_setup(ckt, refine=True)
        orientations = [r.orientation for r in state.records]
        aspects = [r.aspect_ratio for r in state.records]
        rng = random.Random(5)
        for t in (1e6, 1e3, 1.0):
            for _ in range(100):
                gen.step(t, rng)
        assert [r.orientation for r in state.records] == orientations
        assert [r.aspect_ratio for r in state.records] == aspects

    def test_stage1_changes_orientations(self):
        # Orientation changes fire when a displacement is rejected (the
        # A1' / A_o fallbacks), so run at temperatures cold enough for
        # rejections but warm enough to accept some reorientations.
        state, gen = make_setup(seed=6)
        orientations = [r.orientation for r in state.records]
        rng = random.Random(6)
        for t in (1e4, 1e3, 1e2, 1e1):
            for _ in range(200):
                gen.step(t, rng)
        assert [r.orientation for r in state.records] != orientations

    def test_pin_moves_happen(self):
        ckt = make_mixed_circuit()
        state, gen = make_setup(ckt, seed=7)
        idx = state.index["cust0"]
        sites_before = dict(state.records[idx].pin_sites)
        rng = random.Random(7)
        for _ in range(300):
            gen.step(1e7, rng)
        assert dict(state.records[idx].pin_sites) != sites_before

    def test_aspect_moves_happen(self):
        ckt = make_mixed_circuit()
        state, gen = make_setup(ckt, seed=8)
        idx = state.index["cust0"]
        rng = random.Random(8)
        for _ in range(300):
            gen.step(1e7, rng)
        assert state.records[idx].aspect_ratio != 1.0

    def test_centers_stay_in_core(self):
        state, gen = make_setup(seed=9)
        rng = random.Random(9)
        core = state.core
        for _ in range(300):
            gen.step(1e7, rng)
        for r in state.records:
            assert core.x1 <= r.center[0] <= core.x2
            assert core.y1 <= r.center[1] <= core.y2


class TestValidation:
    def test_bad_r_ratio(self):
        state, _ = make_setup()
        limiter = RangeLimiter(100, 100, 1e5)
        with pytest.raises(ValueError):
            MoveGenerator(state, limiter, r_ratio=0)

    def test_bad_selector(self):
        state, _ = make_setup()
        limiter = RangeLimiter(100, 100, 1e5)
        with pytest.raises(ValueError):
            MoveGenerator(state, limiter, selector="bogus")

    def test_dr_selector_works(self):
        state, gen = make_setup(selector="dr")
        rng = random.Random(10)
        for _ in range(50):
            gen.step(1e6, rng)
        cost = state.cost()
        state.rebuild()
        assert state.cost() == pytest.approx(cost, rel=1e-9, abs=1e-6)

    def test_single_cell_interchange_noop(self):
        from repro.netlist import Circuit, MacroCell, Pin, PinKind

        solo = Circuit(
            "solo",
            [
                MacroCell.rectangular(
                    "only", 8, 8, [Pin("p", "n", PinKind.FIXED, offset=(4, 0))]
                )
            ],
        )
        state, gen = make_setup(solo)
        a, c = gen._interchange_branch(1e6, random.Random(0))
        assert (a, c) == (0, 0)
