"""The stage-1 driver: p2 calibration, annealing quality, determinism,
and the movers it builds."""

import random
from dataclasses import replace

import pytest

from repro.bench import load_circuit
from repro.config import TimberWolfConfig
from repro.estimator import determine_core
from repro.placement import (
    BatchMoveGenerator,
    MoveGenerator,
    PlacementState,
    calibrate_p2,
    make_placement_state,
    run_stage1,
)
from repro.placement.moves import MOVE_KINDS
from repro.placement.stage1 import make_mover, mover_session, stage1_cooling

from ..conftest import make_macro_circuit, make_mixed_circuit

SMOKE = TimberWolfConfig.smoke()


class TestCalibrateP2:
    def test_eqn9_target(self):
        """p2 is chosen so p2 * C2 ~ eta * C1 over random configurations."""
        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        p2 = calibrate_p2(state, random.Random(0), eta=0.5, samples=40)
        # Check on an independent sample of random configurations.
        rng = random.Random(99)
        ratios = []
        for _ in range(20):
            state.randomize(rng)
            if state.c2_raw() > 0:
                ratios.append(p2 * state.c2_raw() / state.c1())
        avg = sum(ratios) / len(ratios)
        assert avg == pytest.approx(0.5, rel=0.5)

    def test_eta_scales_p2(self):
        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        lo = calibrate_p2(state, random.Random(1), eta=0.25)
        hi = calibrate_p2(state, random.Random(1), eta=1.0)
        assert hi == pytest.approx(4 * lo)

    def test_validation(self):
        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        with pytest.raises(ValueError):
            calibrate_p2(state, random.Random(0), eta=0.5, samples=0)


class TestRunStage1:
    def test_improves_on_random(self):
        ckt = make_macro_circuit(num_cells=8, seed=5)
        # Reference: mean TEIL over random placements.
        state = PlacementState(ckt, determine_core(ckt))
        rng = random.Random(0)
        random_teils = []
        for _ in range(10):
            state.randomize(rng)
            random_teils.append(state.teil())
        reference = sum(random_teils) / len(random_teils)

        result = run_stage1(ckt, SMOKE)
        assert result.teil < reference

    def test_initial_acceptance_near_one(self):
        result = run_stage1(make_macro_circuit(), SMOKE)
        assert result.anneal.initial_acceptance_rate > 0.9

    def test_final_colder_than_initial(self):
        result = run_stage1(make_macro_circuit(), SMOKE)
        steps = result.anneal.steps
        assert steps[-1].temperature < steps[0].temperature

    def test_deterministic(self):
        a = run_stage1(make_macro_circuit(), SMOKE.with_seed(3))
        b = run_stage1(make_macro_circuit(), SMOKE.with_seed(3))
        assert a.teil == b.teil
        assert a.chip_area == b.chip_area

    def test_seed_changes_outcome(self):
        a = run_stage1(make_macro_circuit(), SMOKE.with_seed(3))
        b = run_stage1(make_macro_circuit(), SMOKE.with_seed(4))
        assert a.teil != b.teil

    def test_mixed_circuit_runs(self):
        result = run_stage1(make_mixed_circuit(), SMOKE)
        assert result.teil > 0
        assert result.p2 > 0

    def test_result_exposes_plan_and_limiter(self):
        result = run_stage1(make_macro_circuit(), SMOKE)
        assert result.plan.core.area > 0
        assert result.limiter.full_span_x == pytest.approx(result.plan.core.width)
        assert result.state.p2 == result.p2

    def test_residual_overlap_reported(self):
        result = run_stage1(make_macro_circuit(), SMOKE)
        assert result.residual_overlap == result.state.c2_raw()


#: The per-temperature trace fields both movers report.
SNAPSHOT_KEYS = {"c1", "c2", "c2_raw", "c3", "window_x", "window_y"}

#: Each mover's ``stats`` keys: the cascade's move kinds, or the batch
#: kinds and the refine's pin rounds.
STATS_KEYS = {
    "serial": set(MOVE_KINDS),
    "batched": {"displace_batch", "interchange_batch", "pin_group"},
}


class TestMoverProtocol:
    """``make_mover`` returns the mover itself, and both movers answer
    the engine the same way inside ``mover_session``."""

    @pytest.mark.parametrize("refine", [False, True], ids=["stage1", "refine"])
    @pytest.mark.parametrize("kind", ["serial", "batched"])
    def test_one_protocol(self, kind, refine):
        config = replace(TimberWolfConfig.smoke(seed=7), mover=kind)
        circuit = load_circuit("p1")
        plan = determine_core(circuit)
        _, limiter = stage1_cooling(plan, config)
        state = make_placement_state(config.core, circuit, plan, kappa=config.kappa)
        state.randomize(random.Random(7))
        mover = make_mover(state, limiter, config, lambda: 11, refine=refine)
        assert type(mover) is {"serial": MoveGenerator, "batched": BatchMoveGenerator}[kind]
        assert mover.refine is refine

        temperature = limiter.temperature_for_fraction(0.1)
        rng = random.Random(7)
        with mover_session(mover):
            mover.on_temperature(temperature)
            for _ in range(config.attempts_per_cell * mover.moves_per_iteration()):
                mover.step(temperature, rng)
            snapshot = mover.telemetry_snapshot(temperature)
            stats = mover.stats
            saved = mover.state_dict()
            cost = mover.cost()

        assert set(snapshot) == SNAPSHOT_KEYS
        assert set(stats) == STATS_KEYS[kind]
        assert all(0 <= accepts <= attempts for attempts, accepts in stats.values())
        # Batched stage 1 makes no pin moves; the other three do.
        assert (stats["pin_group"][0] > 0) == (refine or kind == "serial")
        if refine:
            frozen = set(stats) - {"displace", "displace_batch", "pin_group"}
            assert all(stats[k] == [0, 0] for k in frozen), stats
        fresh = make_placement_state(config.core, circuit, plan, kappa=config.kappa)
        fresh.load_state_dict(saved)
        assert fresh.state_dict()["records"] == saved["records"]
        assert fresh.cost() == cost
