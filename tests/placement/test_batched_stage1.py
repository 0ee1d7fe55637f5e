"""The batched mover in the flow: config gating, stage-1 QoR,
kill/resume determinism in both anneals, and multi-chain worker
invariance.

The serial mover's kill/resume property rests on the engine's
``random.Random`` state in the cursor; the batched mover adds two more
stateful parties — the generator's private numpy stream
(``generator_state``) and, under adaptive cooling, the schedule's
feedback history (``schedule_state``).  These tests pin down that a
batched run interrupted at *any* checkpointed temperature resumes
bit-for-bit against itself, under both cooling modes.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    ParallelConfig,
    TimberWolfConfig,
    place_and_route,
    resume_place_and_route,
)
from repro.annealing import RangeLimiter
from repro.bench import CircuitSpec, generate_circuit
from repro.config import MOVERS
from repro.netlist import CustomCell, dumps, loads
from repro.parallel.multichain import run_multichain_stage1
from repro.placement import (
    BatchMoveGenerator,
    make_placement_state,
    run_stage1,
)
from repro.resilience import (
    CheckpointPolicy,
    Fault,
    SimulatedKill,
    inject_faults,
    latest_checkpoint,
)
from repro.resilience.checkpoint import read_checkpoint
from repro.estimator import determine_core

from ..conftest import make_macro_circuit

BATCHED = replace(
    TimberWolfConfig.smoke(seed=5), core="array", mover="batched"
)


def fixture_circuit():
    # Same round-trip discipline as the serial kill/resume tests: the
    # resumed process anneals the checkpoint's serialized circuit.
    return loads(dumps(make_macro_circuit()))


def custom_fixture_circuit():
    """Macros plus three custom cells with uncommitted pin groups: the
    refine anneal's per-temperature pin round runs, over a shuffled
    order."""
    spec = CircuitSpec(
        name="custom",
        num_cells=12,
        num_nets=24,
        num_pins=60,
        seed=5,
        custom_fraction=0.25,
    )
    return loads(dumps(generate_circuit(spec)))


class TestConfigGate:
    def test_movers_constant_lists_both(self):
        assert MOVERS == ("serial", "batched")

    def test_batched_requires_array_core(self):
        with pytest.raises(ValueError, match="requires core='array'"):
            replace(TimberWolfConfig.smoke(), core="object", mover="batched")

    def test_unknown_mover_rejected(self):
        with pytest.raises(ValueError, match="mover must be one of"):
            replace(TimberWolfConfig.smoke(), mover="vectorized")

    def test_batch_moves_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_moves"):
            replace(BATCHED, batch_moves=0)

    def test_mover_round_trips_through_dict(self):
        config = replace(BATCHED, batch_moves=17)
        again = TimberWolfConfig.from_dict(config.to_dict())
        assert again.mover == "batched"
        assert again.batch_moves == 17
        assert again == config


class TestBatchedStage1:
    def test_batched_stage1_completes_with_sane_qor(self):
        circuit = fixture_circuit()
        result = run_stage1(circuit, BATCHED)
        assert result.teil > 0
        assert result.chip_area > 0
        assert result.residual_overlap >= 0
        assert result.anneal.num_temperatures > 0

    def test_batched_stage1_is_deterministic(self):
        circuit = fixture_circuit()
        a = run_stage1(circuit, BATCHED)
        b = run_stage1(fixture_circuit(), BATCHED)
        assert a.state.state_dict() == b.state.state_dict()

    def test_generator_stream_round_trips(self):
        """Restoring ``generator_state_dict`` replays the identical
        proposal stream — the primitive under the cursor's
        generator_state."""
        circuit = make_macro_circuit(num_cells=5)
        state = make_placement_state("array", circuit, determine_core(circuit))
        state.randomize(random.Random(3))
        core = state.core
        limiter = RangeLimiter(
            full_span_x=core.width, full_span_y=core.height, t_infinity=100.0
        )
        generator = BatchMoveGenerator(state, limiter, batch=4, seed=9)
        generator.rng.random(17)  # advance off the seed point
        saved = generator.generator_state_dict()
        first = generator.rng.random(8)
        generator.load_generator_state(saved)
        assert np.array_equal(generator.rng.random(8), first)


class TestBatchedKillResume:
    @pytest.fixture(scope="class")
    def baseline(self):
        return place_and_route(fixture_circuit(), BATCHED)

    @pytest.mark.parametrize("kill_at", [3, 9])
    def test_kill_resumes_bit_for_bit(self, baseline, tmp_path, kill_at):
        policy = CheckpointPolicy(directory=tmp_path, every_temperatures=1)
        with inject_faults(
            Fault(site="anneal.temperature", at=kill_at, kind="kill")
        ):
            with pytest.raises(SimulatedKill):
                place_and_route(fixture_circuit(), BATCHED, checkpoint=policy)

        ckpt = latest_checkpoint(tmp_path)
        assert ckpt is not None
        resumed = resume_place_and_route(ckpt)
        assert resumed.teil == baseline.teil
        assert resumed.chip_area == baseline.chip_area
        assert resumed.placement() == baseline.placement()

    def test_checkpoint_carries_generator_state(self, tmp_path):
        policy = CheckpointPolicy(directory=tmp_path, every_temperatures=1)
        with inject_faults(
            Fault(site="anneal.temperature", at=4, kind="kill")
        ):
            with pytest.raises(SimulatedKill):
                place_and_route(fixture_circuit(), BATCHED, checkpoint=policy)
        ckpt = latest_checkpoint(tmp_path)
        _, payload = read_checkpoint(ckpt)
        cursor = payload["cursor"]
        assert cursor["generator_state"], "batched cursor must carry the numpy stream"
        assert "bit_generator" in cursor["generator_state"]["rng"]

    def test_kill_resume_under_adaptive_cooling(self, tmp_path):
        """The batched cursor composes with the adaptive schedule: both
        generator_state and schedule_state restore, and the resumed run
        matches the uninterrupted one exactly."""
        config = replace(BATCHED, cooling="adaptive")
        baseline = place_and_route(fixture_circuit(), config)
        policy = CheckpointPolicy(directory=tmp_path, every_temperatures=1)
        with inject_faults(
            Fault(site="anneal.temperature", at=5, kind="kill")
        ):
            with pytest.raises(SimulatedKill):
                place_and_route(fixture_circuit(), config, checkpoint=policy)
        ckpt = latest_checkpoint(tmp_path)
        _, payload = read_checkpoint(ckpt)
        cursor = payload["cursor"]
        assert cursor["generator_state"]
        assert cursor["schedule_state"], "adaptive cursor must carry feedback state"
        resumed = resume_place_and_route(ckpt)
        assert resumed.placement() == baseline.placement()
        assert resumed.teil == baseline.teil


class TestBatchedStage2KillResume:
    """A kill inside the batched refine anneal resumes from the stage-2
    pass boundary.  The refine generator's numpy stream is seeded from
    the flow RNG, which that checkpoint restores, so the resumed refine
    replays the interrupted one."""

    @pytest.mark.parametrize(
        "make", [fixture_circuit, custom_fixture_circuit], ids=["macro", "pins"]
    )
    def test_refine_kill_resumes_bit_for_bit(self, make, tmp_path):
        baseline = place_and_route(make(), BATCHED)
        kill_at = baseline.stage1.anneal.num_temperatures + 3
        policy = CheckpointPolicy(directory=tmp_path, every_temperatures=1)
        with inject_faults(
            Fault(site="anneal.temperature", at=kill_at, kind="kill")
        ):
            with pytest.raises(SimulatedKill):
                place_and_route(make(), BATCHED, checkpoint=policy)

        ckpt = latest_checkpoint(tmp_path)
        _, payload = read_checkpoint(ckpt)
        assert payload["phase"] == "stage2"
        resumed = resume_place_and_route(ckpt)
        assert resumed.placement() == baseline.placement()
        assert resumed.teil == baseline.teil
        assert resumed.chip_area == baseline.chip_area

    def test_pin_round_runs_once_per_temperature(self):
        """Each refine temperature makes ``stage2_attempts_per_cell``
        pin-attempt calls per custom cell (one attempt per group, at
        most four per call), and the batches only displace."""
        circuit = custom_fixture_circuit()
        result = place_and_route(circuit, BATCHED)
        final = result.refinement.final_pass
        per_round = sum(
            min(len(cell.pin_groups()), 4)
            for cell in circuit.cells.values()
            if isinstance(cell, CustomCell)
        )
        attempts, accepts = final.move_stats["pin_group"]
        assert attempts == (
            final.anneal.num_temperatures
            * BATCHED.stage2_attempts_per_cell
            * per_round
        )
        assert attempts >= accepts > 0
        assert final.move_stats["displace_batch"][0] > 0
        assert final.move_stats["interchange_batch"] == [0, 0]


class TestBatchedDriftAudit:
    """``drift_check_every`` audits batched anneals: the session's
    running totals against the object model's from-scratch
    recomputation at the session's centers."""

    def test_audit_runs_in_both_anneals_and_changes_nothing(self):
        baseline = place_and_route(custom_fixture_circuit(), BATCHED)
        audited = replace(BATCHED, drift_check_every=1, drift_action="raise")
        result = place_and_route(custom_fixture_circuit(), audited)
        assert result.placement() == baseline.placement()
        gauges = [
            e for e in result.trace_events if e.get("name") == "anneal.cost_drift"
        ]
        temperatures = result.stage1.anneal.num_temperatures + sum(
            p.anneal.num_temperatures for p in result.refinement.passes
        )
        assert len(gauges) == temperatures
        assert max(g["value"] for g in gauges) < 1e-9

    def test_audit_sees_a_carried_c3_error_and_resync_clears_it(self):
        circuit = custom_fixture_circuit()
        state = make_placement_state("array", circuit, determine_core(circuit))
        state.randomize(random.Random(3))
        core = state.core
        limiter = RangeLimiter(
            full_span_x=core.width, full_span_y=core.height, t_infinity=100.0
        )
        mover = BatchMoveGenerator(state, limiter, batch=4, seed=9)
        mover.begin()
        mover.step(1e9, random.Random(0))
        assert mover.cost_drift()["max_relative"] < 1e-9
        mover.kernel.c3 += 1.0
        drift = mover.cost_drift()
        assert drift["c3"] == pytest.approx(1.0)
        assert drift["max_relative"] > 1e-6
        mover.resync()
        assert mover.cost_drift()["max_relative"] < 1e-9
        mover.finish()


class TestBatchedMultichain:
    def small_config(self, workers):
        return replace(
            BATCHED,
            max_temperatures=12,
            parallel=ParallelConfig(
                workers=workers, chains=2, exchange_period=4
            ),
        )

    def test_worker_count_invariance(self):
        circuit = make_macro_circuit(num_cells=5)
        reference = None
        for workers in (1, 2):
            result = run_multichain_stage1(circuit, self.small_config(workers))
            snapshot = (result.state.state_dict(), result.p2)
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference, f"workers={workers} diverged"

    def test_batched_chains_beat_random_start(self):
        circuit = make_macro_circuit(num_cells=5)
        result = run_multichain_stage1(circuit, self.small_config(workers=1))
        assert result.teil > 0
        assert result.state.c2_raw() >= 0
