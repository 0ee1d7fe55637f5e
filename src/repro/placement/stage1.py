"""Stage 1 of TimberWolfMC (§3): annealing with the dynamic estimator.

The driver wires together: core sizing (§2.2), the Table-1 cooling
schedule scaled by S_T (Eqns 19-21), the range limiter (Eqns 12-14), the
p2 calibration of Eqn 9, and the generate cascade of §3.2.1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..annealing import (
    AdaptiveCooling,
    AdaptiveRangeLimiter,
    AllOf,
    AnnealCursor,
    Annealer,
    AnnealResult,
    AnyOf,
    CostFloorStop,
    FloorStop,
    RangeLimiter,
    WindowStop,
    stage1_schedule,
)
from ..estimator import CorePlan, determine_core
from ..config import TimberWolfConfig
from ..netlist import Circuit
from ..resilience.drift import DriftGuard
from ..resilience.faults import fault_point
from ..telemetry import current_tracer
from .arraycore import make_placement_state
from .batch import BatchAnnealingState, BatchMoveGenerator
from .moves import MoveGenerator, PlacementAnnealingState
from .state import PlacementState

#: How many random configurations are sampled to calibrate p2 (Eqn 9).
P2_CALIBRATION_SAMPLES = 20

#: Stage-1 temperature floor in units of S_T (the last Table-1 band runs
#: down from S_T * 10, so S_T * 2 is deep in the quench regime).  The run
#: ends once the range-limiter window is at minimum span AND T <= this —
#: on paper-scale cores the window condition is the binding one.
STAGE1_T_FLOOR = 2.0


def calibrate_p2(
    state: PlacementState,
    rng: random.Random,
    eta: float,
    samples: int = P2_CALIBRATION_SAMPLES,
) -> float:
    """Find p2 so that p2 * C2 ~ eta * C1 at T = T∞ (Eqn 9).

    At T∞ virtually every state is accepted, so the averages over random
    configurations stand in for the averages over the high-T ensemble.
    The state is left in the last sampled configuration (a random initial
    placement, which is what stage 1 starts from anyway).
    """
    if samples < 1:
        raise ValueError("need at least one calibration sample")
    c1_total = 0.0
    c2_total = 0.0
    for _ in range(samples):
        state.randomize(rng)
        c1_total += state.c1()
        c2_total += state.c2_raw()
    if c2_total <= 0.0:
        # No overlap in any sample (absurdly sparse core): any p2 works.
        return 1.0
    return eta * c1_total / c2_total


@dataclass
class Stage1Result:
    """Everything stage 1 hands to stage 2."""

    state: PlacementState
    plan: CorePlan
    limiter: RangeLimiter
    anneal: AnnealResult
    p2: float

    @property
    def teil(self) -> float:
        return self.state.teil()

    @property
    def chip_area(self) -> float:
        return self.state.chip_area()

    @property
    def residual_overlap(self) -> float:
        """The paper's residual cell overlapping: C2 (raw area) at T -> T0."""
        return self.state.c2_raw()


def _core_plan(circuit: Circuit, config: TimberWolfConfig, control) -> CorePlan:
    """Core sizing under supervision: an estimator failure degrades to a
    plain-area plan (dynamic interconnect estimation disabled) rather
    than aborting the run."""

    def plan():
        fault_point("estimator.determine_core", circuit=circuit.name)
        return determine_core(
            circuit,
            aspect_ratio=config.core_aspect_ratio,
            profile=config.profile,
            slack=config.core_slack,
            cw_scale=config.estimator_scale,
        )

    def fallback():
        return determine_core(
            circuit,
            aspect_ratio=config.core_aspect_ratio,
            profile=config.profile,
            slack=config.core_slack,
            cw_scale=0.0,
        )

    if control is None:
        return plan()
    result = control.supervisor.run(
        "estimator.determine_core", plan, fallback=fallback
    )
    if result is None:
        raise RuntimeError(
            "core planning failed and has no further fallback: "
            + "; ".join(f.error for f in control.supervisor.failures[-2:])
        )
    return result


def stage1_cooling(plan: CorePlan, config: TimberWolfConfig):
    """The (schedule, limiter) pair for the configured cooling mode.

    ``cooling="table"`` yields the paper's Table-1 schedule with the
    Eqn 12-14 range limiter; ``cooling="adaptive"`` yields the
    VPR-style acceptance-ratio-driven schedule with its clamped
    ``d_limit`` window (the limiter's feedback rides on the schedule's
    ``observe``).  Used by the single-chain driver, the multi-chain
    coordinator, and checkpoint restore so all three agree exactly.
    """
    schedule = stage1_schedule(plan.average_effective_cell_area)
    if config.cooling == "adaptive":
        limiter = AdaptiveRangeLimiter(
            full_span_x=plan.core.width,
            full_span_y=plan.core.height,
            t_infinity=schedule.t_infinity,
        )
        schedule = AdaptiveCooling(
            t_infinity=schedule.t_infinity,
            scale=schedule.scale,
            limiter=limiter,
        )
    else:
        limiter = RangeLimiter(
            full_span_x=plan.core.width,
            full_span_y=plan.core.height,
            t_infinity=schedule.t_infinity,
            rho=config.rho,
        )
    return schedule, limiter


def stage1_stopping(circuit: Circuit, config: TimberWolfConfig, schedule, limiter):
    """The stage-1 stopping criterion for the configured cooling mode.

    Table cooling stops when the window has shrunk to minimum span AND
    the temperature is genuinely cold; adaptive cooling uses the VPR
    rule (T below a small fraction of the per-net cost) with the floor
    criterion as a safety net.
    """
    if config.cooling == "adaptive":
        return AnyOf(
            CostFloorStop(max(len(circuit.nets), 1)),
            FloorStop(schedule.scale * STAGE1_T_FLOOR),
        )
    return AllOf(
        WindowStop(limiter),
        FloorStop(schedule.scale * STAGE1_T_FLOOR),
    )


def run_stage1(
    circuit: Circuit,
    config: Optional[TimberWolfConfig] = None,
    rng: Optional[random.Random] = None,
    control=None,
    resume: Optional[dict] = None,
) -> Stage1Result:
    """Run the full stage-1 annealing on a circuit.

    ``control`` is a :class:`~repro.resilience.control.RunControl`
    carrying the budget / checkpoint / interrupt context.  ``resume``
    is a stage-1 checkpoint payload (``cursor`` + ``state``): the
    anneal continues mid-schedule, bit-for-bit.
    """
    config = config if config is not None else TimberWolfConfig()
    rng = rng if rng is not None else random.Random(config.seed)
    tracer = current_tracer()

    plan = _core_plan(circuit, config, control)
    schedule, limiter = stage1_cooling(plan, config)

    with tracer.span("stage1.make_state"):
        state = make_placement_state(
            config.core, circuit, plan, kappa=config.kappa
        )
    cursor: Optional[AnnealCursor] = None
    if resume is not None:
        # p2 and the placement come from the snapshot; the calibration
        # phase already happened in the original run.
        state.load_state_dict(resume["state"])
        cursor = AnnealCursor.from_dict(resume["cursor"])
        if tracer.enabled:
            tracer.event(
                "checkpoint.resumed",
                phase="stage1",
                step=cursor.step_index,
                p2=round(state.p2, 6),
            )
    else:
        with tracer.span("stage1.calibrate_p2", samples=P2_CALIBRATION_SAMPLES):
            state.p2 = calibrate_p2(state, rng, config.eta)
    if tracer.enabled:
        tracer.event(
            "stage1.setup",
            p2=round(state.p2, 6),
            t_infinity=round(schedule.t_infinity, 4),
            core_width=round(plan.core.width, 2),
            core_height=round(plan.core.height, 2),
        )

    batched = config.mover == "batched"
    if batched:
        # The batched mover draws everything from its own numpy stream,
        # seeded from the run seed (spawn_seed(seed, 0) == seed, so the
        # single-chain driver and chain 0 of the coordinator agree).
        with tracer.span("batch.begin"):
            generator = BatchMoveGenerator(
                state,
                limiter,
                r_ratio=config.r_ratio,
                batch=config.batch_moves,
                seed=config.seed,
            )
            anneal_state = BatchAnnealingState(state, generator)
            generator.begin()
    else:
        generator = MoveGenerator(
            state,
            limiter,
            r_ratio=config.r_ratio,
            selector=config.selector,
        )
        anneal_state = PlacementAnnealingState(state, generator)
    stopping = stage1_stopping(circuit, config, schedule, limiter)
    annealer = Annealer(
        schedule,
        stopping,
        attempts_per_cell=config.attempts_per_cell,
        max_temperatures=config.max_temperatures,
        rng=rng,
        eta_floor=schedule.scale * STAGE1_T_FLOOR,
    )
    observers = []
    if config.drift_check_every:
        guard = DriftGuard(
            config.drift_check_every,
            config.drift_tolerance,
            config.drift_action,
        )
        observers.append(guard.observer())
    if control is not None:
        # Checkpoints must capture the *live* placement: during a
        # batched session that is the kernel's arrays, so the observer
        # snapshots through the adapter (the serial path keeps reading
        # the placement state directly — byte-identical to before).
        observers.append(
            control.stage1_observer(anneal_state if batched else state)
        )
    try:
        result = annealer.run(
            anneal_state,
            budget=control.budget if control is not None else None,
            resume=cursor,
            observers=observers,
        )
    finally:
        if batched:
            with tracer.span("batch.finish"):
                generator.finish()
    if tracer.enabled:
        generator.metrics.emit(tracer, "stage1.move_metrics")
        tracer.event(
            "stage1.result",
            teil=round(state.teil(), 2),
            chip_area=round(state.chip_area(), 2),
            residual_overlap=round(state.c2_raw(), 2),
            temperatures=result.num_temperatures,
        )
    return Stage1Result(
        state=state, plan=plan, limiter=limiter, anneal=result, p2=state.p2
    )
