"""Stage 1 of TimberWolfMC (§3): annealing with the dynamic estimator.

The driver wires together: core sizing (§2.2), the Table-1 cooling
schedule scaled by S_T (Eqns 19-21), the range limiter (Eqns 12-14), the
p2 calibration of Eqn 9, and the generate cascade of §3.2.1.
:class:`Stage1Chain` assembles that annealer once: :func:`run_stage1`
runs one chain to the end, and ``repro.parallel.multichain`` runs K of
them in segments.  :func:`make_mover` picks the mover for every anneal
of the flow, the §4.3 refine anneal included.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from ..annealing import (
    AdaptiveCooling,
    AdaptiveRangeLimiter,
    AllOf,
    AnnealCursor,
    Annealer,
    AnnealingState,
    AnnealResult,
    AnyOf,
    CostFloorStop,
    FloorStop,
    RangeLimiter,
    TemperatureStats,
    WindowStop,
    stage1_schedule,
)
from ..config import TimberWolfConfig
from ..estimator import CorePlan, determine_core
from ..netlist import Circuit
from ..parallel.seeds import spawn_seed
from ..resilience.drift import drift_observers
from ..resilience.faults import fault_point
from ..telemetry import current_tracer
from .arraycore import make_placement_state
from .batch import BatchMoveGenerator
from .moves import MoveGenerator
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
    ``observe``).  Used by every stage-1 chain and by
    :func:`restore_stage1`, so all of them agree exactly.
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


def make_mover(
    state: PlacementState,
    limiter: RangeLimiter,
    config: TimberWolfConfig,
    batch_seed: Callable[[], int],
    refine: bool = False,
) -> AnnealingState:
    """The mover for ``config.mover``, itself the engine's annealing
    state: the §3.2.1 cascade (``MoveGenerator``), or
    displacement/interchange batches on the batch kernel
    (``BatchMoveGenerator``).

    ``refine`` gives the §4.3 refine anneal's moves: orientations,
    instances, aspect ratios and interchanges are frozen, and the
    batched refine runs the serial pin-group moves in a pin round per
    temperature.  ``batch_seed()`` seeds the batched numpy stream; it is
    called only under ``mover="batched"``, so a seed drawn from the
    flow's RNG leaves the serial flow's stream alone.
    """
    pin_round = None
    if config.mover == "serial" or refine:
        moves = MoveGenerator(
            state,
            limiter,
            r_ratio=config.r_ratio,
            selector=config.selector,
            refine=refine,
        )
        if config.mover == "serial":
            return moves
        if moves.pin_cells:
            pin_round = partial(
                moves.pin_round, rounds=config.stage2_attempts_per_cell
            )
    return BatchMoveGenerator(
        state,
        limiter,
        r_ratio=config.r_ratio,
        batch=config.batch_moves,
        seed=batch_seed(),
        refine=refine,
        pin_round=pin_round,
    )


@contextmanager
def mover_session(mover: AnnealingState) -> Iterator[None]:
    """The batched kernel session around one anneal, timed by the
    ``batch.begin``/``batch.finish`` spans; the serial mover has none."""
    if not isinstance(mover, BatchMoveGenerator):
        yield
        return
    tracer = current_tracer()
    with tracer.span("batch.begin"):
        mover.begin()
    try:
        yield
    finally:
        with tracer.span("batch.finish"):
            mover.finish()


class Stage1Chain:
    """One stage-1 chain, ready to anneal: the core plan and cooling,
    the placement state, p2, the mover, and the ``Annealer`` with its
    stopping rule.

    ``resume`` is a stage-1 checkpoint payload (``cursor`` + ``state``):
    p2 and the placement come from it and ``cursor`` continues the
    anneal bit-for-bit; otherwise p2 is calibrated (Eqn 9).  Chain
    ``chain_id`` draws from ``spawn_seed(config.seed, chain_id)`` — its
    batched stream, and its engine RNG unless ``rng`` (the flow's
    stream, which stage 2 continues) is given.  ``spawn_seed(seed, 0)
    == seed``, so chain 0 is the single-chain stage 1.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: TimberWolfConfig,
        rng: Optional[random.Random] = None,
        chain_id: int = 0,
        control=None,
        resume: Optional[dict] = None,
    ) -> None:
        tracer = current_tracer()
        seed = spawn_seed(config.seed, chain_id)
        rng = rng if rng is not None else random.Random(seed)
        self.plan = _core_plan(circuit, config, control)
        schedule, self.limiter = stage1_cooling(self.plan, config)
        with tracer.span("stage1.make_state"):
            self.state = make_placement_state(
                config.core, circuit, self.plan, kappa=config.kappa
            )
        self.cursor: Optional[AnnealCursor] = None
        if resume is not None:
            # p2 and the placement come from the snapshot; the calibration
            # phase already happened in the original run.
            self.state.load_state_dict(resume["state"])
            self.cursor = AnnealCursor.from_dict(resume["cursor"])
            if tracer.enabled:
                tracer.event(
                    "checkpoint.resumed",
                    phase="stage1",
                    step=self.cursor.step_index,
                    p2=round(self.state.p2, 6),
                )
        else:
            with tracer.span("stage1.calibrate_p2", samples=P2_CALIBRATION_SAMPLES):
                self.state.p2 = calibrate_p2(self.state, rng, config.eta)
        if tracer.enabled:
            tracer.event(
                "stage1.setup",
                p2=round(self.state.p2, 6),
                t_infinity=round(schedule.t_infinity, 4),
                core_width=round(self.plan.core.width, 2),
                core_height=round(self.plan.core.height, 2),
            )
        self.mover = make_mover(self.state, self.limiter, config, lambda: seed)
        self.annealer = Annealer(
            schedule,
            stage1_stopping(circuit, config, schedule, self.limiter),
            attempts_per_cell=config.attempts_per_cell,
            max_temperatures=config.max_temperatures,
            rng=rng,
            eta_floor=schedule.scale * STAGE1_T_FLOOR,
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
    tracer = current_tracer()
    chain = Stage1Chain(circuit, config, rng, control=control, resume=resume)
    observers = drift_observers(config)
    if control is not None:
        # Checkpoints must capture the *live* placement: during a
        # batched session that is the kernel's arrays, which the
        # mover snapshots.
        observers.append(control.stage1_observer(chain.mover))
    with mover_session(chain.mover):
        result = chain.annealer.run(
            chain.mover,
            budget=control.budget if control is not None else None,
            resume=chain.cursor,
            observers=observers,
        )
    stage1 = Stage1Result(
        chain.state, chain.plan, chain.limiter, anneal=result, p2=chain.state.p2
    )
    if tracer.enabled:
        # The mover's counts over its own KINDS, under sorted names.
        counters = {}
        for kind in chain.mover.KINDS:
            attempts, accepts = chain.mover.stats[kind]
            counters[f"moves.{kind}.attempts"] = attempts
            counters[f"moves.{kind}.accepts"] = accepts
        tracer.event("stage1.move_metrics", counters=dict(sorted(counters.items())))
        emit_stage1_result(tracer, stage1)
    return stage1


def emit_stage1_result(tracer, stage1: Stage1Result) -> None:
    """The ``stage1.result`` event: the annealed placement's costs."""
    tracer.event(
        "stage1.result",
        teil=round(stage1.teil, 2),
        chip_area=round(stage1.chip_area, 2),
        residual_overlap=round(stage1.residual_overlap, 2),
        temperatures=stage1.anneal.num_temperatures,
    )


def restore_stage1(
    circuit: Circuit,
    config: TimberWolfConfig,
    control,
    snapshot: dict,
    steps: Sequence[Sequence[float]],
    stop_reason: Optional[str],
    truncated: bool = False,
    final_cost: Optional[float] = None,
) -> Stage1Result:
    """Rebuild a :class:`Stage1Result` in this process from a placement
    ``snapshot`` (a ``state_dict``) and the anneal's packed temperature
    steps — a stage-2 resume's stage-1 record, or the multi-chain
    winner.  ``final_cost`` defaults to the restored placement's cost.
    """
    plan = _core_plan(circuit, config, control)
    # Stage 2 only consults the limiter (temperature_for_fraction); the
    # adaptive feedback state of the finished stage-1 anneal is
    # irrelevant here.
    _, limiter = stage1_cooling(plan, config)
    state = make_placement_state(config.core, circuit, plan, kappa=config.kappa)
    state.load_state_dict(snapshot)
    anneal = AnnealResult(
        final_cost=state.cost() if final_cost is None else final_cost,
        steps=[TemperatureStats(*s) for s in steps],
        truncated=truncated,
        stop_reason=stop_reason,
    )
    return Stage1Result(
        state=state, plan=plan, limiter=limiter, anneal=anneal, p2=state.p2
    )
