"""The generic simulated annealing engine of §2.1.

The TimberWolfMC annealer is characterized by five pieces: the *generate*
function, the acceptance function *accept*, the temperature *update*
function, the inner-loop criterion, and the stopping criterion.  The
paper's generate function is not a single move: one call may cascade
through several accept-tested attempts (displace, then the aspect-
inverted displacement, then an orientation change, then pin moves...).
``AnnealingState.step`` therefore performs one full generate-and-accept
cycle and reports how many attempts were made and accepted; the
``Annealer`` supplies the temperature ladder, inner-loop length, and
stopping criterion around it.
"""

from __future__ import annotations

import math
import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..resilience.faults import fault_point
from ..telemetry import Tracer, current_tracer


def metropolis_accept(delta: float, temperature: float, rng: random.Random) -> bool:
    """The standard acceptance function: downhill always, uphill with
    probability exp(-delta / T)."""
    if delta <= 0:
        return True
    if temperature <= 0:
        return False
    exponent = -delta / temperature
    if exponent < -700.0:  # exp underflow guard
        return False
    return rng.random() < math.exp(exponent)


class AnnealingState(ABC):
    """Problem-specific state manipulated by the annealer."""

    @abstractmethod
    def step(self, temperature: float, rng: random.Random) -> Tuple[int, int]:
        """Run one generate-and-accept cycle.

        Returns ``(attempts, accepts)`` — how many new states were
        attempted during the cascade and how many were kept.
        """

    @abstractmethod
    def cost(self) -> float:
        """Current total cost (used for bookkeeping and invariant checks)."""

    def moves_per_iteration(self) -> int:
        """Scale factor for the inner loop: A = A_c * moves_per_iteration
        (Eqn 17 uses the number of cells N_c)."""
        return 1

    def on_temperature(self, temperature: float) -> None:
        """Hook invoked at the start of every temperature step."""

    def telemetry_snapshot(self, temperature: float) -> Optional[Dict[str, float]]:
        """Extra per-temperature fields for the ``anneal.temperature``
        trace event (cost components, range-limiter window, ...).  Only
        called when tracing is enabled; None adds nothing."""
        return None


@dataclass
class TemperatureStats:
    """Per-temperature-step statistics (feeds the figures and EXPERIMENTS)."""

    temperature: float
    attempts: int = 0
    accepts: int = 0
    cost_after: float = 0.0
    #: Wall-clock duration of the inner loop (monotonic), for moves/sec.
    seconds: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        return self.accepts / self.attempts if self.attempts else 0.0


@dataclass
class AnnealResult:
    """Outcome of one annealing run."""

    final_cost: float
    steps: List[TemperatureStats] = field(default_factory=list)
    #: True when a run budget ended the anneal before its stopping
    #: criterion fired (the result is the best-so-far state, not the
    #: converged one).
    truncated: bool = False
    #: Why the loop ended: "stopping", "max_temperatures", or
    #: "budget:<limit>".
    stop_reason: Optional[str] = None

    @property
    def total_attempts(self) -> int:
        return sum(s.attempts for s in self.steps)

    @property
    def total_accepts(self) -> int:
        return sum(s.accepts for s in self.steps)

    @property
    def num_temperatures(self) -> int:
        return len(self.steps)

    @property
    def initial_acceptance_rate(self) -> float:
        return self.steps[0].acceptance_rate if self.steps else 0.0


class StoppingCriterion(ABC):
    """Decides when to end the annealing, consulted after each inner loop."""

    @abstractmethod
    def should_stop(self, temperature: float, stats: TemperatureStats) -> bool:
        ...

    def reset(self) -> None:
        """Prepare for a fresh run (criteria may carry history)."""

    def state_dict(self) -> Dict[str, Any]:
        """History carried across a checkpoint (stateless: empty)."""
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore history saved by :meth:`state_dict`."""

    def floor_estimate(self, stats: "TemperatureStats") -> Optional[float]:
        """The temperature at which this criterion expects to fire,
        given the inner loop just completed — the anchor the per-step
        ETAs walk the schedule down to.  None when the stop is not
        temperature-predictable (window- or history-driven)."""
        return None


class WindowStop(StoppingCriterion):
    """Stage-1 stopping: an inner loop has run with the range-limiter
    window at its minimum span (§3.3)."""

    def __init__(self, limiter) -> None:
        self._limiter = limiter

    def should_stop(self, temperature: float, stats: TemperatureStats) -> bool:
        return self._limiter.at_minimum(temperature)


class FrozenStop(StoppingCriterion):
    """Stop when the cost is unchanged for N consecutive inner loops
    (the stage-2 final-pass criterion, N = 3)."""

    def __init__(self, patience: int = 3, tolerance: float = 1e-9) -> None:
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self._patience = patience
        self._tolerance = tolerance
        self._last_cost: Optional[float] = None
        self._streak = 0

    def reset(self) -> None:
        self._last_cost = None
        self._streak = 0

    def state_dict(self) -> Dict[str, Any]:
        return {"last_cost": self._last_cost, "streak": self._streak}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._last_cost = state["last_cost"]
        self._streak = state["streak"]

    def should_stop(self, temperature: float, stats: TemperatureStats) -> bool:
        if self._last_cost is not None and abs(
            stats.cost_after - self._last_cost
        ) <= self._tolerance:
            self._streak += 1
        else:
            self._streak = 0
        self._last_cost = stats.cost_after
        return self._streak >= self._patience


class FloorStop(StoppingCriterion):
    """Stop once the temperature falls below a floor (safety net)."""

    def __init__(self, t_floor: float) -> None:
        if t_floor <= 0:
            raise ValueError("t_floor must be positive")
        self._t_floor = t_floor

    def should_stop(self, temperature: float, stats: TemperatureStats) -> bool:
        return temperature <= self._t_floor

    def floor_estimate(self, stats: TemperatureStats) -> Optional[float]:
        return self._t_floor


class _Composite(StoppingCriterion):
    """A criterion over member criteria.  Every member is consulted at
    every inner loop, so history-carrying members stay up to date, and
    their histories travel as ``{"children": [...]}``."""

    def __init__(self, *criteria: StoppingCriterion) -> None:
        if not criteria:
            raise ValueError(f"{type(self).__name__} needs at least one criterion")
        self._criteria = criteria

    def reset(self) -> None:
        for c in self._criteria:
            c.reset()

    def state_dict(self) -> Dict[str, Any]:
        return {"children": [c.state_dict() for c in self._criteria]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        for criterion, child in zip(self._criteria, state["children"]):
            criterion.load_state_dict(child)

    def _fired(self, temperature: float, stats: TemperatureStats) -> List[bool]:
        return [c.should_stop(temperature, stats) for c in self._criteria]

    def _floors(self, stats: TemperatureStats) -> List[float]:
        """The members' floor estimates, the unpredictable ones left out."""
        floors = (c.floor_estimate(stats) for c in self._criteria)
        return [f for f in floors if f is not None]


class AnyOf(_Composite):
    """Stop when any member criterion fires."""

    def should_stop(self, temperature: float, stats: TemperatureStats) -> bool:
        return any(self._fired(temperature, stats))

    def floor_estimate(self, stats: TemperatureStats) -> Optional[float]:
        # Whichever member fires first ends the run: the highest floor.
        floors = self._floors(stats)
        return max(floors) if floors else None


class AllOf(_Composite):
    """Stop only when every member criterion fires.

    Used by stage 1 to keep annealing at the minimum window span until
    the temperature is genuinely cold: on paper-scale cores the window
    bottoms out at a cold T anyway, but on small cores the window
    condition alone would stop the run while uphill moves are still
    routinely accepted.
    """

    def should_stop(self, temperature: float, stats: TemperatureStats) -> bool:
        return all(self._fired(temperature, stats))

    def floor_estimate(self, stats: TemperatureStats) -> Optional[float]:
        # Every member must fire; the estimable ones give an optimistic
        # (lowest-floor) bound — the stop cannot come before it.
        floors = self._floors(stats)
        return min(floors) if floors else None


@dataclass
class AnnealCursor:
    """A resumable position in an annealing run.

    The cursor means "about to start temperature step ``step_index`` at
    ``temperature``": the RNG state and the stopping criterion's history
    are captured *after* the previous step was fully accounted, so a run
    resumed from the cursor performs the exact float and RNG operation
    sequence the uninterrupted run would have.
    """

    step_index: int
    temperature: float
    rng_state: Any
    stopping_state: Dict[str, Any]
    #: Completed steps, packed as (T, attempts, accepts, cost_after, s).
    steps: List[Tuple[float, int, int, float, float]]
    #: True when the stopping criterion fired on the step that produced
    #: this cursor: the anneal is complete, there is no next step to
    #: resume into.  (An interrupt can land on the final temperature —
    #: without this flag a resume would anneal one step too many.)
    done: bool = False
    #: Feedback state of an adaptive cooling schedule (empty for the
    #: stateless table schedules); restored on resume so the adaptive
    #: alpha / window trajectory continues bit-for-bit.
    schedule_state: Dict[str, Any] = field(default_factory=dict)
    #: Private state of the move generator driving the annealing state
    #: (empty for generators that draw from the engine RNG only; the
    #: batched mover stores its numpy bit-generator state here so a
    #: resumed run replays the same proposal stream).
    generator_state: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step_index": self.step_index,
            "temperature": self.temperature,
            "rng_state": self.rng_state,
            "stopping_state": self.stopping_state,
            "steps": list(self.steps),
            "done": self.done,
            "schedule_state": self.schedule_state,
            "generator_state": self.generator_state,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "AnnealCursor":
        return AnnealCursor(
            step_index=data["step_index"],
            temperature=data["temperature"],
            rng_state=data["rng_state"],
            stopping_state=data["stopping_state"],
            steps=[tuple(s) for s in data["steps"]],
            done=data.get("done", False),
            schedule_state=data.get("schedule_state", {}),
            generator_state=data.get("generator_state", {}),
        )


class Annealer:
    """Runs the annealing loop: an inner loop at each T, then cool.

    ``attempts_per_cell`` is the paper's A_c; the inner loop performs
    A_c * state.moves_per_iteration() generate calls per temperature.
    ``max_temperatures`` bounds runaway schedules (the paper targets
    about 120 temperature values).

    ``eta_floor`` is the temperature at which the caller expects the
    anneal to stop (the stage's floor criterion); when set, each
    ``anneal.temperature`` event carries an ETA derived from walking the
    cooling schedule down to it.
    """

    def __init__(
        self,
        schedule,
        stopping: StoppingCriterion,
        attempts_per_cell: int = 100,
        max_temperatures: int = 400,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        tracer: Optional[Tracer] = None,
        eta_floor: Optional[float] = None,
    ) -> None:
        if attempts_per_cell < 1:
            raise ValueError("attempts_per_cell must be at least 1")
        if max_temperatures < 1:
            raise ValueError("max_temperatures must be at least 1")
        self.schedule = schedule
        self.stopping = stopping
        self.attempts_per_cell = attempts_per_cell
        self.max_temperatures = max_temperatures
        self.rng = rng if rng is not None else random.Random(seed)
        #: None defers to the ambient ``current_tracer()`` at run time.
        self.tracer = tracer
        self.eta_floor = eta_floor

    def run(
        self,
        state: AnnealingState,
        *,
        budget=None,
        resume: Optional[AnnealCursor] = None,
        observers: Sequence[Callable] = (),
    ) -> AnnealResult:
        """Run the annealing loop.

        ``budget`` is a :class:`~repro.resilience.budget.Budget`; when
        it exhausts, the loop ends gracefully with the result flagged
        ``truncated``.  ``resume`` is an :class:`AnnealCursor` from a
        checkpoint: the loop continues at the cursor's temperature with
        the RNG and stopping history restored, reproducing the
        uninterrupted run bit-for-bit.  ``observers`` are called after
        every completed temperature step as ``obs(step_index, stats,
        state, make_cursor)`` (checkpoint writers, drift guards); an
        observer may raise to abort the run.
        """
        tracer = self.tracer if self.tracer is not None else current_tracer()
        self.stopping.reset()
        if resume is not None:
            self.stopping.load_state_dict(resume.stopping_state)
            self.rng.setstate(resume.rng_state)
            if resume.schedule_state:
                loader = getattr(self.schedule, "load_state_dict", None)
                if loader is not None:
                    loader(resume.schedule_state)
            if resume.generator_state:
                gen_loader = getattr(state, "load_generator_state", None)
                if gen_loader is not None:
                    gen_loader(resume.generator_state)
            if resume.done:
                # The snapshot was taken on the anneal's final step: the
                # state is already converged, nothing left to run.
                result = AnnealResult(final_cost=state.cost())
                result.steps = [TemperatureStats(*p) for p in resume.steps]
                result.stop_reason = "stopping"
                return result
            start_index = resume.step_index
            temperature = resume.temperature
            prior = [TemperatureStats(*packed) for packed in resume.steps]
        else:
            start_index = 0
            temperature = self.schedule.t_infinity
            prior = []
        result = AnnealResult(final_cost=state.cost())
        result.steps = prior
        inner_moves = self.attempts_per_cell * state.moves_per_iteration()
        if budget is not None:
            budget.start()

        with tracer.span(
            "anneal",
            t_infinity=self.schedule.t_infinity,
            inner_moves=inner_moves,
            initial_cost=round(result.final_cost, 4),
            resumed_at=start_index if resume is not None else None,
        ):
            truncated = False
            stop_reason = None
            step_index = start_index
            while step_index < self.max_temperatures:
                if budget is not None:
                    reason = budget.exhausted()
                    if reason is not None:
                        truncated, stop_reason = True, f"budget:{reason}"
                        break
                state.on_temperature(temperature)
                fault_point(
                    "anneal.temperature", step=step_index, temperature=temperature
                )
                stats = TemperatureStats(temperature=temperature)
                t0 = time.monotonic()
                midloop_reason = None
                if budget is None:
                    for _ in range(inner_moves):
                        attempts, accepts = state.step(temperature, self.rng)
                        stats.attempts += attempts
                        stats.accepts += accepts
                else:
                    # Budgeted inner loop: identical move sequence, plus a
                    # strided budget check so a wall deadline ends the run
                    # within ~32 moves instead of a full inner loop.
                    done = 0
                    for k in range(inner_moves):
                        attempts, accepts = state.step(temperature, self.rng)
                        stats.attempts += attempts
                        stats.accepts += accepts
                        done += 1
                        if (k & 31) == 31:
                            budget.note_moves(done)
                            done = 0
                            midloop_reason = budget.exhausted()
                            if midloop_reason is not None:
                                break
                    if done:
                        budget.note_moves(done)
                stats.seconds = time.monotonic() - t0
                stats.cost_after = state.cost()
                result.steps.append(stats)
                # Adaptive schedules read the inner loop just completed
                # before the next alpha / window decision is made.
                observe = getattr(self.schedule, "observe", None)
                if observe is not None:
                    observe(stats)
                if budget is not None:
                    budget.note_temperature()
                if tracer.enabled:
                    self._emit_temperature(tracer, state, step_index, stats)
                # The stopping criterion consumes this step's stats before
                # observers run, so a checkpoint cursor captures its
                # post-update history.
                should_stop = self.stopping.should_stop(temperature, stats)
                if observers:
                    make_cursor = self._cursor_factory(
                        step_index, temperature, result, should_stop, state
                    )
                    for observer in observers:
                        observer(step_index, stats, state, make_cursor)
                if midloop_reason is not None:
                    truncated, stop_reason = True, f"budget:{midloop_reason}"
                    break
                if should_stop:
                    stop_reason = "stopping"
                    break
                temperature = self.schedule.next_temperature(temperature)
                step_index += 1
            else:
                stop_reason = "max_temperatures"

            result.final_cost = state.cost()
        result.truncated = truncated
        result.stop_reason = stop_reason
        return result

    def _cursor_factory(
        self,
        step_index: int,
        temperature: float,
        result: AnnealResult,
        should_stop: bool,
        state: Optional[AnnealingState] = None,
    ) -> Callable[[], AnnealCursor]:
        def make_cursor() -> AnnealCursor:
            dump = getattr(self.schedule, "state_dict", None)
            gen_dump = getattr(state, "generator_state_dict", None)
            return AnnealCursor(
                step_index=step_index + 1,
                temperature=self.schedule.next_temperature(temperature),
                rng_state=self.rng.getstate(),
                stopping_state=self.stopping.state_dict(),
                steps=[
                    (s.temperature, s.attempts, s.accepts, s.cost_after, s.seconds)
                    for s in result.steps
                ],
                done=should_stop,
                schedule_state=dump() if dump is not None else {},
                generator_state=gen_dump() if gen_dump is not None else {},
            )

        return make_cursor

    def _eta_floor_for(self, stats: TemperatureStats) -> Optional[float]:
        """The temperature ETAs walk down to: the declared ``eta_floor``
        sharpened by whatever the stopping criterion itself predicts
        (e.g. the adaptive flow's :class:`CostFloorStop`, whose floor
        depends on the live cost and usually fires far above the static
        safety-net floor)."""
        estimated = self.stopping.floor_estimate(stats)
        candidates = [f for f in (self.eta_floor, estimated) if f is not None]
        return max(candidates) if candidates else None

    def _eta_steps(
        self, temperature: float, step_index: int, stats: TemperatureStats
    ) -> Optional[int]:
        """Temperature steps left before the schedule reaches the ETA
        floor, bounded by ``max_temperatures``.  None when neither a
        declared floor nor the stopping criterion gives an anchor (the
        stop is purely data-dependent).

        A schedule may provide its own ``eta_steps(temperature, floor,
        cap)`` (the adaptive schedule does: a geometric projection of
        its *current* alpha); the fixed table schedules are walked
        exactly, band by band.
        """
        floor = self._eta_floor_for(stats)
        if floor is None or floor <= 0:
            return None
        remaining_cap = self.max_temperatures - step_index - 1
        projector = getattr(self.schedule, "eta_steps", None)
        if projector is not None:
            steps = projector(temperature, floor, remaining_cap)
            return min(steps, remaining_cap) if steps is not None else None
        steps = 0
        t = temperature
        while t > floor and steps < remaining_cap:
            t = self.schedule.next_temperature(t)
            steps += 1
        return steps

    def _eta_fields(
        self, step_index: int, stats: TemperatureStats
    ) -> Dict[str, Any]:
        """The step's ETA from the cooling schedule: ``eta_steps`` and
        ``eta_seconds`` (steps left times this step's wall time).

        Feedback-driven schedules cannot promise their future alphas,
        so their ETAs are flagged ``eta_estimated`` — and when even an
        estimate is impossible they carry an explicit ``eta_steps:
        null`` rather than a silently bogus number.
        """
        adaptive = getattr(self.schedule, "observe", None) is not None
        eta_steps = self._eta_steps(stats.temperature, step_index, stats)
        if eta_steps is None:
            return {"eta_steps": None, "eta_seconds": None} if adaptive else {}
        fields: Dict[str, Any] = {"eta_steps": eta_steps}
        if stats.seconds > 0:
            fields["eta_seconds"] = round(eta_steps * stats.seconds, 1)
        if adaptive:
            fields["eta_estimated"] = True
        return fields

    def _emit_temperature(
        self,
        tracer: Tracer,
        state: AnnealingState,
        step_index: int,
        stats: TemperatureStats,
    ) -> None:
        """One ``anneal.temperature`` event: the per-temperature snapshot
        behind the paper's Figs. 3-6 (T, acceptance ratio, cost, rate,
        plus whatever the state's ``telemetry_snapshot`` and an adaptive
        schedule's ``telemetry_fields`` contribute, and the ETA).  A
        run's heartbeat builds its ``anneal`` beat from this event."""
        fields = {
            "step": step_index,
            "T": round(stats.temperature, 6),
            "attempts": stats.attempts,
            "accepts": stats.accepts,
            "acceptance": round(stats.acceptance_rate, 4),
            "cost": round(stats.cost_after, 4),
            "moves_per_sec": round(stats.attempts / stats.seconds, 1)
            if stats.seconds > 0
            else None,
        }
        extra = state.telemetry_snapshot(stats.temperature)
        if extra:
            fields.update(extra)
        schedule_fields = getattr(self.schedule, "telemetry_fields", None)
        if schedule_fields is not None:
            fields.update(schedule_fields())
        fields.update(self._eta_fields(step_index, stats))
        tracer.event("anneal.temperature", **fields)
