"""The generic annealer: acceptance, stopping criteria, convergence."""

import math
import random

import pytest

from repro.annealing import (
    AllOf,
    AnnealCursor,
    Annealer,
    AnnealingState,
    AnyOf,
    CoolingSchedule,
    FloorStop,
    FrozenStop,
    TemperatureStats,
    WindowStop,
    metropolis_accept,
)
from repro.resilience import Budget


class TestMetropolis:
    def test_downhill_always(self):
        rng = random.Random(0)
        assert all(metropolis_accept(-1.0, 1.0, rng) for _ in range(50))
        assert metropolis_accept(0.0, 1.0, rng)

    def test_zero_temperature_rejects_uphill(self):
        rng = random.Random(0)
        assert not metropolis_accept(1.0, 0.0, rng)

    def test_huge_delta_underflow_safe(self):
        rng = random.Random(0)
        assert not metropolis_accept(1e6, 1.0, rng)

    def test_acceptance_rate_matches_boltzmann(self):
        rng = random.Random(42)
        delta, temperature = 1.0, 2.0
        n = 20000
        hits = sum(metropolis_accept(delta, temperature, rng) for _ in range(n))
        assert hits / n == pytest.approx(math.exp(-0.5), abs=0.02)


class QuadraticState(AnnealingState):
    """Toy problem: minimize x**2 over integer steps."""

    def __init__(self, x0=50.0):
        self.x = x0

    def cost(self):
        return self.x * self.x

    def step(self, temperature, rng):
        step = rng.choice((-1.0, 1.0)) * max(1.0, temperature ** 0.25)
        old = self.x
        self.x += step
        if metropolis_accept(self.cost() - old * old, temperature, rng):
            return (1, 1)
        self.x = old
        return (1, 0)


def geometric_schedule(t0=100.0, alpha=0.9):
    return CoolingSchedule(((0.0, alpha),), scale=1.0, t_infinity=t0)


class TestAnnealer:
    def test_minimizes_toy_problem(self):
        annealer = Annealer(
            geometric_schedule(),
            FloorStop(0.01),
            attempts_per_cell=200,
            max_temperatures=200,
            seed=0,
        )
        state = QuadraticState(50.0)
        result = annealer.run(state)
        assert abs(state.x) < 5.0
        assert result.final_cost == state.cost()

    def test_stats_recorded(self):
        annealer = Annealer(
            geometric_schedule(), FloorStop(10.0), attempts_per_cell=10, seed=1
        )
        result = annealer.run(QuadraticState())
        assert result.num_temperatures >= 2
        assert result.total_attempts == 10 * result.num_temperatures
        assert 0 <= result.initial_acceptance_rate <= 1

    def test_deterministic_given_seed(self):
        def run(seed):
            annealer = Annealer(
                geometric_schedule(), FloorStop(1.0), attempts_per_cell=20, seed=seed
            )
            state = QuadraticState()
            annealer.run(state)
            return state.x

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_max_temperatures_bounds_run(self):
        annealer = Annealer(
            geometric_schedule(alpha=0.999),
            FloorStop(1e-12),
            attempts_per_cell=1,
            max_temperatures=5,
            seed=0,
        )
        result = annealer.run(QuadraticState())
        assert result.num_temperatures == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Annealer(geometric_schedule(), FloorStop(1.0), attempts_per_cell=0)
        with pytest.raises(ValueError):
            Annealer(geometric_schedule(), FloorStop(1.0), max_temperatures=0)


def make_annealer(**kw):
    kw.setdefault("attempts_per_cell", 20)
    kw.setdefault("max_temperatures", 100)
    kw.setdefault("seed", 13)
    return Annealer(geometric_schedule(), FloorStop(1.0), **kw)


def packed(steps):
    """Per-step tuples minus ``seconds`` (wall clock is never replayed)."""
    return [(s.temperature, s.attempts, s.accepts, s.cost_after) for s in steps]


class TestResume:
    def capture_run(self):
        """One full run, snapshotting (cursor, state.x) after every step."""
        snapshots = []

        def observer(step_index, stats, state, make_cursor):
            snapshots.append((make_cursor(), state.x))

        state = QuadraticState()
        result = make_annealer().run(state, observers=[observer])
        return result, state.x, snapshots

    def test_resume_reproduces_uninterrupted_run(self):
        result, final_x, snapshots = self.capture_run()
        assert len(snapshots) >= 4
        for cursor, x_at_cursor in (snapshots[1], snapshots[len(snapshots) // 2]):
            state = QuadraticState(x0=x_at_cursor)
            resumed = make_annealer().run(state, resume=cursor)
            assert state.x == final_x
            assert resumed.final_cost == result.final_cost
            assert packed(resumed.steps) == packed(result.steps)
            assert resumed.stop_reason == result.stop_reason

    def test_done_cursor_returns_completed_result(self):
        result, final_x, snapshots = self.capture_run()
        cursor, x_at_cursor = snapshots[-1]
        assert cursor.done  # FloorStop fired on the step that made it
        state = QuadraticState(x0=x_at_cursor)
        resumed = make_annealer().run(state, resume=cursor)
        # No extra quench step: the state is returned untouched.
        assert state.x == x_at_cursor == final_x
        assert resumed.stop_reason == "stopping"
        assert packed(resumed.steps) == packed(result.steps)

    def test_mid_run_cursors_are_not_done(self):
        _, _, snapshots = self.capture_run()
        assert not any(cursor.done for cursor, _ in snapshots[:-1])

    def test_cursor_dict_roundtrip(self):
        _, _, snapshots = self.capture_run()
        cursor, _ = snapshots[2]
        clone = AnnealCursor.from_dict(cursor.to_dict())
        assert clone.step_index == cursor.step_index
        assert clone.temperature == cursor.temperature
        assert clone.rng_state == cursor.rng_state
        assert clone.steps == [tuple(s) for s in cursor.steps]
        assert clone.done == cursor.done

    def test_cursor_from_dict_defaults_done_false(self):
        # Pre-`done` checkpoints must still load.
        _, _, snapshots = self.capture_run()
        data = snapshots[0][0].to_dict()
        del data["done"]
        assert AnnealCursor.from_dict(data).done is False


class TestBudgetedRun:
    def test_temperature_budget_truncates(self):
        result = make_annealer().run(
            QuadraticState(), budget=Budget(temperatures=3)
        )
        assert result.truncated
        assert result.stop_reason == "budget:temperatures"
        assert result.num_temperatures == 3

    def test_move_budget_truncates_mid_inner_loop(self):
        result = make_annealer(attempts_per_cell=1000).run(
            QuadraticState(), budget=Budget(moves=100)
        )
        assert result.truncated
        assert result.stop_reason == "budget:moves"
        # The strided check ends the loop within one stride of the limit.
        assert result.total_attempts <= 100 + 32

    def test_budgeted_run_same_moves_as_unbudgeted(self):
        plain = QuadraticState()
        make_annealer().run(plain)
        budgeted = QuadraticState()
        make_annealer().run(budgeted, budget=Budget(moves=10**9))
        assert budgeted.x == plain.x

    def test_unexhausted_budget_not_truncated(self):
        result = make_annealer().run(QuadraticState(), budget=Budget(moves=10**9))
        assert not result.truncated
        assert result.stop_reason == "stopping"


def stats(cost=0.0, t=1.0):
    s = TemperatureStats(temperature=t)
    s.cost_after = cost
    return s


class TestStoppingCriteria:
    def test_floor(self):
        stop = FloorStop(5.0)
        assert not stop.should_stop(10.0, stats())
        assert stop.should_stop(5.0, stats())

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            FloorStop(0)

    def test_frozen_requires_streak(self):
        stop = FrozenStop(patience=2)
        stop.reset()
        assert not stop.should_stop(1.0, stats(cost=10))
        assert not stop.should_stop(1.0, stats(cost=10))  # streak = 1
        assert stop.should_stop(1.0, stats(cost=10))  # streak = 2

    def test_frozen_resets_on_change(self):
        stop = FrozenStop(patience=2)
        stop.reset()
        stop.should_stop(1.0, stats(cost=10))
        stop.should_stop(1.0, stats(cost=10))
        assert not stop.should_stop(1.0, stats(cost=9))
        assert not stop.should_stop(1.0, stats(cost=9))

    def test_frozen_reset_clears_history(self):
        stop = FrozenStop(patience=1)
        stop.reset()
        stop.should_stop(1.0, stats(cost=5))
        stop.reset()
        assert not stop.should_stop(1.0, stats(cost=5))

    def test_frozen_validation(self):
        with pytest.raises(ValueError):
            FrozenStop(patience=0)

    def test_any_of(self):
        stop = AnyOf(FloorStop(5.0), FloorStop(50.0))
        assert stop.should_stop(20.0, stats())
        assert not stop.should_stop(100.0, stats())

    def test_all_of(self):
        stop = AllOf(FloorStop(5.0), FloorStop(50.0))
        assert not stop.should_stop(20.0, stats())
        assert stop.should_stop(4.0, stats())

    def test_combinators_need_members(self):
        with pytest.raises(ValueError):
            AnyOf()
        with pytest.raises(ValueError):
            AllOf()

    def test_window_stop(self):
        from repro.annealing import RangeLimiter

        lim = RangeLimiter(1000.0, 1000.0, 1e5, rho=4.0)
        stop = WindowStop(lim)
        assert not stop.should_stop(1e5, stats())
        assert stop.should_stop(1e-9, stats())
