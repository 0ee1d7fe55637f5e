"""The acceptance-ratio-driven (VPR-style) cooling schedule.

Covers the alpha bands, the d_limit feedback window with its clamps,
the cost-floor stopping rule, the engine's optional schedule-feedback
protocol (observe / state_dict / telemetry_fields), and — the part that
has to be *exact* — cursor resume reproducing the uninterrupted
adaptive trajectory bit-for-bit even though the schedule now carries
mutable state.
"""

import random

import pytest

from repro.annealing import (
    ADAPTIVE_ALPHA_BANDS,
    TARGET_ACCEPT_RATIO,
    AdaptiveCooling,
    AdaptiveRangeLimiter,
    AnnealCursor,
    Annealer,
    CostFloorStop,
    FloorStop,
    TemperatureStats,
    adaptive_alpha,
)
from repro.annealing.range_limiter import MIN_WINDOW_SPAN
from repro.telemetry import MemorySink, Tracer

from .test_engine import QuadraticState


def stats_with_rate(rate, temperature=10.0, cost=100.0):
    return TemperatureStats(
        temperature=temperature,
        attempts=1000,
        accepts=int(round(rate * 1000)),
        cost_after=cost,
    )


class TestAdaptiveAlpha:
    def test_bands(self):
        assert adaptive_alpha(1.0) == 0.50
        assert adaptive_alpha(0.97) == 0.50
        assert adaptive_alpha(0.90) == 0.90
        assert adaptive_alpha(0.50) == 0.95
        assert adaptive_alpha(0.10) == 0.80
        assert adaptive_alpha(0.0) == 0.80

    def test_band_edges_are_strict(self):
        # Bands use r > threshold, so a ratio exactly at a boundary
        # falls through to the gentler band.
        assert adaptive_alpha(0.96) == 0.90
        assert adaptive_alpha(0.80) == 0.95
        assert adaptive_alpha(0.15) == 0.80

    def test_band_table_is_descending(self):
        thresholds = [t for t, _ in ADAPTIVE_ALPHA_BANDS]
        assert thresholds == sorted(thresholds, reverse=True)


def make_limiter(**kw):
    kw.setdefault("full_span_x", 200.0)
    kw.setdefault("full_span_y", 100.0)
    kw.setdefault("t_infinity", 500.0)
    return AdaptiveRangeLimiter(**kw)


class TestAdaptiveRangeLimiter:
    def test_starts_at_full_span(self):
        limiter = make_limiter()
        assert limiter.window_x(500.0) == 200.0
        assert limiter.window_y(500.0) == 100.0
        assert not limiter.at_minimum(500.0)

    def test_low_acceptance_shrinks_window(self):
        limiter = make_limiter()
        limiter.observe(stats_with_rate(0.1))
        factor = 1.0 - TARGET_ACCEPT_RATIO + 0.1
        assert limiter.d_limit_x == pytest.approx(200.0 * factor)
        assert limiter.d_limit_y == pytest.approx(100.0 * factor)

    def test_high_acceptance_clamps_at_full_span(self):
        limiter = make_limiter()
        limiter.observe(stats_with_rate(0.9))  # factor > 1 but already full
        assert limiter.d_limit_x == 200.0
        assert limiter.d_limit_y == 100.0

    def test_target_ratio_is_the_fixed_point(self):
        limiter = make_limiter()
        limiter.d_limit_x = limiter.d_limit_y = 50.0
        limiter.observe(stats_with_rate(TARGET_ACCEPT_RATIO))
        assert limiter.d_limit_x == pytest.approx(50.0)
        assert limiter.d_limit_y == pytest.approx(50.0)

    def test_shrinks_to_min_span_and_reports_minimum(self):
        limiter = make_limiter()
        for _ in range(200):
            limiter.observe(stats_with_rate(0.0))
        assert limiter.d_limit_x == MIN_WINDOW_SPAN
        assert limiter.d_limit_y == MIN_WINDOW_SPAN
        assert limiter.at_minimum(0.001)
        assert limiter.window_x(0.001) == MIN_WINDOW_SPAN

    def test_temperature_for_fraction_matches_eqn28_rho4(self):
        from repro.annealing import RangeLimiter

        reference = RangeLimiter(
            full_span_x=200.0, full_span_y=100.0, t_infinity=500.0, rho=4.0
        )
        adaptive = make_limiter()
        for mu in (0.05, 0.25, 0.5, 1.0):
            assert adaptive.temperature_for_fraction(mu) == pytest.approx(
                reference.temperature_for_fraction(mu)
            )

    def test_state_dict_round_trip(self):
        limiter = make_limiter()
        limiter.observe(stats_with_rate(0.2))
        limiter.observe(stats_with_rate(0.3))
        clone = make_limiter()
        clone.load_state_dict(limiter.state_dict())
        assert clone.d_limit_x == limiter.d_limit_x
        assert clone.d_limit_y == limiter.d_limit_y

    def test_telemetry_fields(self):
        limiter = make_limiter()
        fields = limiter.telemetry_fields()
        assert fields == {"d_limit_x": 200.0, "d_limit_y": 100.0}

    @pytest.mark.parametrize(
        "kw",
        [
            {"full_span_x": 0.0},
            {"full_span_y": -1.0},
            {"t_infinity": 0.0},
            {"min_span": 0.0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            make_limiter(**kw)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            make_limiter().temperature_for_fraction(0.0)


class TestAdaptiveCooling:
    def test_initial_state_assumes_hot_plateau(self):
        schedule = AdaptiveCooling(t_infinity=500.0)
        assert schedule.r_accept == 1.0
        assert schedule.alpha(500.0) == 0.50
        assert schedule.next_temperature(100.0) == 50.0

    def test_observe_updates_alpha(self):
        schedule = AdaptiveCooling(t_infinity=500.0)
        schedule.observe(stats_with_rate(0.5))
        assert schedule.r_accept == 0.5
        assert schedule.alpha(10.0) == 0.95
        assert schedule.next_temperature(10.0) == pytest.approx(9.5)

    def test_observe_forwards_to_limiter(self):
        limiter = make_limiter()
        schedule = AdaptiveCooling(t_infinity=500.0, limiter=limiter)
        schedule.observe(stats_with_rate(0.1))
        assert limiter.d_limit_x < 200.0

    def test_state_dict_round_trip_with_limiter(self):
        limiter = make_limiter()
        schedule = AdaptiveCooling(t_infinity=500.0, scale=2.0, limiter=limiter)
        schedule.observe(stats_with_rate(0.3))
        clone = AdaptiveCooling(t_infinity=500.0, scale=2.0, limiter=make_limiter())
        clone.load_state_dict(schedule.state_dict())
        assert clone.r_accept == schedule.r_accept
        assert clone.alpha(1.0) == schedule.alpha(1.0)
        assert clone.limiter.d_limit_x == limiter.d_limit_x

    def test_telemetry_fields_include_limiter(self):
        schedule = AdaptiveCooling(t_infinity=500.0, limiter=make_limiter())
        fields = schedule.telemetry_fields()
        assert set(fields) == {"alpha", "r_accept", "d_limit_x", "d_limit_y"}

    @pytest.mark.parametrize("kw", [{"t_infinity": 0.0}, {"scale": 0.0}])
    def test_validation(self, kw):
        kw.setdefault("t_infinity", 500.0)
        with pytest.raises(ValueError):
            AdaptiveCooling(**kw)


class TestCostFloorStop:
    def test_stops_below_per_net_cost_floor(self):
        stop = CostFloorStop(num_nets=100)
        stats = stats_with_rate(0.5, cost=1000.0)
        # floor = 0.005 * 1000 / 100 = 0.05
        assert not stop.should_stop(0.06, stats)
        assert stop.should_stop(0.04, stats)

    def test_scales_with_net_count(self):
        stats = stats_with_rate(0.5, cost=1000.0)
        assert CostFloorStop(num_nets=10).should_stop(0.4, stats)
        assert not CostFloorStop(num_nets=1000).should_stop(0.006, stats)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostFloorStop(num_nets=0)
        with pytest.raises(ValueError):
            CostFloorStop(num_nets=10, coefficient=0.0)


def make_adaptive_annealer(**kw):
    schedule = AdaptiveCooling(t_infinity=100.0, limiter=make_limiter())
    kw.setdefault("attempts_per_cell", 40)
    kw.setdefault("max_temperatures", 120)
    kw.setdefault("seed", 7)
    return Annealer(schedule, FloorStop(0.01), **kw), schedule


class TestEngineIntegration:
    def test_adaptive_run_converges_and_observes(self):
        annealer, schedule = make_adaptive_annealer()
        state = QuadraticState(50.0)
        result = annealer.run(state)
        assert abs(state.x) < 10.0
        # The schedule saw feedback: it left the initial hot plateau.
        assert schedule.r_accept < 1.0
        # Cooling actually followed the observed ratios: consecutive
        # temperatures are related by one of the four band alphas.
        alphas = {alpha for _, alpha in ADAPTIVE_ALPHA_BANDS}
        for prev, cur in zip(result.steps, result.steps[1:]):
            assert any(
                cur.temperature == pytest.approx(prev.temperature * a)
                for a in alphas
            )

    def test_temperature_events_carry_schedule_fields(self):
        sink = MemorySink()
        annealer, _ = make_adaptive_annealer(
            tracer=Tracer(sink), max_temperatures=10
        )
        annealer.run(QuadraticState(50.0))
        events = [
            e for e in sink.events if e.get("name") == "anneal.temperature"
        ]
        assert events
        for event in events:
            assert "alpha" in event
            assert "r_accept" in event
            assert "d_limit_x" in event

    def test_cursor_resume_is_bit_identical(self):
        """Interrupt an adaptive anneal mid-run, round-trip the cursor
        through to_dict/from_dict, resume with a FRESH schedule and
        annealer: the resumed trajectory (costs, temperatures, window)
        must equal the uninterrupted one exactly."""

        def packed(steps):
            return [
                (s.temperature, s.attempts, s.accepts, s.cost_after)
                for s in steps
            ]

        annealer, schedule = make_adaptive_annealer()
        snapshots = []

        def observer(step_index, stats, state, make_cursor):
            snapshots.append((make_cursor(), state.x))

        state = QuadraticState(50.0)
        result = annealer.run(state, observers=[observer])
        final_schedule_state = schedule.state_dict()

        cursor, x_at_cursor = snapshots[len(snapshots) // 2]
        assert cursor.schedule_state  # the adaptive state rides along
        cursor = AnnealCursor.from_dict(cursor.to_dict())

        resumed_annealer, resumed_schedule = make_adaptive_annealer()
        resumed_state = QuadraticState(x0=x_at_cursor)
        resumed = resumed_annealer.run(resumed_state, resume=cursor)

        assert packed(resumed.steps) == packed(result.steps)
        assert resumed.final_cost == result.final_cost
        assert resumed_state.x == state.x
        assert resumed_schedule.state_dict() == final_schedule_state

    def test_table_schedule_cursor_has_empty_schedule_state(self):
        from .test_engine import geometric_schedule

        annealer = Annealer(
            geometric_schedule(), FloorStop(10.0), attempts_per_cell=5, seed=3
        )
        snapshots = []

        def observer(step_index, stats, state, make_cursor):
            snapshots.append(make_cursor())

        annealer.run(QuadraticState(20.0), observers=[observer])
        assert snapshots
        for cursor in snapshots:
            assert cursor.schedule_state == {}
        # Legacy cursor dicts (no schedule_state key) still load.
        payload = snapshots[0].to_dict()
        payload.pop("schedule_state")
        assert AnnealCursor.from_dict(payload).schedule_state == {}


class TestAdaptiveEta:
    """Satellite: schedule-aware ETAs under adaptive cooling."""

    def test_geometric_projection_with_current_alpha(self):
        import math

        schedule = AdaptiveCooling(t_infinity=100.0)
        # Fresh schedule assumes the hot plateau: alpha = 0.5.
        expected = math.ceil(math.log(0.01 / 100.0) / math.log(0.5))
        assert schedule.eta_steps(100.0, 0.01) == expected
        # After observing a mid-range ratio the projection lengthens.
        schedule.observe(stats_with_rate(0.44))
        assert schedule.alpha(100.0) == 0.95
        assert schedule.eta_steps(100.0, 0.01) > expected

    def test_eta_steps_edge_cases(self):
        schedule = AdaptiveCooling(t_infinity=100.0)
        assert schedule.eta_steps(0.005, 0.01) == 0   # already below floor
        assert schedule.eta_steps(100.0, 0.0) is None  # no floor anchor
        assert schedule.eta_steps(100.0, 0.01, cap=3) == 3  # clamped

    def test_cost_floor_stop_estimates_its_own_floor(self):
        stop = CostFloorStop(num_nets=100, coefficient=0.005)
        stats = stats_with_rate(0.4, cost=2000.0)
        assert stop.floor_estimate(stats) == pytest.approx(0.1)
        # The estimate IS the firing threshold.
        assert stop.should_stop(0.0999, stats)
        assert not stop.should_stop(0.11, stats)

    def test_combinator_floor_estimates(self):
        from repro.annealing import AllOf, AnyOf, WindowStop

        floor = FloorStop(2.0)
        cost = CostFloorStop(num_nets=100)
        window = WindowStop(make_limiter())  # no floor of its own
        stats = stats_with_rate(0.4, cost=2000.0)  # cost floor = 0.1
        assert AnyOf(floor, cost).floor_estimate(stats) == pytest.approx(2.0)
        assert AllOf(floor, cost).floor_estimate(stats) == pytest.approx(0.1)
        assert AnyOf(window, cost).floor_estimate(stats) == pytest.approx(0.1)
        assert window.floor_estimate(stats) is None

    def test_adaptive_heartbeat_etas_are_flagged_estimates(self, tmp_path):
        from repro.telemetry import MemorySink, Tracer, use_tracer

        from ..conftest import fold_beats

        annealer, _ = make_adaptive_annealer(max_temperatures=30)
        memory = MemorySink()
        with use_tracer(Tracer(memory)):
            annealer.run(QuadraticState(50.0))
        beats = [
            b
            for b in fold_beats(memory.events)
            if b["phase"] == "anneal"
        ]
        assert beats
        for beat in beats:
            assert "eta_steps" in beat  # always present under adaptive
            if beat["eta_steps"] is not None:
                assert beat["eta_estimated"] is True
                assert beat["eta_steps"] >= 0
        # The FloorStop anchor makes a projection possible here.
        assert any(b["eta_steps"] is not None for b in beats)

    def test_adaptive_without_floor_reports_explicit_null(self, tmp_path):
        """No ETA anchor at all: the beat says eta: null out loud
        instead of omitting the field or inventing a number."""
        from repro.annealing import StoppingCriterion
        from repro.telemetry import MemorySink, Tracer, use_tracer

        from ..conftest import fold_beats

        class StepBudget(StoppingCriterion):
            def __init__(self, steps):
                self.left = steps

            def should_stop(self, temperature, stats):
                self.left -= 1
                return self.left <= 0

        schedule = AdaptiveCooling(t_infinity=100.0, limiter=make_limiter())
        annealer = Annealer(
            schedule, StepBudget(5), attempts_per_cell=5, seed=7,
            max_temperatures=10,
        )
        memory = MemorySink()
        with use_tracer(Tracer(memory)):
            annealer.run(QuadraticState(50.0))
        beats = [
            b
            for b in fold_beats(memory.events)
            if b["phase"] == "anneal"
        ]
        assert beats
        for beat in beats:
            assert beat["eta_steps"] is None
            assert beat["eta_seconds"] is None
            assert "eta_estimated" not in beat

    def test_table_schedule_etas_stay_unflagged(self, tmp_path):
        """The fixed-table path is not an estimate: no eta_estimated
        flag, and no eta keys at all when there is no floor anchor."""
        from repro.telemetry import MemorySink, Tracer, use_tracer

        from ..conftest import fold_beats

        from .test_engine import geometric_schedule

        annealer = Annealer(
            geometric_schedule(),
            FloorStop(10.0),
            attempts_per_cell=5,
            seed=3,
            eta_floor=10.0,
        )
        memory = MemorySink()
        with use_tracer(Tracer(memory)):
            annealer.run(QuadraticState(20.0))
        beats = [
            b
            for b in fold_beats(memory.events)
            if b["phase"] == "anneal"
        ]
        assert beats
        for beat in beats:
            assert "eta_estimated" not in beat
            assert beat.get("eta_steps") is not None  # exact walk
