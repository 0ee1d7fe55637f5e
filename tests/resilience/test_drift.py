"""The incremental-cost drift guard: tolerance actions and telemetry."""

import warnings

import pytest

from repro.resilience import DriftError, DriftGuard
from repro.telemetry import MemorySink, Tracer, use_tracer


class FakeState:
    """A stand-in exposing the movers' drift protocol."""

    def __init__(self, max_relative=0.0):
        self.max_relative = max_relative
        self.resynced = 0

    def cost_drift(self):
        return {
            "c1": self.max_relative,
            "c2_raw": 0.0,
            "c3": 0.0,
            "max_relative": self.max_relative,
        }

    def resync(self):
        self.resynced += 1


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"every": 0},
            {"every": 5, "tolerance": 0.0},
            {"every": 5, "action": "explode"},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            DriftGuard(**kw)


class TestCheck:
    def test_within_tolerance_is_silent(self):
        guard = DriftGuard(every=1, tolerance=1e-6)
        state = FakeState(max_relative=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = guard.check(3, state, state.cost_drift())
        assert report.step_index == 3
        assert guard.reports == [report]

    def test_warn_action(self):
        guard = DriftGuard(every=1, tolerance=1e-6, action="warn")
        state = FakeState(max_relative=1e-3)
        with pytest.warns(UserWarning, match="drift"):
            guard.check(0, state, state.cost_drift())
        assert state.resynced == 0

    def test_resync_action(self):
        guard = DriftGuard(every=1, tolerance=1e-6, action="resync")
        state = FakeState(max_relative=1e-3)
        guard.check(0, state, state.cost_drift())
        assert state.resynced == 1

    def test_raise_action(self):
        guard = DriftGuard(every=1, tolerance=1e-6, action="raise")
        state = FakeState(max_relative=1e-3)
        with pytest.raises(DriftError, match="exceeds tolerance"):
            guard.check(7, state, state.cost_drift())


class TestObserver:
    def observe(self, guard, state, steps):
        obs = guard.observer()
        for step in range(steps):
            obs(step, None, state, None)

    def test_respects_cadence(self):
        guard = DriftGuard(every=3, tolerance=1.0)
        self.observe(guard, FakeState(), steps=9)
        assert [r.step_index for r in guard.reports] == [2, 5, 8]

    def test_skips_states_without_drift_protocol(self):
        guard = DriftGuard(every=1, tolerance=1.0)
        self.observe(guard, object(), steps=3)
        assert guard.reports == []


class TestTelemetry:
    def test_gauge_emitted(self):
        sink = MemorySink()
        guard = DriftGuard(every=1, tolerance=1.0)
        state = FakeState(max_relative=0.5)
        with use_tracer(Tracer(sink)):
            guard.check(4, state, state.cost_drift())
        # The drift reading is a plain event: value, step, per-term drifts.
        (gauge,) = [e for e in sink.events if e.get("name") == "anneal.cost_drift"]
        assert gauge["ev"] == "event"
        assert gauge["value"] == 0.5
        assert gauge["step"] == 4
        assert {"c1", "c2_raw", "c3"} <= set(gauge)

    def test_resync_event_emitted(self):
        sink = MemorySink()
        guard = DriftGuard(every=1, tolerance=1e-6, action="resync")
        state = FakeState(max_relative=1.0)
        with use_tracer(Tracer(sink)):
            guard.check(2, state, state.cost_drift())
        assert any(e.get("name") == "anneal.drift_resync" for e in sink.events)
