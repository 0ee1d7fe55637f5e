"""Incremental-cost drift guard.

The placement cost terms (C1/C2/C3) are maintained incrementally —
millions of float deltas per run.  A silent bookkeeping bug (or exotic
rounding) would corrupt every acceptance decision *and* every checkpoint
downstream of it.  The guard reconciles the accumulators against a
from-scratch recomputation every K temperatures, publishes the observed
drift as an ``anneal.cost_drift`` event, and past a tolerance either
warns, resyncs the accumulators, or raises :class:`DriftError`
(configurable via ``TimberWolfConfig.drift_action``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List

from ..config import DRIFT_ACTIONS
from ..telemetry import current_tracer


class DriftError(RuntimeError):
    """Incremental cost accumulators drifted past the tolerance."""


@dataclass
class DriftReport:
    """One reconciliation: per-term drift (fresh minus accumulated)."""

    step_index: int
    c1: float
    c2_raw: float
    c3: float
    #: Largest per-term drift normalized by the term's fresh magnitude
    #: (floored at 1.0 so near-zero terms don't divide away the signal).
    max_relative: float


class DriftGuard:
    """An annealer observer that audits the incremental bookkeeping."""

    def __init__(
        self, every: int, tolerance: float = 1e-6, action: str = "warn"
    ) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if action not in DRIFT_ACTIONS:
            raise ValueError(f"action must be one of {DRIFT_ACTIONS}")
        self.every = every
        self.tolerance = tolerance
        self.action = action
        self.reports: List[DriftReport] = []

    def observer(self):
        """The engine-observer callable (``annealing.Annealer`` protocol:
        ``obs(step_index, stats, state, make_cursor)``)."""

        def _observe(step_index, stats, state, make_cursor) -> None:
            if (step_index + 1) % self.every != 0:
                return
            drift_fn = getattr(state, "cost_drift", None)
            if drift_fn is None:
                return
            self.check(step_index, state, drift_fn())

        return _observe

    def check(self, step_index: int, state, drift: Dict[str, float]) -> DriftReport:
        report = DriftReport(
            step_index=step_index,
            c1=drift["c1"],
            c2_raw=drift["c2_raw"],
            c3=drift["c3"],
            max_relative=drift["max_relative"],
        )
        self.reports.append(report)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "anneal.cost_drift",
                value=report.max_relative,
                step=step_index,
                c1=report.c1,
                c2_raw=report.c2_raw,
                c3=report.c3,
            )
        if report.max_relative > self.tolerance:
            message = (
                f"incremental cost drift {report.max_relative:.3e} at "
                f"temperature step {step_index} exceeds tolerance "
                f"{self.tolerance:.1e} (c1 {report.c1:+.3e}, "
                f"c2_raw {report.c2_raw:+.3e}, c3 {report.c3:+.3e})"
            )
            if self.action == "raise":
                raise DriftError(message)
            if self.action == "resync":
                state.resync()
                if tracer.enabled:
                    tracer.event("anneal.drift_resync", step=step_index)
            else:
                warnings.warn(message, stacklevel=2)
        return report


def drift_observers(config) -> list:
    """The anneal observers ``config``'s drift check asks for: one fresh
    :class:`DriftGuard`'s observer, or none when ``drift_check_every``
    is 0."""
    if not config.drift_check_every:
        return []
    guard = DriftGuard(
        config.drift_check_every, config.drift_tolerance, config.drift_action
    )
    return [guard.observer()]
