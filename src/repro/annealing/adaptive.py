"""Acceptance-ratio-driven cooling: the VPR-style adaptive alternative.

The paper's Tables 1/2 prescribe alpha(T) as a function of temperature
alone, calibrated once on 25-cell industrial circuits.  The adaptive
schedule (ported from the VPR placer family; see the `cgra_pnr` thunder
kernel) instead reads the *measured* acceptance ratio of the inner loop
just completed and picks alpha from it::

    r_accept > 0.96  ->  alpha = 0.50    (high-T plateau: cool fast)
    r_accept > 0.80  ->  alpha = 0.90
    r_accept > 0.15  ->  alpha = 0.95    (the productive mid-range)
    otherwise        ->  alpha = 0.80    (quench)

The displacement window follows the same feedback: after every inner
loop the limit is rescaled by ``1 - 0.44 + r_accept`` — it grows while
more than 44 % of moves are accepted and shrinks below that — and is
clamped to ``[min_span, full_span]``.  The steady state of that update
holds the acceptance ratio near 0.44, which is VPR's target for maximum
annealing efficiency.

The classes here duck-type the interfaces the engine and stage drivers
already use: :class:`AdaptiveCooling` stands in for a
``CoolingSchedule`` (``t_infinity`` / ``next_temperature``), and
:class:`AdaptiveRangeLimiter` for a ``RangeLimiter`` (``window_x`` /
``window_y`` / ``at_minimum`` / ``temperature_for_fraction``).  Both
carry their feedback state through ``state_dict`` / ``load_state_dict``
so checkpoint/resume replays the adaptive trajectory bit-for-bit, and
expose ``telemetry_fields`` so per-temperature trace events record the
chosen alpha and the current window.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from .engine import StoppingCriterion, TemperatureStats
from .range_limiter import MIN_WINDOW_SPAN

#: (threshold, alpha) bands of the adaptive update, highest first.
ADAPTIVE_ALPHA_BANDS = (
    (0.96, 0.50),
    (0.80, 0.90),
    (0.15, 0.95),
    (-1.0, 0.80),
)

#: The acceptance ratio the d_limit feedback loop converges toward.
TARGET_ACCEPT_RATIO = 0.44


def adaptive_alpha(r_accept: float) -> float:
    """The cooling factor for a measured acceptance ratio."""
    for threshold, alpha in ADAPTIVE_ALPHA_BANDS:
        if r_accept > threshold:
            return alpha
    return ADAPTIVE_ALPHA_BANDS[-1][1]


class AdaptiveRangeLimiter:
    """A displacement window driven by the acceptance ratio, not by T.

    Starts at the full core spans (any move can go anywhere, as at T∞)
    and rescales by ``1 - 0.44 + r_accept`` after every inner loop,
    clamped to ``[min_span, full span]``.  Stands in for
    :class:`~repro.annealing.range_limiter.RangeLimiter` wherever the
    stage drivers consult the window.
    """

    def __init__(
        self,
        full_span_x: float,
        full_span_y: float,
        t_infinity: float,
        min_span: float = MIN_WINDOW_SPAN,
    ) -> None:
        if full_span_x <= 0 or full_span_y <= 0:
            raise ValueError("window spans must be positive")
        if t_infinity <= 0:
            raise ValueError("t_infinity must be positive")
        if min_span <= 0:
            raise ValueError("min_span must be positive")
        self.full_span_x = float(full_span_x)
        self.full_span_y = float(full_span_y)
        self.t_infinity = float(t_infinity)
        self.min_span = float(min_span)
        self.d_limit_x = self.full_span_x
        self.d_limit_y = self.full_span_y

    # -- RangeLimiter interface -----------------------------------------

    def window_x(self, temperature: float) -> float:
        return max(self.min_span, self.d_limit_x)

    def window_y(self, temperature: float) -> float:
        return max(self.min_span, self.d_limit_y)

    def at_minimum(self, temperature: float) -> bool:
        return self.d_limit_x <= self.min_span and self.d_limit_y <= self.min_span

    def temperature_for_fraction(self, mu: float) -> float:
        """The stage-2 handoff temperature for window fraction ``mu``.

        The adaptive window has no closed-form T(W) relation, so this
        uses the paper's Eqn 28 with the reference rho = 4 — the same
        T' the Table-2 flow would start refinement from.
        """
        if not 0.0 < mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        return mu ** math.log(10.0, 4.0) * self.t_infinity

    # -- adaptive feedback ----------------------------------------------

    def observe(self, stats: TemperatureStats) -> None:
        factor = 1.0 - TARGET_ACCEPT_RATIO + stats.acceptance_rate
        self.d_limit_x = min(
            self.full_span_x, max(self.min_span, self.d_limit_x * factor)
        )
        self.d_limit_y = min(
            self.full_span_y, max(self.min_span, self.d_limit_y * factor)
        )

    def state_dict(self) -> Dict[str, Any]:
        return {"d_limit_x": self.d_limit_x, "d_limit_y": self.d_limit_y}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.d_limit_x = state["d_limit_x"]
        self.d_limit_y = state["d_limit_y"]

    def telemetry_fields(self) -> Dict[str, float]:
        return {
            "d_limit_x": round(self.d_limit_x, 3),
            "d_limit_y": round(self.d_limit_y, 3),
        }


class AdaptiveCooling:
    """An acceptance-ratio-driven cooling schedule.

    Duck-types ``CoolingSchedule`` where the engine needs it
    (``t_infinity``, ``next_temperature``) and additionally implements
    the engine's optional feedback protocol: ``observe(stats)`` after
    every inner loop, ``state_dict``/``load_state_dict`` for resumable
    cursors, and ``telemetry_fields`` for per-temperature snapshots.

    ``scale`` is the paper's S_T, kept so stage drivers can anchor
    their temperature floors exactly as they do for the table schedule.
    When a ``limiter`` (:class:`AdaptiveRangeLimiter`) is attached, its
    feedback and checkpoint state ride along with the schedule's.
    """

    def __init__(
        self,
        t_infinity: float,
        scale: float = 1.0,
        limiter: Optional[AdaptiveRangeLimiter] = None,
    ) -> None:
        if t_infinity <= 0:
            raise ValueError("t_infinity must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.t_infinity = float(t_infinity)
        self.scale = float(scale)
        self.limiter = limiter
        # Before the first inner loop completes, assume the high-T
        # plateau (virtually everything accepted): fast cooling.
        self._r_accept = 1.0
        self._alpha = adaptive_alpha(self._r_accept)

    @property
    def r_accept(self) -> float:
        """The most recently observed acceptance ratio."""
        return self._r_accept

    def alpha(self, temperature: float) -> float:
        """Current alpha (independent of T; signature mirrors the table
        schedule so plotting code can treat both uniformly)."""
        return self._alpha

    def next_temperature(self, temperature: float) -> float:
        return temperature * self._alpha

    def eta_steps(
        self, temperature: float, floor: float, cap: Optional[int] = None
    ) -> Optional[int]:
        """Projected temperature steps to reach ``floor`` — a geometric
        extrapolation of the *current* alpha, since future alphas depend
        on acceptance ratios not yet measured.  The engine flags
        ETAs built from this as estimates.  None when no
        finite projection exists."""
        if floor <= 0 or temperature <= floor:
            return 0 if temperature <= floor and floor > 0 else None
        if not 0.0 < self._alpha < 1.0:
            return None
        steps = int(math.ceil(math.log(floor / temperature) / math.log(self._alpha)))
        steps = max(0, steps)
        return min(steps, cap) if cap is not None else steps

    # -- engine feedback protocol ---------------------------------------

    def observe(self, stats: TemperatureStats) -> None:
        self._r_accept = stats.acceptance_rate
        self._alpha = adaptive_alpha(self._r_accept)
        if self.limiter is not None:
            self.limiter.observe(stats)

    def state_dict(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {"r_accept": self._r_accept, "alpha": self._alpha}
        if self.limiter is not None:
            state["limiter"] = self.limiter.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._r_accept = state["r_accept"]
        self._alpha = state["alpha"]
        if self.limiter is not None and "limiter" in state:
            self.limiter.load_state_dict(state["limiter"])

    def telemetry_fields(self) -> Dict[str, float]:
        fields = {
            "alpha": round(self._alpha, 4),
            "r_accept": round(self._r_accept, 4),
        }
        if self.limiter is not None:
            fields.update(self.limiter.telemetry_fields())
        return fields


class CostFloorStop(StoppingCriterion):
    """The VPR stopping rule: quit once T falls below a small fraction
    of the per-net cost (``T < coefficient * cost / num_nets``).  At
    that point even a one-net improvement is effectively never accepted
    uphill, so further cooling is wasted work."""

    def __init__(self, num_nets: int, coefficient: float = 0.005) -> None:
        if num_nets < 1:
            raise ValueError("num_nets must be at least 1")
        if coefficient <= 0:
            raise ValueError("coefficient must be positive")
        self._num_nets = num_nets
        self._coefficient = coefficient

    def should_stop(self, temperature: float, stats: TemperatureStats) -> bool:
        return temperature < self._coefficient * stats.cost_after / self._num_nets

    def floor_estimate(self, stats: TemperatureStats) -> Optional[float]:
        """The current cost-derived floor.  The cost keeps falling as
        the anneal proceeds — so does this floor — which makes ETAs
        anchored on it estimates, refreshed every temperature step."""
        return self._coefficient * stats.cost_after / self._num_nets
