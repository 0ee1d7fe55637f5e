"""The range-limiter window and displacement-point selection (§3.2.2-3.2.3).

At low temperatures, long-distance moves are almost always rejected, so
the window from which a new cell location is drawn shrinks with the
logarithm of T (Eqns 12-14)::

    W_x(T) = W_x_inf * rho**log10(T) / lambda,   lambda = rho**log10(T_inf)

rho = 4 gave the lowest final TEIL *and* the lowest residual overlap in
the paper's sweeps (any rho in [1, 4] matched on TEIL alone).

The displacement-point selector Ds (Eqn 15-16) restricts moves to a small
set of evenly dispersed points: the step in each axis is an integer in
{-3..3} times W(T)/6, giving the 48 candidate points of §3.2.3.  The
paper prints the y divisor as 4, which would let |dy| exceed the stated
0.5*W_y(T) bound; we use 6 for both axes, consistent with that bound and
with the 7 x 7 - 1 = 48 point count.  A uniform selector Dr is provided
for the ablation benchmark.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

#: Step multipliers of the Ds selector (excluding (0, 0), chosen jointly).
STEP_MULTIPLIERS = (-3, -2, -1, 0, 1, 2, 3)

#: Window span, in grid units, at which stage 1 terminates (§3.2.3).
MIN_WINDOW_SPAN = 6.0


@dataclass(frozen=True)
class RangeLimiter:
    """The shrinking window controlling single-cell displacements.

    ``full_span_x`` / ``full_span_y`` are W_x∞ / W_y∞ — the window spans at
    T = T∞, normally the full core spans (so the first moves can reach
    anywhere).  ``t_infinity`` anchors the normalization constant lambda.
    """

    full_span_x: float
    full_span_y: float
    t_infinity: float
    rho: float = 4.0
    min_span: float = MIN_WINDOW_SPAN

    def __post_init__(self) -> None:
        if self.full_span_x <= 0 or self.full_span_y <= 0:
            raise ValueError("window spans must be positive")
        if self.t_infinity <= 0:
            raise ValueError("t_infinity must be positive")
        if not 1.0 <= self.rho <= 10.0:
            raise ValueError("rho must lie in [1, 10]")
        if self.min_span <= 0:
            raise ValueError("min_span must be positive")

    def _shrink_factor(self, temperature: float) -> float:
        if temperature <= 0:
            return 0.0
        if self.rho == 1.0:
            return 1.0  # rho = 1 never shrinks the window
        lam = self.rho ** math.log10(self.t_infinity)
        return self.rho ** math.log10(temperature) / lam

    def window_x(self, temperature: float) -> float:
        """W_x(T) of Eqn 12, floored at the minimum span."""
        return max(self.min_span, self.full_span_x * self._shrink_factor(temperature))

    def window_y(self, temperature: float) -> float:
        """W_y(T) of Eqn 13, floored at the minimum span."""
        return max(self.min_span, self.full_span_y * self._shrink_factor(temperature))

    def at_minimum(self, temperature: float) -> bool:
        """True when the window has reached its minimum span — the stage-1
        stopping condition."""
        factor = self._shrink_factor(temperature)
        return (
            self.full_span_x * factor <= self.min_span
            and self.full_span_y * factor <= self.min_span
        )

    def temperature_for_fraction(self, mu: float) -> float:
        """Invert Eqn 12: the temperature T' at which the window is the
        fraction ``mu`` of its full span (Eqn 28: T' = mu**log_rho(10) * T∞)."""
        if not 0.0 < mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        if self.rho == 1.0:
            raise ValueError("rho = 1 window never shrinks; no such temperature")
        return mu ** math.log(10.0, self.rho) * self.t_infinity


def ds_steps(limiter: RangeLimiter, temperature: float) -> Tuple[float, float]:
    """The Ds grid steps at T: W_x(T)/6 and W_y(T)/6, each at least 1."""
    return (
        max(1.0, limiter.window_x(temperature) / 6.0),
        max(1.0, limiter.window_y(temperature) / 6.0),
    )


def ds_point(
    rng: random.Random, center: Tuple[float, float], step_x: float, step_y: float
) -> Tuple[float, float]:
    """One of the 48 Ds points on the given grid steps around ``center``
    (never the center itself)."""
    while True:
        ix = rng.choice(STEP_MULTIPLIERS)
        iy = rng.choice(STEP_MULTIPLIERS)
        if ix or iy:
            return (center[0] + ix * step_x, center[1] + iy * step_y)


def select_displacement_ds(
    rng: random.Random,
    center: Tuple[float, float],
    limiter: RangeLimiter,
    temperature: float,
) -> Tuple[float, float]:
    """The Ds selector of §3.2.3: pick one of the 48 evenly dispersed
    points in the window centered on ``center`` (never the center itself)."""
    return ds_point(rng, center, *ds_steps(limiter, temperature))


def select_displacement_dr(
    rng: random.Random,
    center: Tuple[float, float],
    limiter: RangeLimiter,
    temperature: float,
) -> Tuple[float, float]:
    """The Dr selector: a uniformly random point in the window (the
    baseline Ds was compared against; kept for the ablation benchmark)."""
    half_x = limiter.window_x(temperature) / 2.0
    half_y = limiter.window_y(temperature) / 2.0
    return (
        center[0] + rng.uniform(-half_x, half_x),
        center[1] + rng.uniform(-half_y, half_y),
    )
