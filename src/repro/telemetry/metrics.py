"""Named counters for in-process aggregation.

Where the tracer records *when* things happened, the registry records
*how often* — cheap enough to update from the annealing hot loop (a
counter increment is one attribute add).  The registry is how the
per-move-kind attempt/accept statistics (formerly the ad-hoc
``MoveGenerator.stats`` dict) are kept, and a snapshot of it can be
flushed into a trace as a single ``metrics`` event.
"""

from __future__ import annotations

from typing import Any, Dict, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count.  Hot-path users may bump
    ``value`` directly; ``inc`` is the readable spelling."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class MetricsRegistry:
    """Get-or-create store of named metrics.

    Names are free-form dotted strings (``moves.displace.attempts``);
    requesting an existing name returns the same object, so independent
    layers can share series without plumbing references around.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable dump of every registered metric."""
        out: Dict[str, Any] = {}
        if self._counters:
            out["counters"] = {n: c.value for n, c in sorted(self._counters.items())}
        return out

    def emit(self, tracer, name: str = "metrics") -> None:
        """Flush a snapshot into a trace as one ``metrics`` event."""
        if tracer.enabled:
            tracer.event(name, **self.snapshot())
