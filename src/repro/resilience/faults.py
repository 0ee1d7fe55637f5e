"""Deterministic fault injection for the resilience test harness.

The flow's recovery paths (stage supervision, checkpoint-on-kill, net
fallbacks) are exercised by planting :func:`fault_point` probes at the
interesting sites and arming them from tests::

    with inject_faults(Fault(site="router.route_net", at=3)):
        place_and_route(circuit, config)      # third routed net explodes

Probes are free when no injector is armed: one contextvar read per call,
on cold paths only (never inside the per-move hot loop).

Two failure species are distinguished on purpose:

* ``kind="error"`` raises :class:`FaultError` (an ``Exception``) — the
  supervisor and per-net retry paths are expected to *absorb* it.
* ``kind="kill"`` raises :class:`SimulatedKill`, a ``BaseException``
  like the real ``SystemExit``/``KeyboardInterrupt`` — recovery code
  must let it through, which is exactly what the kill-and-resume tests
  verify.

``REPRO_FAULTS`` (parsed by :func:`faults_from_env`) arms the same
machinery across a process boundary: ``python -m repro`` installs it at
start-up, so ``REPRO_FAULTS="anneal.temperature@5:kill"`` simulates a
kill at the fifth temperature of a subprocess run.  It is a tool for
rehearsing failures by hand; CI's kill-and-resume job
(``scripts/ci_kill_resume.py``) sends a real SIGTERM instead.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


class FaultError(RuntimeError):
    """The exception species an armed ``kind="error"`` fault raises."""


class SimulatedKill(BaseException):
    """An injected process-death stand-in.

    Deliberately a ``BaseException``: recovery code written as
    ``except Exception`` must not be able to swallow a kill, the same
    way it cannot swallow ``KeyboardInterrupt``.
    """


@dataclass
class Fault:
    """One armed fault: fire at the ``at``-th visit of ``site``.

    ``at`` is 1-based (``at=1`` fires on the first visit); ``times``
    allows consecutive firings (``times=2`` also fires on visit
    ``at + 1``, which defeats a single-retry recovery path).
    """

    site: str
    at: int = 1
    times: int = 1
    kind: str = "error"  # "error" | "kill"
    message: Optional[str] = None

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("at is 1-based and must be >= 1")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.kind not in ("error", "kill"):
            raise ValueError(f"unknown fault kind {self.kind!r}")


class FaultInjector:
    """Counts visits per site and raises when an armed fault matches."""

    def __init__(self, faults: List[Fault]) -> None:
        self.faults = list(faults)
        self.hits: Dict[str, int] = {}
        #: (site, visit) pairs that actually fired, for test assertions.
        self.fired: List[tuple] = []

    def visit(self, site: str, **context) -> None:
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        for fault in self.faults:
            if fault.site != site:
                continue
            if not (fault.at <= count < fault.at + fault.times):
                continue
            self.fired.append((site, count))
            message = fault.message or (
                f"injected {fault.kind} at {site} (visit {count}, context {context})"
            )
            if fault.kind == "kill":
                raise SimulatedKill(message)
            raise FaultError(message)


_injector: ContextVar[Optional[FaultInjector]] = ContextVar(
    "repro_fault_injector", default=None
)


def fault_point(site: str, **context) -> None:
    """A probe: no-op unless a :class:`FaultInjector` is armed."""
    injector = _injector.get()
    if injector is not None:
        injector.visit(site, **context)


@contextmanager
def inject_faults(*faults: Fault) -> Iterator[FaultInjector]:
    """Arm faults for the duration of the block (contextvar-scoped)."""
    injector = FaultInjector(list(faults))
    token = _injector.set(injector)
    try:
        yield injector
    finally:
        _injector.reset(token)


def install_injector(injector: Optional[FaultInjector]) -> None:
    """Arm an injector for the rest of the process (CLI entry points)."""
    _injector.set(injector)


def faults_from_env(environ=None) -> List[Fault]:
    """Parse the ``REPRO_FAULTS`` spec: comma-separated entries of the
    form ``site@N:kind`` or ``site@N:kind:Message`` (kind defaults to
    ``error``; ``site@N`` alone is accepted)."""
    environ = environ if environ is not None else os.environ
    spec = environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return []
    faults = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        head, _, rest = entry.partition(":")
        site, _, at = head.partition("@")
        kind, _, message = rest.partition(":")
        faults.append(
            Fault(
                site=site,
                at=int(at) if at else 1,
                kind=kind or "error",
                message=message or None,
            )
        )
    return faults


@dataclass
class JumpClock:
    """A controllable monotonic clock for budget tests.

    ``Budget(clock=JumpClock())`` plus ``clock.jump(3600)`` simulates a
    wall-clock jump (suspend/resume, NTP step) without sleeping.
    """

    now: float = 0.0
    tick: float = 0.0
    _calls: int = field(default=0, repr=False)

    def __call__(self) -> float:
        self.now += self.tick
        self._calls += 1
        return self.now

    def jump(self, seconds: float) -> None:
        self.now += seconds
