"""Shared fixtures: small circuits the tests can anneal in milliseconds."""

from __future__ import annotations

import random

import pytest

from repro.netlist import (
    Circuit,
    ContinuousAspectRatio,
    CustomCell,
    MacroCell,
    Pin,
    PinKind,
)


def make_macro_circuit(
    num_cells: int = 6,
    nets_mod: int = 8,
    seed: int = 7,
    name: str = "fixture",
) -> Circuit:
    """A deterministic all-macro circuit with boundary pins."""
    rng = random.Random(seed)
    cells = []
    for i in range(num_cells):
        w, h = rng.randint(10, 24), rng.randint(10, 24)
        pins = [
            Pin(
                f"p{k}",
                f"n{(i * 3 + k) % nets_mod}",
                PinKind.FIXED,
                offset=(round(rng.uniform(-w / 2, w / 2), 1), -h / 2),
            )
            for k in range(4)
        ]
        cells.append(MacroCell.rectangular(f"m{i}", w, h, pins))
    return Circuit(name, cells)


def make_mixed_circuit(seed: int = 11) -> Circuit:
    """Macros plus custom cells with grouped/sequenced pins."""
    base = make_macro_circuit(num_cells=5, seed=seed, name="mixed")
    cells = list(base.cells.values())
    cpins = [
        Pin("a", "n1", PinKind.EDGE),
        Pin("b", "n2", PinKind.GROUP, group="G", sides=frozenset({"top", "bottom"})),
        Pin("c", "n2", PinKind.GROUP, group="G", sides=frozenset({"top", "bottom"})),
        Pin("d", "n3", PinKind.SEQUENCE, group="S", sequence_index=0),
        Pin("e", "n3", PinKind.SEQUENCE, group="S", sequence_index=1),
        Pin("f", "n0", PinKind.FIXED, offset=(0.0, 10.0)),
    ]
    cells.append(
        CustomCell(
            "cust0",
            cpins,
            area=400.0,
            aspect=ContinuousAspectRatio(0.5, 2.0),
            sites_per_edge=4,
        )
    )
    return Circuit("mixed", cells)


#: Tracers the running test opened files for (see :func:`closing`).
_OPEN_TRACERS: list = []


def closing(tracer):
    """Register ``tracer`` to be closed after the running test."""
    _OPEN_TRACERS.append(tracer)
    return tracer


@pytest.fixture(autouse=True)
def _close_tracers():
    yield
    while _OPEN_TRACERS:
        _OPEN_TRACERS.pop().close()


@pytest.fixture
def macro_circuit() -> Circuit:
    return make_macro_circuit()


@pytest.fixture
def mixed_circuit() -> Circuit:
    return make_mixed_circuit()


def fold_beats(events):
    """Every beat an event stream folds to, in order."""
    from repro.qor import BeatFold

    fold = BeatFold()
    return [beat for beat in map(fold, events) if beat is not None]


class FakeRun:
    """A recorded run without a flow, for the readers' tests.

    Its tracer feeds the rundir's heartbeat snapshot and its run log,
    exactly as a recorded flow's does; the methods emit the events a
    flow would, so every beat takes the real fold.  Every run's log is
    closed after the test that opened it.
    """

    def __init__(self, rundir, run_id="r1", circuit=None, log="trace-attempt-01.jsonl"):
        from pathlib import Path

        from repro.qor import HeartbeatWriter
        from repro.telemetry import FileSink, Tracer

        self.rundir = Path(rundir)
        self.rundir.mkdir(parents=True, exist_ok=True)
        self.log = self.rundir / log
        self.tracer = closing(
            Tracer(
                [HeartbeatWriter(self.rundir / "heartbeat.json"), FileSink(str(self.log))]
            )
        )
        start = {"circuit": circuit} if circuit is not None else {}
        self.tracer.event(
            "run.start",
            run_id=run_id,
            command="place",
            anchor=self.tracer.anchor,
            **start,
        )

    def anneal(self, step=0, **fields):
        """One temperature step: an ``anneal`` beat."""
        self.tracer.event("anneal.temperature", step=step, **fields)

    def stage(self, name):
        """Enter a flow stage: a ``flow`` beat that sets ``stage``."""
        with self.tracer.span(name):
            pass

    def end(self, status="ok", **fields):
        """The run's final beat (``done``, ``interrupted`` or ``failed``)."""
        self.tracer.event("run.end", status=status, **fields)
