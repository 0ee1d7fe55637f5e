"""Outside-in layer spans for the flow benchmark.

The traced run times each flow layer from outside the program: a
time-and-stack wrapper is installed around the layer's public call, at
the place where the caller bound the name (``from .legalize import
remove_overlaps`` binds a second reference that patching the defining
module would miss).  Spans are kept in memory; the runner writes them
out at the end and reduces them to self times per layer.

Nothing here changes what the wrapped calls compute: the runner checks
that a traced flow reproduces the untraced flow's QoR and work counts.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, attribute, span name).  ``Class.method`` patches the class,
#: which every importer shares.  ``anneal`` spans are split by parent:
#: under ``stage1`` they are stage-1 work, elsewhere the refine anneal.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.flow.timberwolf", "run_stage1", "stage1"),
    ("repro.flow.timberwolf", "remove_overlaps", "legalize"),
    ("repro.flow.timberwolf", "run_refinement", "stage2"),
    ("repro.placement.refine", "remove_overlaps", "legalize"),
    ("repro.placement.refine", "compact", "compact"),
    ("repro.placement.refine", "extract_critical_regions", "channels"),
    ("repro.placement.refine", "decompose_free_space", "channels"),
    ("repro.placement.refine", "ChannelGraph", "channels"),
    ("repro.placement.refine", "cell_edge_expansions", "density"),
    ("repro.routing.router", "GlobalRouter.route", "router.route"),
    ("repro.routing.router", "GlobalRouter.route_net", "router.phase1"),
    ("repro.routing.interchange", "RouteSelector.run", "router.phase2"),
    ("repro.annealing.engine", "Annealer.run", "anneal"),
)

#: Marker set on every installed wrapper.
MARK = "__flowbench_span__"


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: Optional[int], start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """An in-memory span stack for one single-threaded flow."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, fn, name: str):
        recorder = self

        # updated=(): a wrapped class must not copy its namespace over.
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            stack = recorder._stack
            span = Span(name, stack[-1] if stack else None, time.perf_counter())
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        setattr(traced, MARK, name)
        return traced

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer: each span's duration minus its children's,
        summed by layer name (``anneal`` resolved by its parent)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        out: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            layer = span.name
            if layer == "anneal":
                parent = self.spans[span.parent].name if span.parent is not None else ""
                layer = "stage1" if parent == "stage1" else "refine.anneal"
            out[layer] = out.get(layer, 0.0) + span.duration - child[i]
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def to_records(self) -> List[Dict]:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


def _owner(module: str, attribute: str):
    """(object holding the attribute, attribute name)."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def installed() -> List[str]:
    """Targets that currently carry a wrapper (empty when clean)."""
    return [
        f"{module}.{attribute}"
        for module, attribute, _ in TARGETS
        if hasattr(getattr(*_owner(module, attribute)), MARK)
    ]


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for module, attribute, name in TARGETS:
            owner, attr = _owner(module, attribute)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
