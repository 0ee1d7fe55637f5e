"""Low-overhead sampling profiler: where the anneal's wall-clock goes.

A deterministic profiler such as ``cProfile`` is exact but costs tens
of percent on the move loop — fine for one-off investigation, unusable
always-on.  Here a background thread samples the target thread's stack
at a fixed rate via ``sys._current_frames()`` and aggregates the samples
into Brendan-Gregg-style *collapsed stacks* (``frame;frame;frame N``),
the input format of every flamegraph renderer.  Sampling cost is a few
microseconds per tick, so at the default ~100 Hz the overhead on the
hot loop stays within the CI-gated budget (≤5 %, see
``benchmarks/bench_moves_per_sec.py``).

A signal-based sampler (``setitimer``/``SIGPROF``) would be cheaper
still, but the flow already owns SIGINT/SIGTERM for checkpointing
(``resilience.signals.trap_signals``) and worker processes reset their
signal disposition on start; a daemon thread composes with all of that
and works on every platform.

Per-stage attribution falls out of the stacks themselves: every sample
taken inside stage 1 passes through ``run_stage1`` (and through
``BatchMoveGenerator`` or the object core's ``MoveGenerator``), router
samples pass through ``route``/``m_shortest_routes``, so
:meth:`SamplingProfiler.attribution` can bucket samples by the
flow-level frames they contain without any cooperation from the flow.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Default sampling rate.  A prime-ish rate avoids lockstep with
#: periodic work (the classic profiler-bias defence).
DEFAULT_HZ = 97.0

#: Frames deeper than this are truncated (guards against pathological
#: recursion blowing up the sample keys).
MAX_DEPTH = 96

#: Flow-level frame names used to bucket samples into stages.  Ordered:
#: the first marker found walking root→leaf wins, so the outermost
#: stage owns the sample.
STAGE_MARKERS: Tuple[Tuple[str, str], ...] = (
    ("stage1", "run_stage1"),
    ("stage2", "run_refinement"),
    ("router", "route_nets_parallel"),
    ("router", "m_shortest_routes"),
    ("router", "route"),
    ("legalize", "legalize"),
)

#: Kernel-level frame substrings for hot-path attribution (the
#: BatchKernel-vs-object-core split the perf docs track).
KERNEL_MARKERS: Tuple[Tuple[str, str], ...] = (
    ("batch_kernel", "repro.placement.batch"),
    ("array_core", "repro.placement.array"),
    ("object_core", "repro.placement.state"),
    ("router", "repro.routing"),
    ("annealing", "repro.annealing"),
)


def _frame_label(frame) -> str:
    """``module.function`` for one frame (module trimmed to the last
    two components so collapsed stacks stay readable)."""
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{frame.f_code.co_name}"


class SamplingProfiler:
    """Samples one thread's stack from a daemon thread.

    Usage::

        prof = SamplingProfiler(hz=97)
        with prof:
            run_the_flow()
        Path("profile.collapsed").write_text(prof.collapsed())

    The profiled thread defaults to the thread that calls
    :meth:`start`.  Samples accumulate across start/stop cycles;
    :meth:`collapsed` renders them at any point.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        thread_id: Optional[int] = None,
        max_depth: int = MAX_DEPTH,
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = float(hz)
        self.max_depth = max_depth
        self._thread_id = thread_id
        self._samples: Counter = Counter()
        self._sampler: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_at: Optional[float] = None
        self.wall_seconds = 0.0
        self.sample_count = 0
        self.missed = 0  # ticks where the target thread had no frame

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._sampler is not None and self._sampler.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        if self._thread_id is None:
            self._thread_id = threading.get_ident()
        self._stop.clear()
        self._started_at = time.monotonic()
        self._sampler = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._sampler.start()
        return self

    def stop(self) -> None:
        if self._sampler is None:
            return
        self._stop.set()
        self._sampler.join(timeout=2.0)
        self._sampler = None
        if self._started_at is not None:
            self.wall_seconds += time.monotonic() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the sampler thread -------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        take = self._take_sample
        while not self._stop.wait(interval):
            take()

    def _take_sample(self) -> None:
        frame = sys._current_frames().get(self._thread_id)
        if frame is None:
            self.missed += 1
            return
        stack: List[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            stack.append(_frame_label(frame))
            frame = frame.f_back
            depth += 1
        stack.reverse()  # root first, leaf last — the collapsed order
        self._samples[tuple(stack)] += 1
        self.sample_count += 1

    # -- output -------------------------------------------------------------

    @property
    def samples(self) -> Dict[Tuple[str, ...], int]:
        return dict(self._samples)

    def collapsed(self) -> str:
        """The flamegraph input: one ``a;b;c count`` line per distinct
        stack, most-sampled first."""
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in self._samples.most_common()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.collapsed(), encoding="utf-8")
        return path

    def attribution(self) -> Dict[str, Any]:
        """Per-stage and per-kernel sample buckets plus the hottest leaf
        frames — the "where did the time go" summary the obs server and
        the tracer event surface."""
        total = sum(self._samples.values())
        stages: Counter = Counter()
        kernels: Counter = Counter()
        leaves: Counter = Counter()
        for stack, count in self._samples.items():
            leaves[stack[-1]] += count
            stage = "other"
            for name, marker in STAGE_MARKERS:
                if any(f.endswith(f".{marker}") for f in stack):
                    stage = name
                    break
            stages[stage] += count
            kernel = "other"
            for name, marker in KERNEL_MARKERS:
                if any(f.startswith(marker) for f in stack):
                    kernel = name
                    break
            kernels[kernel] += count

        def pct(bucket: Counter) -> Dict[str, Dict[str, float]]:
            return {
                name: {
                    "samples": n,
                    "pct": round(100.0 * n / total, 2) if total else 0.0,
                }
                for name, n in bucket.most_common()
            }

        return {
            "samples": total,
            "hz": self.hz,
            "wall_seconds": round(self.wall_seconds, 3),
            "missed": self.missed,
            "stages": pct(stages),
            "kernels": pct(kernels),
            "hot_frames": pct(Counter(dict(leaves.most_common(15)))),
        }

    def summary(self) -> Dict[str, Any]:
        """Compact form for tracer events / JSON routes."""
        attr = self.attribution()
        attr["distinct_stacks"] = len(self._samples)
        return attr


def parse_collapsed(text: str) -> Counter:
    """Inverse of :meth:`SamplingProfiler.collapsed` (obs views re-load
    profiles from disk).  Malformed lines are skipped, torn-tail style."""
    samples: Counter = Counter()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            continue
        samples[tuple(stack.split(";"))] += int(count)
    return samples


def attribution_from_collapsed(text: str) -> Dict[str, Any]:
    """The :meth:`SamplingProfiler.attribution` document recomputed from
    an on-disk collapsed-stack file."""
    prof = SamplingProfiler()
    prof._samples = parse_collapsed(text)
    prof.sample_count = sum(prof._samples.values())
    return prof.attribution()
