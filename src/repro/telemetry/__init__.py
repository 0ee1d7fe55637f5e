"""Flow-wide telemetry: structured traces and profiling.

The paper's evidence is observational — acceptance-ratio and
range-limiter traces (Figs. 3-6) and per-stage cost/time breakdowns
(Tables 3-4) — so the reproduction carries a first-class, zero-
dependency instrumentation layer:

* :class:`Tracer` + sinks (:class:`NullSink`, :class:`MemorySink`,
  :class:`FileSink`) — structured JSONL records: spans with wall/CPU
  durations, and point events.  The null sink is the default, so
  instrumented hot loops cost approximately nothing when tracing is off.
  :class:`JsonlTailer` reads any such JSONL file back incrementally, and
  :func:`follow` turns its polls into a stream.
* :mod:`repro.telemetry.report` — regenerates the paper's diagnostic
  tables (acceptance-vs-T, cost-vs-iteration, per-stage time/cost) from
  a trace, as CSV and plain text.
* :class:`TraceContext` (:mod:`repro.telemetry.context`) — the
  W3C-traceparent-style identity that follows a run across process
  boundaries (supervisor → worker → chains → router) and across
  checkpointed retries; see docs/telemetry.md.
* :class:`SamplingProfiler` (:mod:`repro.telemetry.profile`) — the
  low-overhead background-thread stack sampler producing collapsed
  stacks (flamegraph input) with per-stage attribution.

Event schema: ``docs/telemetry.md``.
"""

from .context import (
    TRACEPARENT_ENV,
    TraceContext,
    context_from_env,
    inherit_or_mint,
    mint_context,
)
from .profile import SamplingProfiler, attribution_from_collapsed, parse_collapsed
from .tracer import (
    NULL_TRACER,
    FileSink,
    JsonlTailer,
    MemorySink,
    NullSink,
    Sink,
    Tracer,
    current_tracer,
    follow,
    use_tracer,
)

__all__ = [
    "TRACEPARENT_ENV",
    "TraceContext",
    "context_from_env",
    "inherit_or_mint",
    "mint_context",
    "SamplingProfiler",
    "attribution_from_collapsed",
    "parse_collapsed",
    "NULL_TRACER",
    "FileSink",
    "JsonlTailer",
    "MemorySink",
    "NullSink",
    "Sink",
    "Tracer",
    "current_tracer",
    "follow",
    "use_tracer",
]
