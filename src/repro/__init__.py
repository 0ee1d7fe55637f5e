"""TimberWolfMC reproduction.

A from-scratch Python implementation of the macro/custom cell
chip-planning, placement, and global-routing package of:

    Carl Sechen, "Chip-Planning, Placement, and Global Routing of
    Macro/Custom Cell Integrated Circuits Using Simulated Annealing",
    Proc. 25th Design Automation Conference (DAC), 1988.

The public entry points:

* :func:`repro.place_and_route` — run the full two-stage flow.
* :class:`repro.TimberWolfConfig` — all tunables, with presets.
* :mod:`repro.netlist` — build or parse circuits.
* :mod:`repro.bench` — the synthetic 9-circuit benchmark suite.
* :mod:`repro.telemetry` — structured tracing and the trace report
  generator (:class:`repro.Tracer`, :class:`repro.FileSink`, ...).
* :mod:`repro.resilience` — checkpoint/resume, run budgets, interrupt
  trapping, stage supervision, and the fault-injection harness
  (:class:`repro.Budget`, :class:`repro.CheckpointPolicy`,
  :func:`repro.resume_place_and_route`, ...).
* :mod:`repro.parallel` — the process-pool execution layer: K-chain
  stage-1 annealing with best-of-K exchange and the per-net router
  fan-out (:class:`repro.ParallelConfig`, :func:`repro.spawn_seed`).
* :mod:`repro.qor` — cross-run observability: run manifests, the SQLite
  run registry, live heartbeats, and QoR regression gating
  (:class:`repro.RunRecorder`, :class:`repro.RunRegistry`,
  :func:`repro.gate_records`).
"""

from .config import ParallelConfig, TimberWolfConfig
from .flow import TimberWolfResult, place_and_route, resume_place_and_route
from .resilience import (
    Budget,
    CheckpointError,
    CheckpointPolicy,
    FlowInterrupted,
)
from .parallel.seeds import spawn_seed
from .qor import (
    GateThresholds,
    RunRecorder,
    RunRegistry,
    compare_records,
    gate_records,
)
from .telemetry import FileSink, MemorySink, NullSink, Tracer, use_tracer

__version__ = "1.4.0"

__all__ = [
    "ParallelConfig",
    "spawn_seed",
    "TimberWolfConfig",
    "TimberWolfResult",
    "place_and_route",
    "resume_place_and_route",
    "Budget",
    "CheckpointError",
    "CheckpointPolicy",
    "FlowInterrupted",
    "FileSink",
    "GateThresholds",
    "MemorySink",
    "NullSink",
    "RunRecorder",
    "RunRegistry",
    "Tracer",
    "compare_records",
    "gate_records",
    "use_tracer",
    "__version__",
]
