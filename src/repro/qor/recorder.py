"""RunRecorder: the glue between one flow run and the observability layer.

One recorder per run.  It owns the rundir (``manifest.json``,
``heartbeat.json``, ``qor.json``), the registry rows, and two Tracer
sinks: a :class:`QorSink`, through which span timings and
``MetricsRegistry`` snapshots flow into the QoR record, and the
:class:`~repro.qor.heartbeat.HeartbeatWriter`, which turns the flow's
trace events into live beats.  No flow-layer code is aware of either.

Lifecycle::

    recorder = RunRecorder(rundir, registry=path)
    recorder.begin(circuit, config, command="place")   # "start" beat
    tracer = Tracer([*recorder.sinks, ...])             # QoR + heartbeat
    result = place_and_route(circuit, config, tracer=tracer)
    recorder.finish(result)                             # QoR -> registry

``begin``, ``finish``, ``interrupted`` and ``failed`` write the run's
lifecycle beats directly; everything in between comes from the tracer.
A run resumed from a checkpoint passes the checkpoint's ``run_id`` so
the registry keeps a single identity for the whole (interrupted,
resumed, completed) run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..telemetry import Sink
from .heartbeat import HeartbeatWriter, _atomic_write
from .manifest import build_manifest, new_run_id
from .registry import RunRegistry


class QorSink(Sink):
    """Aggregates a run's trace stream into QoR building blocks.

    * ``span_end`` events accumulate per-name wall/CPU totals (the
      Table-4 stage rows);
    * ``metrics`` events (``MetricsRegistry.emit`` snapshots, e.g.
      ``stage1.move_metrics``) are kept whole, last write wins;
    * scalar flow checkpoints (``stage1.result``, ``router.interchange``)
      are kept as plain dicts.

    The sink is cheap (a dict update per span close) and never raises
    into the tracer.
    """

    #: Point events captured verbatim (minus bookkeeping fields).
    CAPTURED_EVENTS = ("stage1.result", "stage1.legalized", "router.interchange")

    def __init__(self) -> None:
        self.stage_times: Dict[str, Dict[str, float]] = {}
        self.metrics: Dict[str, Any] = {}
        self.captured: Dict[str, Dict[str, Any]] = {}

    def emit(self, event: Dict[str, Any]) -> None:
        kind = event.get("ev")
        if kind == "span_end":
            name = event.get("name", "?")
            entry = self.stage_times.setdefault(
                name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "failed": 0}
            )
            entry["calls"] += 1
            entry["wall_s"] = round(entry["wall_s"] + float(event.get("wall_s", 0.0)), 6)
            entry["cpu_s"] = round(entry["cpu_s"] + float(event.get("cpu_s", 0.0)), 6)
            if not event.get("ok", True):
                entry["failed"] += 1
        elif kind == "event":
            name = event.get("name", "")
            if name.endswith("metrics"):
                self.metrics[name] = {
                    k: v
                    for k, v in event.items()
                    if k not in ("ev", "name", "t", "span")
                }
            elif name in self.CAPTURED_EVENTS:
                self.captured[name] = {
                    k: v
                    for k, v in event.items()
                    if k not in ("ev", "name", "t", "span")
                }


def qor_from_result(result, sink: Optional[QorSink] = None) -> Dict[str, Any]:
    """Distill a :class:`~repro.flow.TimberWolfResult` (plus the sink's
    aggregates) into the flat QoR record the registry stores."""
    anneal = result.stage1.anneal
    anneal_seconds = sum(s.seconds for s in anneal.steps)
    moves = anneal.total_attempts
    core = result.state.core
    core_target_area = core.width * core.height
    record: Dict[str, Any] = {
        "teil": round(result.teil, 4),
        "stage1_teil": round(result.stage1_teil, 4),
        "chip_area": round(result.chip_area, 4),
        "stage1_chip_area": round(result.stage1_chip_area, 4),
        "core_target_area": round(core_target_area, 4),
        "area_vs_target": (
            round(result.chip_area / core_target_area, 6)
            if core_target_area > 0
            else None
        ),
        "overflow": result.routed_overflow,
        "residual_overlap": round(result.stage1.residual_overlap, 4),
        "wall_seconds": round(result.elapsed_seconds, 4),
        "moves": moves,
        "moves_per_sec": (
            round(moves / anneal_seconds, 1) if anneal_seconds > 0 else None
        ),
        "temperatures": anneal.num_temperatures,
        "truncated": result.truncated,
        "failures": list(result.failures),
        "budget_report": result.budget_report,
        "resumed_from": result.resumed_from,
    }
    if sink is not None:
        record["stage_times"] = sink.stage_times
        record["metrics"] = sink.metrics
        record["checkpoints"] = sink.captured
    return record


class RunRecorder:
    """Registers, monitors, and records one flow run (see module doc)."""

    MANIFEST_NAME = "manifest.json"
    HEARTBEAT_NAME = "heartbeat.json"
    QOR_NAME = "qor.json"

    def __init__(
        self,
        rundir: Union[str, Path],
        registry: Optional[Union[str, Path, RunRegistry]] = None,
        run_id: Optional[str] = None,
        metrics_textfile: Optional[Union[str, Path]] = None,
        heartbeat_interval: float = 0.0,
        trace_id: Optional[str] = None,
    ) -> None:
        self.rundir = Path(rundir)
        self.rundir.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id if run_id is not None else new_run_id()
        #: Distributed trace identity (telemetry.context); rides in the
        #: manifest, every heartbeat, and the registry row so the obs
        #: server can join a run's artifacts fleet-wide by trace.
        self.trace_id = trace_id
        if isinstance(registry, RunRegistry) or registry is None:
            self._registry = registry
            self._owns_registry = False
        else:
            self._registry = RunRegistry(registry)
            self._owns_registry = True
        self.heartbeat = HeartbeatWriter(
            self.rundir / self.HEARTBEAT_NAME,
            run_id=self.run_id,
            min_interval=heartbeat_interval,
            metrics_textfile=metrics_textfile,
        )
        self.sink = QorSink()
        self.manifest: Optional[Dict[str, Any]] = None

    @property
    def registry(self) -> Optional[RunRegistry]:
        return self._registry

    @property
    def sinks(self) -> List[Sink]:
        """The tracer sinks that record this run: the QoR aggregator
        and the heartbeat."""
        return [self.sink, self.heartbeat]

    def begin(
        self,
        circuit,
        config,
        command: str = "place",
        resumed_from: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Write the manifest and register the run (status 'running')."""
        self.manifest = build_manifest(
            self.run_id, circuit, config, command=command, resumed_from=resumed_from
        )
        if self.trace_id is not None:
            self.manifest["trace_id"] = self.trace_id
        _atomic_write(
            self.rundir / self.MANIFEST_NAME,
            json.dumps(self.manifest, indent=2, sort_keys=True, default=str) + "\n",
        )
        if self._registry is not None:
            self._registry.register_run(self.manifest)
        self.heartbeat.set_context(circuit=circuit.name, trace_id=self.trace_id)
        self.heartbeat.beat("start", command=command)
        return self.manifest

    def finish(self, result) -> Dict[str, Any]:
        """Record the QoR (rundir + registry) and close out the run."""
        record = qor_from_result(result, self.sink)
        record["run_id"] = self.run_id
        _atomic_write(
            self.rundir / self.QOR_NAME,
            json.dumps(record, indent=2, sort_keys=True, default=str) + "\n",
        )
        status = "truncated" if result.truncated else "ok"
        if self._registry is not None:
            self._registry.record_qor(self.run_id, record)
            self._registry.finish_run(self.run_id, status)
        self.heartbeat.beat(
            "done",
            final=True,
            status=status,
            teil=record["teil"],
            chip_area=record["chip_area"],
            overflow=record["overflow"],
            wall_seconds=record["wall_seconds"],
        )
        self._maybe_close_registry()
        return record

    def interrupted(self, checkpoint_path: Optional[str] = None) -> None:
        """The run was stopped by a signal after checkpointing."""
        if self._registry is not None:
            self._registry.finish_run(self.run_id, "interrupted")
        self.heartbeat.beat(
            "interrupted", final=True, checkpoint=checkpoint_path
        )
        self._maybe_close_registry()

    def failed(self, error: BaseException) -> None:
        """The run died on an unhandled error."""
        if self._registry is not None:
            self._registry.finish_run(self.run_id, "failed")
        self.heartbeat.beat("failed", final=True, error=type(error).__name__)
        self._maybe_close_registry()

    def _maybe_close_registry(self) -> None:
        if self._owns_registry and self._registry is not None:
            self._registry.close()
            self._registry = None
