"""RunRecorder: the glue between one flow run and the observability layer.

One recorder per run.  It owns the rundir (``manifest.json``,
``heartbeat.json``, ``qor.json`` and the run log), the registry rows,
and the run's tracer, whose sinks are a :class:`QorSink`, through which
span timings and move-counter events flow into the QoR record,
the :class:`~repro.qor.heartbeat.HeartbeatWriter`, which folds the
flow's trace events into live beats, and the run log: a
:class:`~repro.telemetry.FileSink` on this attempt's trace JSONL.  No
flow-layer code is aware of any of them.

Lifecycle::

    recorder = RunRecorder(rundir, registry=path)
    tracer = recorder.open_tracer()                     # the run log
    recorder.begin(circuit, config, command="place")   # run.start
    result = place_and_route(circuit, config, tracer=tracer)
    recorder.finish(result)                             # run.end, QoR
    tracer.close()

``begin`` emits ``run.start`` and ``finish``, ``interrupted`` and
``failed`` emit ``run.end`` through the run's tracer, so the run log
holds the whole run and the heartbeat folds its lifecycle beats like
any other.  A run resumed from a checkpoint passes the checkpoint's
``run_id`` so the registry keeps a single identity for the whole
(interrupted, resumed, completed) run; each attempt writes its own log
(see :func:`attempt_log`), so a resume never truncates an earlier one.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..telemetry import FileSink, Sink, Tracer
from .heartbeat import HeartbeatWriter, _atomic_write
from .manifest import build_manifest, new_run_id
from .registry import RunRegistry

#: Run logs a rundir may hold: ``trace.jsonl`` (or another ``--trace``
#: name) or ``trace-attempt-NN.jsonl``, one per attempt.
TRACE_GLOB = "trace*.jsonl"

_ATTEMPT_LOG = re.compile(r"trace-attempt-(\d+)\.jsonl")


PathLike = Union[str, Path]


def run_logs(rundir: PathLike) -> List[Path]:
    """Every run log in a rundir, oldest attempt first (by modification
    time, then name): the last one is the newest attempt's."""
    return sorted(
        Path(rundir).glob(TRACE_GLOB), key=lambda p: (p.stat().st_mtime_ns, p.name)
    )


def attempt_log(rundir: PathLike, trace: Optional[PathLike] = None) -> Path:
    """Where this attempt's run log goes: ``trace`` when it lies in the
    rundir, is named like a run log and no earlier attempt wrote it;
    otherwise ``trace-attempt-NN.jsonl``, one past the newest there."""
    rundir = Path(rundir)
    if trace is not None and _is_log_of(rundir, trace) and not Path(trace).exists():
        return Path(trace)
    numbers = [
        int(match.group(1))
        for match in (_ATTEMPT_LOG.fullmatch(p.name) for p in run_logs(rundir))
        if match
    ]
    return rundir / f"trace-attempt-{max(numbers, default=0) + 1:02d}.jsonl"


def _is_log_of(rundir: PathLike, path: PathLike) -> bool:
    """Whether ``path`` names a run log of ``rundir`` (readers find it)."""
    path = Path(path)
    return path.parent.resolve() == Path(rundir).resolve() and path.match(TRACE_GLOB)


class QorSink(Sink):
    """Aggregates a run's trace stream into QoR building blocks.

    * ``span_end`` events accumulate per-name wall/CPU totals (the
      Table-4 stage rows);
    * events whose name ends in ``metrics`` (the move counters of
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
        rundir: PathLike,
        registry: Optional[Union[PathLike, RunRegistry]] = None,
        run_id: Optional[str] = None,
        metrics_textfile: Optional[PathLike] = None,
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
            self.rundir / self.HEARTBEAT_NAME, metrics_textfile=metrics_textfile
        )
        self.sink = QorSink()
        self.manifest: Optional[Dict[str, Any]] = None
        #: The run's tracer (see :meth:`open_tracer`).
        self.tracer: Optional[Tracer] = None

    @property
    def registry(self) -> Optional[RunRegistry]:
        return self._registry

    def open_tracer(self, trace: Optional[PathLike] = None) -> Tracer:
        """Open this attempt's run log and return the run's tracer.

        The tracer feeds the QoR sink, the heartbeat and a
        :class:`FileSink` on the log (see :func:`attempt_log`; ``trace``
        names it when it can).  A ``trace`` that is not a run log of this
        rundir gets its own :class:`FileSink` too.  The caller closes the
        tracer after the run's last event.
        """
        log = FileSink(str(attempt_log(self.rundir, trace)))
        sinks: List[Sink] = [self.sink, self.heartbeat, log]
        if trace is not None and not _is_log_of(self.rundir, trace):
            sinks.append(FileSink(str(trace)))
        self.tracer = Tracer(sinks)
        return self.tracer

    def begin(
        self,
        circuit,
        config,
        command: str = "place",
        resumed_from: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Write the manifest, register the run (status 'running'), and
        emit ``run.start`` (opening the run's tracer if none is open)."""
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
        tracer = self.tracer if self.tracer is not None else self.open_tracer()
        fields: Dict[str, Any] = {"circuit": circuit.name}
        if self.trace_id is not None:
            fields["trace_id"] = self.trace_id
        tracer.event(
            "run.start",
            run_id=self.run_id,
            command=command,
            anchor=tracer.anchor,
            **fields,
        )
        return self.manifest

    def finish(self, result) -> Dict[str, Any]:
        """Record the QoR (rundir + registry) and close out the run."""
        record = qor_from_result(result, self.sink)
        record["run_id"] = self.run_id
        _atomic_write(
            self.rundir / self.QOR_NAME,
            json.dumps(record, indent=2, sort_keys=True, default=str) + "\n",
        )
        if self._registry is not None:
            self._registry.record_qor(self.run_id, record)
        self._end(
            "truncated" if result.truncated else "ok",
            teil=record["teil"],
            chip_area=record["chip_area"],
            overflow=record["overflow"],
            wall_seconds=record["wall_seconds"],
        )
        return record

    def interrupted(self, checkpoint_path: Optional[str] = None) -> None:
        """The run was stopped by a signal after checkpointing."""
        self._end("interrupted", checkpoint=checkpoint_path)

    def failed(self, error: BaseException) -> None:
        """The run died on an unhandled error."""
        self._end("failed", error=type(error).__name__)

    def _end(self, status: str, **fields: Any) -> None:
        """Close out the registry row, then emit the run's final event."""
        if self._registry is not None:
            self._registry.finish_run(self.run_id, status)
            if self._owns_registry:
                self._registry.close()
                self._registry = None
        if self.tracer is not None:
            self.tracer.event("run.end", status=status, **fields)
