"""Heartbeats: live progress of an in-flight flow run, folded from its
trace.

A heartbeat is a single small JSON document ("beat").  Every beat is
built from an event the flow already emits for the trace, by one fold
(:class:`BeatFold`; see its table), so every progress fact has one
producer and one reader-side reconstruction:

* :class:`HeartbeatWriter` is a tracer :class:`~repro.telemetry.Sink`
  that folds the live event stream and rewrites ``heartbeat.json`` in
  place on every beat — the atomic snapshot behind ``status``, the
  fleet states, ``/metrics``, and the service's liveness check;
* readers that want the whole beat stream (SSE, ``/history``,
  ``/health``, ``watch``) fold the run's log — the trace JSONL in the
  rundir — with the same :class:`BeatFold`, so a beat read back from
  the log equals the snapshot beat exactly: ``seq`` is the beat's index
  in the fold, and ``updated`` is the ``run.start`` event's wall-clock
  ``anchor`` plus the event's ``t``.

Every snapshot write goes to a temp file in the target directory
followed by ``os.replace``, so a reader can never observe a
partially-written document: it sees either the previous complete beat
or the new one.  (This is the same discipline checkpoints use.)
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..telemetry import Sink

#: Schema tag written into every heartbeat document.
HEARTBEAT_VERSION = 1

#: Stage spans whose start publishes a ``flow`` beat and sets the
#: sticky ``stage`` field, and the span fields that beat carries.
STAGE_SPANS = ("stage1", "stage2")
STAGE_FIELDS = ("chains", "passes")

#: The ``anneal.temperature`` fields an ``anneal`` beat carries.
ANNEAL_FIELDS = (
    "step", "T", "acceptance", "cost", "c1", "c2", "c3",
    "eta_steps", "eta_seconds", "eta_estimated",
)

#: The ``run.end`` fields the run's final beat carries.
END_FIELDS = (
    "status", "teil", "chip_area", "overflow", "wall_seconds",
    "checkpoint", "error",
)

#: ``run.end`` statuses that name their own final phase; any other
#: status (``ok``, ``truncated``) ends the run in phase ``done``.
END_PHASES = ("interrupted", "failed")

#: Router phase one publishes a ``route`` beat about every
#: 1/ROUTE_BEATS of its nets.
ROUTE_BEATS = 50


def _pick(event: Dict[str, Any], keys) -> Dict[str, Any]:
    return {key: event[key] for key in keys if key in event}


class BeatFold:
    """Turns a run's trace events, in order, into its beats.

    Call the fold on each event; it returns the beat that event
    publishes, or None:

    ====================================  =====================
    event                                 beat
    ====================================  =====================
    ``run.start``                         ``start`` (sets the run
                                          id, ``anchor`` and the
                                          sticky ``circuit`` /
                                          ``trace_id``)
    ``stage1`` / ``stage2`` span start    ``flow`` (and sticky
                                          ``stage``)
    ``anneal.temperature``                ``anneal``
    ``router.phase1`` span start          ``route`` (0 nets)
    ``router.net``, every ~2% of nets     ``route``
    ``router.interchange``                ``route`` (final)
    ``parallel.round``                    ``parallel``
    ``run.end``                           ``done``, ``interrupted``
                                          or ``failed`` (final)
    ====================================  =====================

    Events tagged ``chain`` (a multi-chain segment's own trace) never
    beat: the coordinator's ``parallel`` beat reports the chains.  The
    fold reads an event exactly as it reads its JSON round trip, so the
    live stream and the logged one fold to the same beats.
    """

    def __init__(self) -> None:
        self.seq = 0
        self.run_id: Optional[str] = None
        self.anchor: Optional[float] = None
        self.context: Dict[str, Any] = {}
        self._nets_done = 0
        self._nets_total = 0

    def __call__(self, event: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        if "chain" in event:
            return None
        kind = event.get("ev")
        name = event.get("name")
        if kind == "span_begin":
            if name in STAGE_SPANS:
                self.context["stage"] = name
                return self._beat(
                    event, "flow", status=name, **_pick(event, STAGE_FIELDS)
                )
            if name == "router.phase1":
                self._nets_done = 0
                self._nets_total = event["nets"]
                if self._nets_total:
                    return self._beat(
                        event, "route", nets_done=0, nets_total=self._nets_total
                    )
            return None
        if kind != "event":
            return None
        if name == "anneal.temperature":
            return self._beat(event, "anneal", **_pick(event, ANNEAL_FIELDS))
        if name == "router.net":
            self._nets_done += 1
            if self._nets_done % max(1, self._nets_total // ROUTE_BEATS):
                return None
            return self._beat(
                event,
                "route",
                nets_done=self._nets_done,
                nets_total=self._nets_total,
            )
        if name == "router.interchange":
            return self._beat(
                event,
                "route",
                nets_done=self._nets_total,
                nets_total=self._nets_total,
                overflow=event["overflow"],
                total_length=event["total_length"],
            )
        if name == "parallel.round":
            # JSON turns the int chain ids keying ``costs`` into strings:
            # key the beat by string so a logged round folds the same.
            costs = {str(cid): cost for cid, cost in event["costs"].items()}
            done = {str(cid) for cid in event["done"]}
            return self._beat(
                event,
                "parallel",
                round=event["round"],
                upto=event["upto"],
                best=event["best"],
                cost=costs.get(str(event["best"])),
                chains={
                    cid: {"cost": cost, "done": cid in done}
                    for cid, cost in costs.items()
                },
            )
        if name == "run.start":
            self.run_id = event.get("run_id")
            self.anchor = event.get("anchor")
            self.context.update(_pick(event, ("circuit", "trace_id")))
            return self._beat(event, "start", command=event.get("command"))
        if name == "run.end":
            status = event.get("status")
            phase = status if status in END_PHASES else "done"
            return self._beat(event, phase, final=True, **_pick(event, END_FIELDS))
        return None

    def _beat(
        self, event: Dict[str, Any], phase: str, final: bool = False, **fields: Any
    ) -> Dict[str, Any]:
        t = float(event.get("t", 0.0))
        if self.anchor is None:
            # A stream without ``run.start``: anchor on its first beat,
            # so staleness still reads true.
            self.anchor = time.time() - t
        self.seq += 1
        doc: Dict[str, Any] = {
            "v": HEARTBEAT_VERSION,
            "run_id": self.run_id,
            "phase": phase,
            "seq": self.seq,
            "updated": round(self.anchor + t, 6),
            "final": final,
        }
        doc.update(self.context)
        doc.update(fields)
        return doc


class HeartbeatWriter(Sink):
    """Folds the live event stream and writes each beat to ``path``.

    When ``metrics_textfile`` is set, each written beat is also rendered
    to Prometheus text format (the node-exporter textfile-collector
    contract) at that path, again atomically.
    """

    def __init__(
        self,
        path: Union[str, Path],
        metrics_textfile: Optional[Union[str, Path]] = None,
    ) -> None:
        self.path = Path(path)
        self.metrics_textfile = (
            Path(metrics_textfile) if metrics_textfile is not None else None
        )
        self.fold = BeatFold()

    def emit(self, event: Dict[str, Any]) -> None:
        beat = self.fold(event)
        if beat is None:
            return
        _atomic_write(
            self.path, json.dumps(beat, separators=(",", ":"), default=str)
        )
        if self.metrics_textfile is not None:
            from .prometheus import render_prometheus_fleet

            _atomic_write(self.metrics_textfile, render_prometheus_fleet([beat]))


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and
    ``os.replace``, so concurrent readers never see a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_heartbeat(
    path: Union[str, Path], retries: int = 2, retry_delay: float = 0.01
) -> Optional[Dict[str, Any]]:
    """The latest heartbeat document, or None when no beat exists yet.

    Because writes are atomic, a successfully opened file always parses
    on POSIX; but ``os.replace`` is not atomic everywhere (and a reader
    can race the very first write), so a vanished, empty, or unparsable
    file is retried ``retries`` times before reading as "no heartbeat
    yet" rather than raising.  Monitors can therefore poll a rundir
    that is still warming up — or mid-replace — without special-casing.
    """
    path = Path(path)
    for attempt in range(retries + 1):
        try:
            text = path.read_text(encoding="utf-8")
            if text.strip():
                return json.loads(text)
        except (OSError, json.JSONDecodeError):
            pass
        if attempt < retries:
            time.sleep(retry_delay)
    return None
