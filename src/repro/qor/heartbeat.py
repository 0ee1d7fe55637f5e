"""Atomic heartbeat files: live progress of an in-flight flow run.

A heartbeat is a single small JSON document ("beat"), rewritten in
place at natural progress boundaries.  ``python -m repro status`` and
``watch`` read it; nothing in the flow ever blocks on it.

:class:`HeartbeatWriter` is a tracer :class:`~repro.telemetry.Sink`:
the flow never calls it directly.  It builds each beat from an event
the flow already emits for the trace (see :meth:`HeartbeatWriter.emit`
for the table), so every progress fact has one producer.  Only the
run's lifecycle beats (``start``, ``done``, ``interrupted``,
``failed``) are written directly, by :class:`~repro.qor.RunRecorder`.

Every write goes to a temp file in the target directory followed by
``os.replace``, so a reader can never observe a partially-written
document: it sees either the previous complete beat or the new one.
(This is the same discipline checkpoints use.)

The writer keeps a monotonically increasing ``seq`` and stamps every
beat with a wall-clock ``updated`` time so monitors can report
staleness.  ``min_interval`` throttles the file traffic of very fast
loops; a phase change or a ``final`` beat always writes.

Alongside the snapshot, the writer appends every published beat to a
bounded history ring (``heartbeat.history.jsonl``): an append-only JSONL
file that is atomically compacted back down to the newest
``history_limit`` entries whenever it grows past twice that bound.  The
observability server tails the ring to stream progress (SSE) and to
compute anneal-health analytics without ever racing the writer: appends
are line-buffered, compaction goes through the same temp-file +
``os.replace`` discipline as the snapshot, and readers treat a torn
final line as "not yet written".

Each compaction stamps the rewritten ring with a **generation marker**
(a first line of the form ``{"ring": {...}}``, not a beat): a reader
that re-reads the file around a compaction can tell the pre- and
post-truncation images apart by generation instead of guessing from
file size, and a writer that re-attaches to an existing ring (a retried
service job re-running in the same rundir) continues the generation
sequence rather than restarting it.  :func:`read_history` skips the
markers; :func:`ring_generation` exposes the newest one.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..telemetry import Sink

#: Schema tag written into every heartbeat document.
HEARTBEAT_VERSION = 1

#: Default bound on the heartbeat history ring (entries kept after a
#: compaction; the file may grow to twice this between compactions).
HISTORY_LIMIT = 512

#: Key that distinguishes a ring generation-marker line from a beat.
RING_MARKER_KEY = "ring"

#: Stage spans whose start publishes a ``flow`` beat and sets the
#: sticky ``stage`` field, and the span fields that beat carries.
STAGE_SPANS = ("stage1", "stage2")
STAGE_FIELDS = ("chains", "passes")

#: The ``anneal.temperature`` fields an ``anneal`` beat carries.
ANNEAL_FIELDS = (
    "step", "T", "acceptance", "cost", "c1", "c2", "c3",
    "eta_steps", "eta_seconds", "eta_estimated",
)

#: Router phase one publishes a ``route`` beat about every
#: 1/ROUTE_BEATS of its nets.
ROUTE_BEATS = 50


def history_path(snapshot_path: Union[str, Path]) -> Path:
    """The history-ring path for a heartbeat snapshot path
    (``heartbeat.json`` → ``heartbeat.history.jsonl``)."""
    snapshot_path = Path(snapshot_path)
    return snapshot_path.with_name(snapshot_path.stem + ".history.jsonl")


def _pick(event: Dict[str, Any], keys) -> Dict[str, Any]:
    return {key: event[key] for key in keys if key in event}


class HeartbeatWriter(Sink):
    """Writes atomic heartbeat documents to ``path``.

    As a tracer sink it turns the flow's events into beats (see
    :meth:`emit`); :meth:`beat` writes one directly.  ``context``
    fields (e.g. the current flow stage) are merged into every
    subsequent beat until overwritten; per-beat ``fields`` win over
    context on collision.  When ``metrics_textfile`` is set, each
    written beat is also rendered to Prometheus text format (the
    node-exporter textfile-collector contract) at that path, again
    atomically.

    ``history_limit`` bounds the history ring next to the snapshot
    (``0`` disables it entirely).
    """

    def __init__(
        self,
        path: Union[str, Path],
        run_id: Optional[str] = None,
        min_interval: float = 0.0,
        metrics_textfile: Optional[Union[str, Path]] = None,
        history_limit: int = HISTORY_LIMIT,
    ) -> None:
        if min_interval < 0:
            raise ValueError("min_interval must be non-negative")
        if history_limit < 0:
            raise ValueError("history_limit must be non-negative")
        self.path = Path(path)
        self.run_id = run_id
        self.min_interval = min_interval
        self.metrics_textfile = (
            Path(metrics_textfile) if metrics_textfile is not None else None
        )
        self.history_limit = history_limit
        self.history_path = history_path(self.path) if history_limit else None
        self._history_appends = 0
        self._ring_generation = 0
        if self.history_path is not None and self.history_path.exists():
            # Re-attaching to an existing ring (e.g. a retried service
            # job re-running in the same rundir): continue its
            # generation sequence so tailers see it advance, never reset.
            try:
                self._ring_generation = ring_generation(self.history_path)
            except OSError:
                pass
        self._context: Dict[str, Any] = {}
        self._seq = 0
        self._last_write = 0.0
        self._last_phase: Optional[str] = None
        self._nets_done = 0
        self._nets_total = 0

    def emit(self, event: Dict[str, Any]) -> None:
        """Build a beat from a tracer event:

        ====================================  =====================
        event                                 beat
        ====================================  =====================
        ``stage1`` / ``stage2`` span start    ``flow`` (and sticky
                                              ``stage``)
        ``anneal.temperature``                ``anneal``
        ``router.phase1`` span start          ``route`` (0 nets)
        ``router.net``, every ~2% of nets     ``route``
        ``router.interchange``                ``route`` (final)
        ``parallel.round``                    ``parallel``
        ====================================  =====================

        Events tagged ``chain`` (a multi-chain segment's own trace) never
        beat: the coordinator's ``parallel`` beat reports the chains.
        """
        if "chain" in event:
            return
        kind = event.get("ev")
        name = event.get("name")
        if kind == "span_begin":
            if name in STAGE_SPANS:
                self.set_context(stage=name)
                self.beat("flow", status=name, **_pick(event, STAGE_FIELDS))
            elif name == "router.phase1":
                self._nets_done = 0
                self._nets_total = event["nets"]
                if self._nets_total:
                    self.beat("route", nets_done=0, nets_total=self._nets_total)
            return
        if kind != "event":
            return
        if name == "anneal.temperature":
            self.beat("anneal", **_pick(event, ANNEAL_FIELDS))
        elif name == "router.net":
            self._nets_done += 1
            if self._nets_done % max(1, self._nets_total // ROUTE_BEATS) == 0:
                self.beat(
                    "route",
                    nets_done=self._nets_done,
                    nets_total=self._nets_total,
                )
        elif name == "router.interchange":
            self.beat(
                "route",
                nets_done=self._nets_total,
                nets_total=self._nets_total,
                overflow=event["overflow"],
                total_length=event["total_length"],
            )
        elif name == "parallel.round":
            costs, done, best = event["costs"], event["done"], event["best"]
            self.beat(
                "parallel",
                round=event["round"],
                upto=event["upto"],
                best=best,
                cost=costs.get(best),
                chains={
                    str(cid): {"cost": cost, "done": cid in done}
                    for cid, cost in costs.items()
                },
            )

    def set_context(self, **fields: Any) -> None:
        """Merge fields into every subsequent beat (None deletes)."""
        for key, value in fields.items():
            if value is None:
                self._context.pop(key, None)
            else:
                self._context[key] = value

    def beat(self, phase: str, final: bool = False, **fields: Any) -> None:
        """Publish one heartbeat.  Throttled by ``min_interval`` except
        on a phase change or a ``final`` beat."""
        now = time.monotonic()
        if (
            not final
            and phase == self._last_phase
            and self.min_interval > 0
            and now - self._last_write < self.min_interval
        ):
            return
        self._seq += 1
        doc: Dict[str, Any] = {
            "v": HEARTBEAT_VERSION,
            "run_id": self.run_id,
            "phase": phase,
            "seq": self._seq,
            "updated": time.time(),
            "final": final,
        }
        doc.update(self._context)
        doc.update(fields)
        text = json.dumps(doc, separators=(",", ":"), default=str)
        _atomic_write(self.path, text)
        if self.history_path is not None:
            self._append_history(text)
        if self.metrics_textfile is not None:
            from .prometheus import render_prometheus

            _atomic_write(self.metrics_textfile, render_prometheus(doc))
        self._last_write = now
        self._last_phase = phase

    def _append_history(self, line: str) -> None:
        """Append one beat to the history ring, compacting when the file
        has grown to twice the configured bound.  Ring failures never
        propagate into the instrumented loop: the snapshot is the source
        of truth, the ring is best-effort."""
        try:
            with open(self.history_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            self._history_appends += 1
            if self._history_appends >= 2 * self.history_limit:
                self._compact_history()
        except OSError:
            pass

    def _compact_history(self) -> None:
        """Atomically rewrite the ring down to the newest entries,
        stamped with a fresh generation marker.  A reader that observes
        the file twice around the swap can order the two images by
        generation instead of inferring from size."""
        lines = [
            line
            for line in self.history_path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not _is_ring_marker(line)
        ]
        keep = lines[-self.history_limit:]
        self._ring_generation += 1
        marker = json.dumps(
            {
                RING_MARKER_KEY: {
                    "v": HEARTBEAT_VERSION,
                    "generation": self._ring_generation,
                    "kept": len(keep),
                    "compacted": time.time(),
                }
            },
            separators=(",", ":"),
        )
        _atomic_write(self.history_path, "\n".join([marker, *keep]) + "\n")
        self._history_appends = len(keep)


def _is_ring_marker(line: str) -> bool:
    """Cheap syntactic test for a generation-marker line (avoids a JSON
    parse per line on the writer's compaction path)."""
    return line.startswith('{"%s":' % RING_MARKER_KEY)


def ring_generation(path: Union[str, Path]) -> int:
    """The ring's current compaction generation (0 before the first
    compaction, or for a missing ring)."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return 0
    generation = 0
    for line in raw.split("\n"):
        if not _is_ring_marker(line):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn marker: the previous generation stands
        marker = doc.get(RING_MARKER_KEY)
        if isinstance(marker, dict):
            generation = max(generation, int(marker.get("generation", 0)))
    return generation


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


def read_history(
    path: Union[str, Path],
    since_seq: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Parsed history-ring entries, oldest first.

    ``since_seq`` keeps only beats with ``seq`` strictly greater (the
    resume point of a streaming client); ``limit`` keeps the newest N.
    A torn final line (the writer mid-append) is skipped silently; a
    missing ring reads as empty; compaction generation markers are not
    beats and never appear in the result.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return []
    entries: List[Dict[str, Any]] = []
    lines = raw.split("\n")
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                continue  # torn final line: the writer is mid-append
            raise
        if RING_MARKER_KEY in doc and "seq" not in doc:
            continue  # compaction generation marker
        if since_seq is not None and doc.get("seq", 0) <= since_seq:
            continue
        entries.append(doc)
    if limit is not None:
        entries = entries[-limit:]
    return entries
