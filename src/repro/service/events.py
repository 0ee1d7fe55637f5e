"""The service's append-only event journal (``events.jsonl``).

Every job-lifecycle transition the supervisor or the submit path makes
is recorded as one JSON line (``ts``, ``event``, ``job_id`` and the
event's fields) — the queue-event transcript the chaos gate uploads, and
the feed behind the ``/jobs/events`` SSE stream.

Writes are single ``os.write`` calls on an ``O_APPEND`` descriptor, so
concurrent writers (a submitter racing the supervisor) interleave at
line granularity and a SIGKILL can at worst truncate the final line.
Readers go through :class:`~repro.telemetry.JsonlTailer`, the same
tailer that reads a run's log: it leaves a torn last line for the next
poll and skips garbage lines.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..telemetry import JsonlTailer, follow


class EventLog:
    """Appends job events to ``events.jsonl``, one JSON doc per line."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, event: str, job_id: Optional[str] = None,
             **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the document written."""
        doc: Dict[str, Any] = {"ts": time.time(), "event": event}
        if job_id is not None:
            doc["job_id"] = job_id
        doc.update(fields)
        line = json.dumps(doc, sort_keys=True) + "\n"
        fd = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return doc


def read_events(
    path: Union[str, Path],
    job_id: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """All events in the journal (oldest first), optionally filtered."""
    docs = JsonlTailer(path).poll()
    if job_id is not None:
        docs = [d for d in docs if d.get("job_id") == job_id]
    if limit is not None and limit >= 0:
        docs = docs[-limit:]
    return docs


def stream_job_events(
    path: Union[str, Path],
    stop=None,
    timeout: Optional[float] = None,
    poll_interval: float = 0.25,
    keepalive_every: float = 15.0,
    job_id: Optional[str] = None,
    from_start: bool = False,
    max_events: Optional[int] = None,
) -> Iterator[bytes]:
    """The ``/jobs/events`` SSE body: queue events as they land.

    Each journal line becomes one SSE frame whose ``event:`` field is
    the journal event name (``job_start``, ``job_retry``, ...).  Runs
    until ``stop`` is set or ``timeout`` elapses, interleaving comment
    keepalives through idle stretches — the same follow loop as the
    run-level ``/runs/<id>/events`` stream.
    """
    from ..obs.sse import format_sse, sse_body

    tailer = JsonlTailer(path, from_start=from_start)
    delivered = 0

    def frames(doc):
        nonlocal delivered
        delivered += 1
        yield format_sse(
            doc, event=str(doc.get("event", "event")), event_id=str(delivered)
        )

    docs = follow(
        lambda: [
            d for d in tailer.poll() if job_id is None or d.get("job_id") == job_id
        ],
        stop=stop,
        timeout=timeout,
        interval=poll_interval,
        max_items=max_events,
    )
    return sse_body(docs, frames, keepalive_every)
