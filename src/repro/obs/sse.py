"""Server-Sent Events: the wire format and the run's event stream.

SSE (``text/event-stream``) is the simplest push channel a browser —
or the job API — can consume without polling: one long-lived HTTP
response carrying ``event:``/``data:`` frames.  A run's stream folds its
log (:class:`~repro.qor.monitor.BeatReader`) into ordered frames:

* ``beat`` — every heartbeat the run publishes, in ``seq`` order;
* ``stage`` — a flow stage/phase transition (start → anneal → route →
  done), emitted alongside the beat that revealed it;
* ``final`` — the run's last beat; the stream closes after it.

The stream never touches the run's files other than to read them.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar, Union

from ..qor.monitor import BeatReader, is_final
from ..telemetry import follow

T = TypeVar("T")


def format_sse(
    data: Any, event: Optional[str] = None, event_id: Optional[str] = None
) -> bytes:
    """One SSE frame: optional ``event``/``id`` lines, then the JSON
    payload as ``data`` lines, then the blank separator line."""
    lines = []
    if event is not None:
        lines.append(f"event: {event}")
    if event_id is not None:
        lines.append(f"id: {event_id}")
    payload = data if isinstance(data, str) else json.dumps(
        data, separators=(",", ":"), default=str
    )
    for chunk in payload.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def keepalive() -> bytes:
    """An SSE comment frame: keeps proxies from timing the stream out."""
    return b": keepalive\n\n"


def sse_body(
    items: Iterable[Optional[T]],
    frames: Callable[[T], Iterable[bytes]],
    keepalive_every: float = 15.0,
) -> Iterator[bytes]:
    """An SSE body over a :func:`~repro.telemetry.follow` stream: each
    item's frames, and a keepalive once ``keepalive_every`` seconds
    pass without one."""
    last_emit = time.monotonic()
    for item in items:
        if item is None:
            if time.monotonic() - last_emit >= keepalive_every:
                last_emit = time.monotonic()
                yield keepalive()
            continue
        yield from frames(item)
        last_emit = time.monotonic()


def stream_events(
    rundir: Union[str, Path],
    stop: Optional[threading.Event] = None,
    timeout: Optional[float] = None,
    poll_interval: float = 0.25,
    since_seq: int = 0,
    keepalive_every: float = 15.0,
    max_beats: Optional[int] = None,
) -> Iterator[bytes]:
    """The ``/runs/<id>/events`` body: SSE frames for one run.

    Emits a ``stage`` event whenever the beat's phase or stage changed,
    a ``beat`` event for every heartbeat after ``since_seq``, and a
    ``final`` event (then ends) when the run publishes its last beat.
    """
    reader = BeatReader(rundir)
    last_marker: Optional[tuple] = None

    def frames(beat):
        nonlocal last_marker
        marker = (beat.get("phase"), beat.get("stage"))
        seq = str(beat.get("seq", ""))
        if marker != last_marker:
            last_marker = marker
            yield format_sse(
                {
                    "run_id": beat.get("run_id"),
                    "phase": beat.get("phase"),
                    "stage": beat.get("stage"),
                    "seq": beat.get("seq"),
                },
                event="stage",
                event_id=seq,
            )
        yield format_sse(
            beat, event="final" if is_final(beat) else "beat", event_id=seq
        )

    beats = follow(
        lambda: [b for b in reader.poll() if b["seq"] > since_seq],
        until=is_final,
        stop=stop,
        timeout=timeout,
        interval=poll_interval,
        max_items=max_beats,
    )
    return sse_body(beats, frames, keepalive_every)
