"""Structured tracing: spans and point events over pluggable sinks.

The flow's telemetry is a stream of flat JSON-serializable dicts
("events") of three kinds: ``span_begin``, ``span_end`` and ``event``.  A :class:`Tracer` timestamps each event against a shared
monotonic origin and fans it out to its :class:`Sink` list; the sinks
decide what to do with the stream (append to memory, write JSONL, or
drop everything).  The event schema is documented in
``docs/telemetry.md`` and consumed by :mod:`repro.telemetry.report`.

Design constraints, in order:

1. *Zero cost when disabled.*  The default sink is :class:`NullSink`;
   every emitting method checks ``tracer.enabled`` first, so an
   instrumented hot loop pays one attribute read and a branch.
2. *Zero dependencies.*  Standard library only (``json``, ``time``,
   ``contextvars``).
3. *Exception safety.*  A span always emits its ``span_end`` event, with
   ``ok: false`` and the exception type when the body raised.

Instrumented layers obtain their tracer from :func:`current_tracer`
unless one is passed explicitly, so a single ``use_tracer`` block at the
flow entry point lights up every layer beneath it.
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)


class Sink(ABC):
    """Receives a stream of event dicts from a :class:`Tracer`."""

    #: Tracers skip event construction entirely when every sink reports
    #: ``enabled = False``.
    enabled: bool = True

    @abstractmethod
    def emit(self, event: Dict[str, Any]) -> None:
        """Consume one event.  The dict must not be mutated or retained
        past the call unless the sink copies it (MemorySink keeps the
        reference; tracers never reuse event dicts)."""

    def flush(self) -> None:
        """Push buffered events to durable storage; no-op by default.
        Tracers call this after every ``span_end`` so a trace on disk is
        complete up to the last closed span even if the process dies."""

    def close(self) -> None:
        """Flush and release any resources; idempotent."""


class NullSink(Sink):
    """The default sink: drops everything, reports itself disabled."""

    enabled = False

    def emit(self, event: Dict[str, Any]) -> None:  # pragma: no cover - never called
        pass


class MemorySink(Sink):
    """Accumulates events in a list (tests, in-process reporting).

    ``limit`` bounds memory on unexpectedly long runs: once reached, new
    events are counted in ``dropped`` instead of stored.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("limit must be positive")
        self.events: List[Dict[str, Any]] = []
        self.limit = limit
        self.dropped = 0

    def emit(self, event: Dict[str, Any]) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(event)


class FileSink(Sink):
    """Writes one JSON object per line (JSONL) to a path or file object.

    Files the sink opens itself are line-buffered, so at most the final
    line of a crashed run's trace can be truncated (the reader skips
    it; see :class:`JsonlTailer`).  ``flush_every`` additionally
    forces an explicit flush every N events for caller-supplied file
    objects with larger buffers.
    """

    def __init__(self, path_or_file: Union[str, "IO[str]"], *, flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be positive")
        if hasattr(path_or_file, "write"):
            self._file: Optional[IO[str]] = path_or_file  # type: ignore[assignment]
            self._owns_file = False
            self.path = getattr(path_or_file, "name", None)
        else:
            self._file = open(path_or_file, "w", encoding="utf-8", buffering=1)
            self._owns_file = True
            self.path = str(path_or_file)
        self._flush_every = flush_every
        self._since_flush = 0

    def emit(self, event: Dict[str, Any]) -> None:
        if self._file is None:
            raise ValueError("FileSink is closed")
        self._file.write(json.dumps(event, separators=(",", ":"), default=str))
        self._file.write("\n")
        self._since_flush += 1
        if self._since_flush >= self._flush_every:
            self._file.flush()
            self._since_flush = 0

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()
            self._since_flush = 0

    def close(self) -> None:
        if self._file is None:
            return
        self._file.flush()
        if self._owns_file:
            self._file.close()
        self._file = None


class JsonlTailer:
    """Reads a growing JSONL file one poll at a time: the reader side of
    :class:`FileSink`, and of any other append-only JSONL file.

    The tailer keeps a byte offset, so each :meth:`poll` parses only the
    lines completed since the previous one; a torn last line (no newline
    yet) is left for the next poll.  A file that shrinks restarts the
    cursor at 0, and a missing file reads as empty.  ``from_start=False``
    skips what the file already holds.

    A malformed line is skipped, unless the tailer is ``strict`` and a
    well-formed line follows it in the same poll: a writer tears at most
    its last line, so that is corruption and :meth:`poll` raises it.
    """

    def __init__(
        self, path: Union[str, Path], from_start: bool = True, strict: bool = False
    ) -> None:
        self.path = Path(path)
        self.strict = strict
        self.offset = 0
        if not from_start:
            try:
                self.offset = self.path.stat().st_size
            except OSError:
                pass

    def poll(self) -> List[Dict[str, Any]]:
        """The documents completed since the last poll, oldest first."""
        try:
            with open(self.path, "rb") as handle:
                if os.fstat(handle.fileno()).st_size < self.offset:
                    self.offset = 0
                handle.seek(self.offset)
                data = handle.read()
        except OSError:
            return []
        end = data.rfind(b"\n") + 1
        self.offset += end
        docs: List[Dict[str, Any]] = []
        error: Optional[ValueError] = None
        for line in data[:end].split(b"\n"):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:
                error = exc
                continue
            if not isinstance(doc, dict):
                error = ValueError(f"not a JSON object: {line[:80]!r}")
                continue
            if error is not None and self.strict:
                raise error
            docs.append(doc)
        return docs


T = TypeVar("T")


def follow(
    poll: Callable[[], Sequence[T]],
    until: Optional[Callable[[T], bool]] = None,
    stop: Optional[Any] = None,
    timeout: Optional[float] = None,
    interval: float = 0.25,
    max_items: Optional[int] = None,
) -> Iterator[Optional[T]]:
    """Yield what repeated ``poll()`` calls return, until an item
    satisfies ``until``, ``stop`` (a ``threading.Event``) is set,
    ``timeout`` seconds pass, or ``max_items`` items were yielded.

    Each idle poll yields ``None`` and then sleeps ``interval`` seconds,
    so a caller can interleave keepalives or count silent polls.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None
    delivered = 0
    while True:
        if stop is not None and stop.is_set():
            return
        if deadline is not None and time.monotonic() > deadline:
            return
        items = poll()
        for item in items:
            delivered += 1
            yield item
            if until is not None and until(item):
                return
            if max_items is not None and delivered >= max_items:
                return
        if not items:
            yield None
            time.sleep(interval)


class _SpanHandle:
    """Identity of an open span (returned by ``Tracer.span``)."""

    __slots__ = ("span_id", "name", "t0_wall", "t0_cpu")

    def __init__(self, span_id: int, name: str, t0_wall: float, t0_cpu: float) -> None:
        self.span_id = span_id
        self.name = name
        self.t0_wall = t0_wall
        self.t0_cpu = t0_cpu


class Tracer:
    """Fans timestamped events out to a list of sinks.

    All wall-clock fields use ``time.monotonic`` (offsets from the
    tracer's construction instant, so traces are diffable across runs);
    CPU time uses ``time.process_time``.
    """

    def __init__(self, sink: Union[Sink, Sequence[Sink], None] = None) -> None:
        if sink is None:
            sinks: List[Sink] = [NullSink()]
        elif isinstance(sink, Sink):
            sinks = [sink]
        else:
            sinks = list(sink)
        self._sinks = sinks
        self._t0 = time.monotonic()
        #: Wall-clock time (``time.time``) of the monotonic origin: an
        #: event stamped ``t`` happened at about ``anchor + t``.
        self.anchor = time.time()
        self._next_span_id = 1
        self._span_stack: List[_SpanHandle] = []
        self._context: Dict[str, Any] = {}

    # -- sink management ----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when at least one sink consumes events."""
        for s in self._sinks:
            if s.enabled:
                return True
        return False

    @property
    def sinks(self) -> List[Sink]:
        return list(self._sinks)

    def add_sink(self, sink: Sink) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        self._sinks.remove(sink)

    def close(self) -> None:
        for s in self._sinks:
            s.close()

    # -- ambient context ----------------------------------------------------

    def set_context(self, **fields: Any) -> None:
        """Stamp ``fields`` onto every event this tracer emits from now
        on (``None`` removes a key).  The distributed-trace identity
        (``trace_id``) rides here so every span, event, and ingested
        chain event of a process carries the same trace; event-local
        fields with the same name win over the sticky context."""
        for key, value in fields.items():
            if value is None:
                self._context.pop(key, None)
            else:
                self._context[key] = value

    @property
    def context(self) -> Dict[str, Any]:
        return dict(self._context)

    # -- emission -----------------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _emit(self, event: Dict[str, Any]) -> None:
        if self._context:
            for key, value in self._context.items():
                event.setdefault(key, value)
        for s in self._sinks:
            if s.enabled:
                s.emit(event)

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point event, tagged with the enclosing span (if any)."""
        if not self.enabled:
            return
        ev: Dict[str, Any] = {"ev": "event", "name": name, "t": round(self._now(), 6)}
        if self._span_stack:
            ev["span"] = self._span_stack[-1].span_id
        ev.update(fields)
        self._emit(ev)

    def ingest(self, events: Sequence[Dict[str, Any]], **extra: Any) -> None:
        """Merge events recorded by *another* tracer into this stream.

        The parallel layer runs each chain segment under a private
        in-memory tracer (in a worker process or not) and ships the
        recorded events back; this method re-emits them here so one
        merged trace covers the whole run.  Three translations keep the
        merged stream well-formed:

        * span ids are remapped into this tracer's id space (each batch
          gets fresh ids, so chains can never collide); the whole batch
          is scanned for span ids before any event is rewritten, so a
          parent link survives even when the batch arrives out of order
          (a child's ``span_begin`` before its parent's);
        * root spans and span-less events of the batch are attached to
          the currently open span (the coordinator's ``stage1`` span),
          so ``report.span_tree`` nests them under the flow;
        * timestamps are restated against this tracer's origin — the
          producer's monotonic offset is preserved as ``t_origin``.

        ``extra`` fields (e.g. ``chain=3``) are stamped onto every
        ingested event.
        """
        if not self.enabled or not events:
            return
        ambient = self._span_stack[-1].span_id if self._span_stack else None
        # Pre-scan: allocate a fresh id for every span id seen anywhere
        # in the batch, so remapping is order-independent — a parent
        # referenced before (or after) its own span_begin still resolves.
        mapping: Dict[int, int] = {}
        for source in events:
            span = source.get("span")
            if span is not None and span not in mapping:
                mapping[span] = self._next_span_id
                self._next_span_id += 1
        now = round(self._now(), 6)
        for source in events:
            ev = dict(source)
            span = ev.get("span")
            if span is not None:
                ev["span"] = mapping[span]
            parent = ev.get("parent")
            if parent is not None:
                if parent in mapping:
                    ev["parent"] = mapping[parent]
                else:
                    # A parent id the batch never defines (producer
                    # truncation): drop the dangling link.
                    del ev["parent"]
                    parent = None
            if ambient is not None:
                if span is None:
                    ev["span"] = ambient
                elif parent is None and ev.get("ev") == "span_begin":
                    ev["parent"] = ambient
            ev["t_origin"] = ev.get("t")
            ev["t"] = now
            ev.update(extra)
            self._emit(ev)

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Optional[_SpanHandle]]:
        """A timed region: emits ``span_begin`` on entry and ``span_end``
        (with wall/CPU durations and an ``ok`` flag) on exit, even when
        the body raises.  Spans nest; each carries its parent's id."""
        if not self.enabled:
            yield None
            return
        handle = _SpanHandle(
            self._next_span_id, name, time.monotonic(), time.process_time()
        )
        self._next_span_id += 1
        begin: Dict[str, Any] = {
            "ev": "span_begin",
            "name": name,
            "t": round(self._now(), 6),
            "span": handle.span_id,
        }
        if self._span_stack:
            begin["parent"] = self._span_stack[-1].span_id
        begin.update(fields)
        self._emit(begin)
        self._span_stack.append(handle)
        ok = True
        error: Optional[str] = None
        try:
            yield handle
        except BaseException as exc:
            ok = False
            error = type(exc).__name__
            raise
        finally:
            self._span_stack.pop()
            end: Dict[str, Any] = {
                "ev": "span_end",
                "name": name,
                "t": round(self._now(), 6),
                "span": handle.span_id,
                "wall_s": round(time.monotonic() - handle.t0_wall, 6),
                "cpu_s": round(time.process_time() - handle.t0_cpu, 6),
                "ok": ok,
            }
            if error is not None:
                end["error"] = error
            self._emit(end)
            # A closed span is a natural durability point: flush so the
            # on-disk trace is complete up to here even on a later crash.
            for s in self._sinks:
                if s.enabled:
                    s.flush()


#: The process-wide disabled tracer; ``current_tracer`` falls back to it.
NULL_TRACER = Tracer()

_CURRENT: "contextvars.ContextVar[Tracer]" = contextvars.ContextVar(
    "repro_tracer", default=NULL_TRACER
)


def current_tracer() -> Tracer:
    """The tracer installed by the innermost :func:`use_tracer` block
    (the disabled :data:`NULL_TRACER` outside any block)."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the current tracer for the dynamic extent
    of the block (contextvar-based, so async- and thread-safe)."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)
