"""URL routing for the observability server, separated from sockets.

Each route is a pure function from (fleet, path, query) to a
:class:`Response`, so the whole HTTP surface is unit-testable without
binding a port.  The handler in :mod:`~repro.obs.server` only parses
the request line and writes the response out.

Endpoints:

====================  =====================================================
``GET /``             endpoint index (JSON)
``GET /healthz``      server liveness probe
``GET /runs``         fleet listing: registry rows joined with heartbeats
``GET /runs/<id>``    one run's manifest + heartbeat + QoR + registry row
``GET /runs/<id>/history``  the run's beats, folded from its log
                      (``?since_seq&limit``)
``GET /runs/<id>/health``   anneal-health analytics (see ``obs.health``)
``GET /runs/<id>/events``   SSE progress stream (``?since_seq&timeout``)
``GET /runs/<id>/trace``    merged span tree + waterfall of the run's
                      trace files (``?format=html`` renders a Gantt page)
``GET /runs/<id>/profile``  sampling-profiler collapsed stacks
                      (flamegraph input; ``?format=json`` for attribution)
``GET /trace/<trace_id>``   fleet-wide trace lookup: every rundir (and
                      service journal line) stamped with the trace id —
                      a retried job's attempts merge into one document
``GET /metrics``      Prometheus scrape page over every live heartbeat,
                      plus ``repro_jobs``/queue-latency gauges when a
                      service root is configured
``GET /jobs``         placement-service queue overview (when serving a
                      service root: counts, lease, drain flag, jobs)
``GET /jobs/<id>``    one job's row + directory status + recent events
``GET /jobs/events``  SSE stream of queue events (``?job_id&timeout``)
====================  =====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional

from ..qor.prometheus import render_prometheus_fleet
from .fleet import Fleet
from .health import analyze_health

#: Query-cap on SSE streams so an abandoned client cannot pin a thread
#: forever even if its socket never errors.
MAX_STREAM_SECONDS = 3600.0


@dataclass
class Response:
    """What a route produced: a body or a frame stream, never both."""

    status: int = 200
    content_type: str = "application/json"
    body: bytes = b""
    #: When set, the connection streams these frames (SSE) instead of
    #: sending ``body``; the iterator owns its own termination.
    stream: Optional[Iterator[bytes]] = None
    headers: Dict[str, str] = field(default_factory=dict)


def _json_response(payload: Any, status: int = 200) -> Response:
    body = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    return Response(status=status, body=body.encode("utf-8"))


def _error(status: int, message: str) -> Response:
    return _json_response({"error": message, "status": status}, status=status)


def _query_float(query: Dict[str, str], key: str) -> Optional[float]:
    raw = query.get(key)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _query_int(query: Dict[str, str], key: str) -> Optional[int]:
    value = _query_float(query, key)
    return int(value) if value is not None else None


def handle_request(
    fleet: Fleet,
    path: str,
    query: Optional[Dict[str, str]] = None,
    stop_event=None,
    service=None,
) -> Response:
    """Dispatch one GET request against the fleet.

    ``service`` is the placement-service root (or None): when set, the
    ``/jobs`` routes join the job queue into the same server.
    """
    query = query or {}
    parts = [p for p in path.split("/") if p]

    if not parts:
        endpoints = [
            "/runs",
            "/runs/<id>",
            "/runs/<id>/history",
            "/runs/<id>/health",
            "/runs/<id>/events",
            "/runs/<id>/trace",
            "/runs/<id>/profile",
            "/trace/<trace_id>",
            "/metrics",
            "/healthz",
        ]
        if service is not None:
            endpoints += ["/jobs", "/jobs/<id>", "/jobs/events"]
        return _json_response({"service": "repro-obs", "endpoints": endpoints})
    if parts[0] == "jobs":
        return _handle_jobs(service, parts, query, stop_event)
    if parts[0] == "trace" and len(parts) == 2:
        return _handle_fleet_trace(fleet, parts[1], query, service)
    if parts == ["healthz"]:
        return _json_response({"ok": True})
    if parts == ["metrics"]:
        text = render_prometheus_fleet(fleet.heartbeats())
        if service is not None:
            text += _job_metrics(service)
        return Response(
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )
    if parts[0] == "runs":
        if len(parts) == 1:
            return _json_response({"runs": fleet.runs()})
        run_id = parts[1]
        if len(parts) == 2:
            detail = fleet.detail(run_id)
            if detail is None:
                return _error(404, f"unknown run {run_id!r}")
            return _json_response(detail)
        if len(parts) == 3 and parts[2] == "history":
            rundir = fleet.find_rundir(run_id)
            if rundir is None:
                return _error(404, f"unknown run {run_id!r}")
            history = fleet.history(
                run_id,
                since_seq=_query_int(query, "since_seq"),
                limit=_query_int(query, "limit"),
            )
            return _json_response({"run_id": run_id, "history": history})
        if len(parts) == 3 and parts[2] == "health":
            rundir = fleet.find_rundir(run_id)
            if rundir is None:
                return _error(404, f"unknown run {run_id!r}")
            detail = fleet.detail(run_id) or {}
            health = analyze_health(
                fleet.history(run_id),
                beat=detail.get("heartbeat"),
                stale_after=fleet.stale_after,
            )
            health["run_id"] = detail.get("run_id", run_id)
            return _json_response(health)
        if len(parts) == 3 and parts[2] == "trace":
            rundir = fleet.find_rundir(run_id)
            if rundir is None:
                return _error(404, f"unknown run {run_id!r}")
            from .trace import render_trace_html, trace_document

            doc = trace_document(rundir, run_id=run_id)
            if doc is None:
                return _error(404, f"run {run_id!r} has no trace files")
            if query.get("format") == "html":
                return Response(
                    body=render_trace_html(doc).encode("utf-8"),
                    content_type="text/html; charset=utf-8",
                )
            return _json_response(doc)
        if len(parts) == 3 and parts[2] == "profile":
            rundir = fleet.find_rundir(run_id)
            if rundir is None:
                return _error(404, f"unknown run {run_id!r}")
            from .trace import profile_document

            doc = profile_document(rundir)
            if doc is None:
                return _error(404, f"run {run_id!r} has no profile")
            if query.get("format") == "json":
                return _json_response(doc)
            return Response(
                body=doc["collapsed"].encode("utf-8"),
                content_type="text/plain; charset=utf-8",
            )
        if len(parts) == 3 and parts[2] == "events":
            rundir = fleet.find_rundir(run_id)
            if rundir is None:
                return _error(404, f"unknown run {run_id!r}")
            from .sse import stream_events

            timeout = _query_float(query, "timeout")
            timeout = (
                min(timeout, MAX_STREAM_SECONDS)
                if timeout is not None
                else MAX_STREAM_SECONDS
            )
            return Response(
                content_type="text/event-stream",
                headers={"Cache-Control": "no-cache", "X-Accel-Buffering": "no"},
                stream=stream_events(
                    rundir,
                    stop=stop_event,
                    timeout=timeout,
                    since_seq=_query_int(query, "since_seq") or 0,
                    max_beats=_query_int(query, "max_beats"),
                ),
            )
    return _error(404, f"no route for {path!r}")


def _handle_fleet_trace(
    fleet: Fleet, trace_id: str, query: Dict[str, str], service
) -> Response:
    """``/trace/<trace_id>``: join every artifact of one distributed
    trace — all rundirs recorded under it (a retried job has the
    supervisor's rundir reused across attempts, a resumed CLI run may
    have several) plus the service journal lines it stamped."""
    from .trace import render_trace_html, trace_document

    rundirs = fleet.find_by_trace(trace_id)
    runs = []
    for rundir in rundirs:
        doc = trace_document(rundir, run_id=fleet._rundir_run_id(rundir))
        if doc is not None:
            runs.append(doc)
        else:
            runs.append(
                {
                    "run_id": fleet._rundir_run_id(rundir),
                    "rundir": str(rundir),
                    "processes": [],
                    "span_count": 0,
                }
            )
    journal = []
    if service is not None:
        from ..service.events import read_events
        from ..service.worker import ServicePaths

        for ev in read_events(ServicePaths(service).events):
            tid = ev.get("trace_id")
            if tid and str(tid).startswith(trace_id):
                journal.append(ev)
    if not runs and not journal:
        return _error(404, f"no artifacts for trace {trace_id!r}")
    trace_ids = sorted(
        {t for doc in runs for t in doc.get("trace_ids", ())}
        | {str(ev["trace_id"]) for ev in journal if ev.get("trace_id")}
    )
    doc = {
        "trace_id": trace_ids[0] if len(trace_ids) == 1 else None,
        "trace_ids": trace_ids,
        "runs": runs,
        "journal": journal,
        "span_count": sum(r.get("span_count", 0) for r in runs),
    }
    if query.get("format") == "html":
        return Response(
            body=render_trace_html(doc).encode("utf-8"),
            content_type="text/html; charset=utf-8",
        )
    return _json_response(doc)


#: Queue-latency quantiles exported on ``/metrics``.
_QUEUE_QUANTILES = (0.5, 0.95)


def _job_metrics(service) -> str:
    """The placement-service section of the ``/metrics`` scrape page:
    per-state job gauges and queue-latency quantiles (seconds from
    submit to first worker start, over finished-or-running jobs)."""
    import sqlite3

    from ..service.spec import JOB_STATES
    from ..service.view import ServiceView

    try:
        with ServiceView(service, readonly=True) as view:
            counts = view.counts()
            jobs = view.jobs(limit=1000)
    except (sqlite3.Error, OSError):
        # A store mid-creation degrades the scrape to heartbeats only.
        return ""
    lines = [
        "# HELP repro_jobs Placement-service jobs by lifecycle state.",
        "# TYPE repro_jobs gauge",
    ]
    for state in JOB_STATES:
        lines.append(f'repro_jobs{{state="{state}"}} {counts.get(state, 0)}')
    latencies = sorted(
        job.started - job.created
        for job in jobs
        if job.started is not None and job.started >= job.created
    )
    lines += [
        "# HELP repro_job_queue_latency_seconds Submit-to-start latency"
        " of jobs that have started.",
        "# TYPE repro_job_queue_latency_seconds gauge",
    ]
    for quantile in _QUEUE_QUANTILES:
        if latencies:
            index = min(
                len(latencies) - 1, int(quantile * (len(latencies) - 1) + 0.5)
            )
            value = f"{latencies[index]:.6f}"
        else:
            value = "NaN"
        lines.append(
            f'repro_job_queue_latency_seconds{{quantile="{quantile:g}"}} {value}'
        )
    lines.append(f"repro_job_queue_latency_count {len(latencies)}")
    return "\n".join(lines) + "\n"


def _handle_jobs(
    service, parts, query: Dict[str, str], stop_event
) -> Response:
    """The ``/jobs`` routes, backed by the placement-service store."""
    if service is None:
        return _error(404, "no service root configured (serve --service)")
    import sqlite3

    from ..service.events import stream_job_events
    from ..service.store import StoreError
    from ..service.view import ServiceView
    from ..service.worker import ServicePaths

    if parts == ["jobs", "events"]:
        timeout = _query_float(query, "timeout")
        timeout = (
            min(timeout, MAX_STREAM_SECONDS)
            if timeout is not None
            else MAX_STREAM_SECONDS
        )
        return Response(
            content_type="text/event-stream",
            headers={"Cache-Control": "no-cache", "X-Accel-Buffering": "no"},
            stream=stream_job_events(
                ServicePaths(service).events,
                stop=stop_event,
                timeout=timeout,
                job_id=query.get("job_id"),
                from_start=bool(_query_int(query, "from_start")),
                max_events=_query_int(query, "max_events"),
            ),
        )
    try:
        with ServiceView(service, readonly=True) as view:
            if len(parts) == 1:
                return _json_response(view.overview())
            if len(parts) == 2:
                try:
                    doc = view.status(parts[1])
                except StoreError as exc:
                    return _error(404, str(exc))
                doc["events"] = view.history(
                    job_id=doc["job_id"],
                    limit=_query_int(query, "limit") or 50,
                )
                return _json_response(doc)
    except sqlite3.OperationalError as exc:
        return _error(503, f"service store unavailable: {exc}")
    return _error(404, f"no route for /{'/'.join(parts)}")
