"""Live observability: the fleet-wide run monitor server.

``python -m repro serve`` mounts this package over a runs root and an
optional run registry:

* :mod:`~repro.obs.fleet` — the read-only join of rundirs + registry
  (state: running / stale / done / failed / interrupted / pending);
* :mod:`~repro.obs.routes` / :mod:`~repro.obs.server` — the HTTP
  surface (``/runs``, ``/runs/<id>``, ``/runs/<id>/health``,
  ``/runs/<id>/events``, ``/metrics``);
* :mod:`~repro.obs.sse` — Server-Sent-Events streaming of the beats
  folded from a run's log;
* :mod:`~repro.obs.health` — anneal-health analytics (Fig.-3
  acceptance trajectory, cost plateau, ETA, divergence).

The flow never imports this package: a run publishes its progress
through its tracer, whose sinks write the files served here — the run
log every beat is folded from, and the heartbeat snapshot
(:class:`~repro.qor.HeartbeatWriter`).

See ``docs/observability.md``.
"""

from .fleet import Fleet, beat_age, classify_state
from .health import analyze_health, fig3_ideal_acceptance
from .routes import Response, handle_request
from .server import ObsServer, serve
from .sse import format_sse, stream_events

__all__ = [
    "Fleet",
    "ObsServer",
    "Response",
    "analyze_health",
    "beat_age",
    "classify_state",
    "fig3_ideal_acceptance",
    "format_sse",
    "handle_request",
    "serve",
    "stream_events",
]
