"""Cross-run observability: run registry, QoR records, live monitoring.

This package turns individual flow runs into a queryable population:

* :mod:`~repro.qor.manifest` — run identity (run id, circuit/config
  content hashes, host, package version);
* :mod:`~repro.qor.registry` — the append-only SQLite run registry
  (``runs`` / ``qor`` / ``bench`` tables);
* :mod:`~repro.qor.recorder` — :class:`RunRecorder`, the per-run glue
  (manifest + run log + heartbeat + QoR sink + registry rows);
* :mod:`~repro.qor.heartbeat` — the fold that turns the flow's trace
  events into beats, and the atomic snapshot its tracer sink writes;
* :mod:`~repro.qor.monitor` — ``status`` / ``watch`` rendering, and the
  :class:`BeatReader` that folds a rundir's run log;
* :mod:`~repro.qor.gate` — QoR comparison and regression gating;
* :mod:`~repro.qor.prometheus` — textfile-collector exposition.
"""

from .gate import (
    BENCH_DEFAULT_PCT,
    COMPARE_METRICS,
    GateReport,
    GateRule,
    GateThresholds,
    MetricDelta,
    bench_throughput_metrics,
    compare_records,
    gate_bench_rows,
    gate_records,
)
from .heartbeat import (
    HEARTBEAT_VERSION,
    BeatFold,
    HeartbeatWriter,
    read_heartbeat,
)
from .manifest import (
    build_manifest,
    circuit_fingerprint_of,
    config_fingerprint,
    host_metadata,
    new_run_id,
    package_version,
)
from .monitor import BeatReader, load_rundir, progress_line, render_status, watch
from .prometheus import parse_prometheus, render_prometheus_fleet
from .recorder import QorSink, RunRecorder, attempt_log, qor_from_result, run_logs
from .registry import QOR_METRICS, RegistryError, RunRegistry, SCHEMA_VERSION

__all__ = [
    "BENCH_DEFAULT_PCT",
    "COMPARE_METRICS",
    "bench_throughput_metrics",
    "gate_bench_rows",
    "GateReport",
    "GateRule",
    "GateThresholds",
    "HEARTBEAT_VERSION",
    "BeatFold",
    "BeatReader",
    "HeartbeatWriter",
    "MetricDelta",
    "QOR_METRICS",
    "QorSink",
    "RegistryError",
    "RunRecorder",
    "RunRegistry",
    "SCHEMA_VERSION",
    "build_manifest",
    "circuit_fingerprint_of",
    "compare_records",
    "config_fingerprint",
    "attempt_log",
    "gate_records",
    "host_metadata",
    "load_rundir",
    "new_run_id",
    "package_version",
    "parse_prometheus",
    "progress_line",
    "qor_from_result",
    "read_heartbeat",
    "render_prometheus_fleet",
    "render_status",
    "run_logs",
    "watch",
]
