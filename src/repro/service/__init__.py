"""The placement service: a supervised, fault-tolerant job queue.

``repro.service`` turns the single-shot flow into a long-running
orchestrator (``python -m repro service``): placement jobs (circuit +
config → job id) enter a persistent queue backed by the same SQLite
file as the run registry, and a supervisor schedules them onto a pool
of subprocess workers with full fault tolerance:

* **timeouts** — a job past its wall budget is SIGTERMed (the worker
  checkpoints and exits gracefully) and SIGKILLed after a grace period;
* **crash / hang detection** — worker exits are reaped every tick, and
  a live worker whose heartbeat goes stale (the ``classify_state``
  machinery of the observability layer) is treated as hung and killed;
* **retry with backoff** — failed attempts requeue with exponential
  backoff plus jitter, up to a per-job attempt budget, after which the
  job parks in the ``dead`` (dead-letter) state;
* **checkpoint-aware recovery** — a retried job resumes from its last
  checkpoint (``resume_place_and_route``), pinned to the job's
  snapshotted circuit, so its final QoR is bit-identical to an
  uninterrupted run;
* **backpressure** — submissions past the queue's high-water mark are
  rejected (or, under the shed policy, displace the lowest-priority
  queued work);
* **fair scheduling** — ready jobs are drained round-robin across
  tenants, so one bulk submitter cannot starve the rest;
* **graceful drain** — SIGTERM (or ``service drain``) stops admission,
  checkpoints in-flight jobs back into the queue, and exits cleanly;
* **crash recovery** — a restarted supervisor adopts the persistent
  queue: finished orphans are recorded as done, live orphans are
  checkpointed and requeued, and vanished workers simply retry.

See ``docs/service.md`` for the architecture and the failure taxonomy.
"""

from .events import EventLog, read_events
from .policy import BackpressurePolicy, QueueFull, RetryPolicy
from .spec import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobSpec,
    new_job_id,
)
from .store import SqliteJobStore
from .supervisor import ServiceConfig, Supervisor
from .view import ServiceView
from .worker import ServicePaths, build_worker_command

__all__ = [
    "BackpressurePolicy",
    "EventLog",
    "JOB_STATES",
    "Job",
    "JobSpec",
    "QueueFull",
    "RetryPolicy",
    "ServiceConfig",
    "ServicePaths",
    "ServiceView",
    "SqliteJobStore",
    "Supervisor",
    "TERMINAL_STATES",
    "build_worker_command",
    "new_job_id",
    "read_events",
]
