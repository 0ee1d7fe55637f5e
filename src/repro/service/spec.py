"""Job identity: what a placement job *is*, independent of scheduling.

A :class:`JobSpec` is the flow-level description (which circuit, which
preset/seed/cooling) — everything a worker needs to reproduce the run
bit-for-bit.  A :class:`Job` is the queue-level record: the spec plus
tenant, priority, attempt accounting, and lifecycle state.  The split
mirrors the registry's circuit-hash/config-hash comparability contract:
two jobs with equal specs anneal identically, whatever the queue did to
them in between.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

#: Lifecycle states of a job.
#:
#: ``queued``  — waiting (or backing off) for a worker slot;
#: ``running`` — claimed by the supervisor, a worker attempt in flight;
#: ``done``    — completed with a recorded result;
#: ``dead``    — dead-lettered: attempts exhausted or non-retryable;
#: ``shed``    — displaced by backpressure before ever running.
JOB_STATES = ("queued", "running", "done", "dead", "shed")

#: States a job never leaves.
TERMINAL_STATES = ("done", "dead", "shed")


def new_job_id(now: Optional[float] = None) -> str:
    """A unique, sortable job id (UTC timestamp + random suffix)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(now))
    return f"job-{stamp}-{secrets.token_hex(3)}"


@dataclass(frozen=True)
class JobSpec:
    """The reproducible description of one placement run.

    ``circuit`` is the path of the circuit snapshot the service took at
    submit time (the submitted file is copied into the job's directory,
    so later edits to the original cannot change what the job means).
    """

    circuit: str
    preset: str = "smoke"
    seed: int = 0
    cooling: str = "table"
    #: Stage-1 checkpoint cadence for the worker (temperature steps).
    #: Small by default: the denser the checkpoints, the less work a
    #: retry replays.
    checkpoint_every: int = 5

    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit,
            "preset": self.preset,
            "seed": self.seed,
            "cooling": self.cooling,
            "checkpoint_every": self.checkpoint_every,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "JobSpec":
        # Queues written while specs still named a stage-1 core store a
        # ``core`` key.  A service job runs the serial mover, which
        # replays move for move on either core, so the key is dropped.
        data = {k: v for k, v in data.items() if k != "core"}
        known = set(JobSpec.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown job spec fields: {sorted(unknown)}")
        return JobSpec(**data)


@dataclass(frozen=True)
class Job:
    """One queue record (a row of the ``jobs`` table)."""

    job_id: str
    spec: JobSpec
    tenant: str = "default"
    priority: int = 0
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = 5
    next_attempt_at: float = 0.0
    wall_timeout: Optional[float] = None
    created: float = field(default_factory=time.time)
    updated: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    worker_pid: Optional[int] = None
    lease_owner: Optional[str] = None
    run_id: Optional[str] = None
    reason: Optional[str] = None
    #: The distributed-trace id minted at submit time.  Every attempt,
    #: checkpoint, registry row, and queue event of this job carries it,
    #: so a retried job is still *one* trace.
    trace_id: Optional[str] = None

    def with_state(self, state: str, **changes: Any) -> "Job":
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        return replace(self, state=state, **changes)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (CLI ``--json``, the obs ``/jobs`` routes)."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "next_attempt_at": self.next_attempt_at,
            "wall_timeout": self.wall_timeout,
            "created": self.created,
            "updated": self.updated,
            "started": self.started,
            "finished": self.finished,
            "worker_pid": self.worker_pid,
            "lease_owner": self.lease_owner,
            "run_id": self.run_id,
            "reason": self.reason,
            "trace_id": self.trace_id,
        }
