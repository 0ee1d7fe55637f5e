"""The client-side facade: submit, status, drain, event history.

One class serves every entry point — the ``python -m repro service``
verbs and the observability server's ``/jobs`` routes — so they cannot
drift apart on semantics.  A view talks only to the store and the
event journal; it never touches the supervisor, which may or may not
be running (submissions queue up either way).
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..telemetry.context import new_trace_id
from .events import EventLog, read_events
from .policy import BackpressurePolicy, QueueFull
from .spec import Job, JobSpec, new_job_id
from .store import SqliteJobStore
from .worker import ServicePaths, job_checkpoint


class ServiceView:
    """Submit jobs to — and inspect — the service under ``root``."""

    def __init__(self, root: Union[str, Path], readonly: bool = False) -> None:
        self.paths = ServicePaths(root)
        if not readonly:
            self.paths.root.mkdir(parents=True, exist_ok=True)
        self.store = SqliteJobStore(self.paths.registry, readonly=readonly)
        self.events = EventLog(self.paths.events)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "ServiceView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        circuit: Union[str, Path],
        *,
        preset: str = "smoke",
        seed: int = 0,
        cooling: str = "table",
        checkpoint_every: int = 5,
        tenant: str = "default",
        priority: int = 0,
        wall_timeout: Optional[float] = None,
        max_attempts: int = 5,
        backpressure: Optional[BackpressurePolicy] = None,
    ) -> Job:
        """Snapshot the circuit and enqueue a job for it.

        The submitted file is copied into the job's directory before the
        queue insert, so the job's meaning is frozen at submit time.
        Raises :class:`QueueFull` when backpressure rejects (the
        snapshot is cleaned up again).

        Submission also mints the job's distributed-trace id: the one
        identity that survives retries, supervisor restarts, and
        checkpoint resumes — ``/trace/<id>`` on the obs server joins
        everything the job ever did under it.
        """
        circuit = Path(circuit)
        text = circuit.read_text(encoding="utf-8")  # validates readability
        job_id = new_job_id()
        trace_id = new_trace_id()
        self.paths.ensure_job_dirs(job_id)
        snapshot = self.paths.circuit(job_id)
        snapshot.write_text(text, encoding="utf-8")
        spec = JobSpec(
            circuit=str(snapshot),
            preset=preset,
            seed=seed,
            cooling=cooling,
            checkpoint_every=checkpoint_every,
        )
        try:
            job, shed = self.store.submit(
                spec,
                tenant=tenant,
                priority=priority,
                wall_timeout=wall_timeout,
                max_attempts=max_attempts,
                job_id=job_id,
                backpressure=backpressure,
                trace_id=trace_id,
            )
        except QueueFull:
            shutil.rmtree(self.paths.job_dir(job_id), ignore_errors=True)
            self.events.emit(
                "queue_full", tenant=tenant, priority=priority,
                circuit=str(circuit),
            )
            raise
        self.events.emit(
            "job_submitted",
            job.job_id,
            tenant=tenant,
            priority=priority,
            circuit=str(circuit),
            trace_id=trace_id,
        )
        if shed is not None:
            self.events.emit(
                "job_shed", shed.job_id, displaced_by=job.job_id
            )
        return job

    # -- inspection ---------------------------------------------------------

    def job(self, job_id: str) -> Job:
        return self.store.get(job_id)

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job row plus what its directory says about it."""
        job = self.store.get(job_id)
        ckpt = job_checkpoint(self.paths, job.job_id)
        doc = job.to_dict()
        doc["has_result"] = self.paths.result(job.job_id).is_file()
        doc["checkpoint"] = str(ckpt) if ckpt is not None else None
        doc["rundir"] = str(self.paths.rundir(job.job_id))
        return doc

    def jobs(
        self, state: Optional[str] = None, tenant: Optional[str] = None,
        limit: int = 1000,
    ) -> List[Job]:
        return self.store.jobs(state=state, tenant=tenant, limit=limit)

    def counts(self) -> Dict[str, int]:
        return self.store.counts()

    def overview(self) -> Dict[str, Any]:
        """The ``/jobs`` route document: counts, lease, drain flag."""
        return {
            "counts": self.counts(),
            "draining": self.store.draining(),
            "lease": self.store.lease(),
            "jobs": [job.to_dict() for job in self.jobs()],
        }

    def history(
        self, job_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        return read_events(self.paths.events, job_id=job_id, limit=limit)

    # -- control ------------------------------------------------------------

    def drain(self) -> None:
        """Ask the (possibly remote) supervisor to drain and exit."""
        self.store.set_draining(True)
        self.events.emit("drain_requested")
