"""The supervisor: schedules queued jobs onto subprocess workers.

One single-threaded poll loop owns everything: it claims ready jobs
(tenant-fair), launches workers, reaps exits, enforces wall-clock
timeouts and stale-heartbeat kills, requeues failures with backoff,
dead-letters exhausted or unretryable jobs, and drains gracefully on
SIGTERM.  Single-threadedness is the simplicity budget: every state
transition happens between two well-defined points of the loop, so
there is no locking besides the store's own transactions.

Exactly one supervisor runs per service root, enforced by a lease row
in the store; the lease goes stale (and is adoptable) when its holder
stops beating — the SIGKILLed-supervisor case the chaos harness
rehearses.  Recovery on startup is the mirror image of the loop:
``running`` rows left behind by a dead supervisor are finished (result
present), or their orphan workers are terminated and the jobs requeued
without spending an attempt.

Exit-code contract with workers (the existing CLI):

====  ==========================================================
0     flow completed; ``result.json`` written           → done
3     interrupted, checkpoint written (our SIGTERM, a   → requeue
      timeout, or an external signal)
6     checkpoint/circuit mismatch — retry cannot help   → dead
else  crash (fault, OOM, SIGKILL, ...)                  → retry
====  ==========================================================
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..qor.heartbeat import read_heartbeat
from ..qor.monitor import STALE_AFTER, classify_state
from ..telemetry.context import TraceContext, new_span_id
from .events import EventLog
from .policy import BackpressurePolicy, RetryPolicy
from .spec import Job
from .store import SqliteJobStore, _pid_alive
from .worker import ServicePaths, build_worker_command


class ServiceBusy(RuntimeError):
    """Another live supervisor already holds this root's lease."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one supervisor instance."""

    root: Path
    #: Concurrent worker slots.
    workers: int = 2
    #: Seconds between scheduler ticks.
    poll_interval: float = 0.2
    #: Seconds between SIGTERM (checkpoint + exit) and SIGKILL.
    grace: float = 10.0
    #: Heartbeat age past which a live worker counts as hung.
    stale_after: float = STALE_AFTER
    #: Default per-job wall-clock budget (None = unlimited) for jobs
    #: submitted without one.
    wall_timeout: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    backpressure: BackpressurePolicy = field(default_factory=BackpressurePolicy)
    #: Supervisor lease staleness (crashed-supervisor takeover).
    lease_stale_after: float = 15.0
    #: Exit once the queue is empty and no worker is running — batch
    #: mode for tests and the chaos harness.
    exit_when_idle: bool = False
    #: Interpreter for worker subprocesses (default: this one).
    python: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))
        if self.workers < 1:
            raise ValueError("need at least one worker slot")


@dataclass
class WorkerHandle:
    """One in-flight worker subprocess."""

    job: Job
    process: subprocess.Popen
    started: float
    deadline: Optional[float]
    log_file: object
    term_at: Optional[float] = None
    term_reason: Optional[str] = None


class Supervisor:
    """The poll loop.  ``run()`` blocks; ``tick()`` is one iteration
    (exposed so tests can drive the scheduler deterministically)."""

    def __init__(
        self,
        config: ServiceConfig,
        store: Optional[SqliteJobStore] = None,
        events: Optional[EventLog] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config
        self.paths = ServicePaths(config.root)
        self.paths.root.mkdir(parents=True, exist_ok=True)
        self._own_store = store is None
        self.store = store if store is not None else SqliteJobStore(self.paths.registry)
        self.events = events if events is not None else EventLog(self.paths.events)
        self.rng = rng if rng is not None else random.Random()
        self.owner = f"sup-{os.getpid()}-{os.urandom(3).hex()}"
        self.handles: Dict[str, WorkerHandle] = {}
        self._drain = False
        self._lease_beat = 0.0

    # -- lifecycle ----------------------------------------------------------

    def request_drain(self, *_args) -> None:
        """Stop admission and wind down (the SIGTERM handler)."""
        self._drain = True

    def _install_signals(self) -> None:
        try:
            signal.signal(signal.SIGTERM, self.request_drain)
            signal.signal(signal.SIGINT, self.request_drain)
        except ValueError:
            # Not the main thread (threaded test harness): the drain
            # flag can still be set directly.
            pass

    def run(self) -> int:
        """Acquire the lease, recover, then schedule until drained (or
        idle, in ``exit_when_idle`` mode).  Returns an exit status."""
        cfg = self.config
        if not self.store.acquire_lease(
            self.owner,
            info={"pid": os.getpid()},
            stale_after=cfg.lease_stale_after,
        ):
            raise ServiceBusy(
                f"another supervisor holds the lease for {self.paths.root} "
                f"({self.store.lease()})"
            )
        self._lease_beat = time.time()
        self._install_signals()
        self.events.emit(
            "supervisor_start", pid=os.getpid(), owner=self.owner,
            workers=cfg.workers,
        )
        try:
            self.recover()
            while True:
                self.tick()
                if self._drain and not self.handles:
                    break
                if (
                    cfg.exit_when_idle
                    and not self.handles
                    and not self._drain
                ):
                    counts = self.store.counts()
                    if counts["queued"] == 0 and counts["running"] == 0:
                        break
                time.sleep(cfg.poll_interval)
        finally:
            self._close_logs()
            self.store.release_lease(self.owner)
            self.events.emit(
                "supervisor_exit", pid=os.getpid(), owner=self.owner,
                drained=self._drain,
            )
        return 0

    def _close_logs(self) -> None:
        for handle in self.handles.values():
            try:
                handle.log_file.close()
            except OSError:
                pass

    # -- one scheduler iteration -------------------------------------------

    def tick(self, now: Optional[float] = None) -> None:
        now = now if now is not None else time.time()
        self._reap(now)
        self._enforce(now)
        self._refresh_lease(now)
        if self._drain or self.store.draining():
            if not self._drain:
                self._drain = True
            self._begin_drain(now)
        else:
            self._launch(now)

    def _refresh_lease(self, now: float) -> None:
        if now - self._lease_beat >= self.config.lease_stale_after / 3.0:
            self.store.refresh_lease(self.owner)
            self._lease_beat = now

    # -- launching ----------------------------------------------------------

    def _launch(self, now: float) -> None:
        while len(self.handles) < self.config.workers:
            job = self.store.claim_next(self.owner, now=now)
            if job is None:
                return
            if not self.paths.circuit(job.job_id).is_file():
                self.store.mark_dead(
                    job.job_id, "circuit snapshot missing", now=now
                )
                self.events.emit(
                    "job_dead", job.job_id, reason="circuit snapshot missing",
                    trace_id=job.trace_id,
                )
                continue
            self.paths.ensure_job_dirs(job.job_id)
            command = build_worker_command(
                self.paths, job, python=self.config.python
            )
            log_path = self.paths.attempt_log(job.job_id, job.attempts)
            log_file = open(log_path, "wb")
            # Hand the job's trace down to the worker: the CLI reads the
            # traceparent from the environment, so every attempt of this
            # job — fresh place or checkpoint resume — stays one trace.
            env = None
            if job.trace_id:
                try:
                    env = TraceContext(job.trace_id, new_span_id()).env()
                except ValueError:
                    env = None  # malformed stored id: worker mints fresh
            # New session: a dying supervisor must not take its workers
            # down with it — orphans are adopted by recovery instead.
            process = subprocess.Popen(
                command,
                stdout=log_file,
                stderr=subprocess.STDOUT,
                start_new_session=True,
                env=env,
            )
            self.store.set_worker(job.job_id, process.pid)
            timeout = (
                job.wall_timeout
                if job.wall_timeout is not None
                else self.config.wall_timeout
            )
            self.handles[job.job_id] = WorkerHandle(
                job=job,
                process=process,
                started=now,
                deadline=(now + timeout) if timeout else None,
                log_file=log_file,
            )
            self.events.emit(
                "job_start",
                job.job_id,
                attempt=job.attempts,
                pid=process.pid,
                resumed=command[3] == "resume",
                trace_id=job.trace_id,
            )

    # -- reaping ------------------------------------------------------------

    def _reap(self, now: float) -> None:
        for job_id in list(self.handles):
            handle = self.handles[job_id]
            returncode = handle.process.poll()
            if returncode is None:
                continue
            del self.handles[job_id]
            try:
                handle.log_file.close()
            except OSError:
                pass
            self._settle(job_id, returncode, handle, now)

    def _settle(
        self, job_id: str, returncode: int, handle: WorkerHandle, now: float
    ) -> None:
        """Route one finished attempt to done / dead / retry."""
        if returncode == 0 and self._result(job_id) is not None:
            self.store.mark_done(job_id, run_id=self._run_id(job_id), now=now)
            self.events.emit(
                "job_done", job_id, attempt=handle.job.attempts,
                seconds=round(now - handle.started, 3),
                trace_id=handle.job.trace_id,
            )
            return
        if returncode == 6:
            reason = "checkpoint mismatch (exit 6)"
            self.store.mark_dead(job_id, reason, now=now)
            self.events.emit(
                "job_dead", job_id, reason=reason,
                trace_id=handle.job.trace_id,
            )
            return
        if self._drain and returncode == 3:
            # The drain SIGTERM, honored: checkpointed and exited.  The
            # attempt is refunded — the service interrupted the job.
            self.store.requeue(
                job_id, reason="drained", count_attempt=False, now=now
            )
            self.events.emit(
                "job_drained", job_id, attempt=handle.job.attempts,
                trace_id=handle.job.trace_id,
            )
            return
        if returncode == 3:
            reason = handle.term_reason or "interrupted"
        elif returncode < 0:
            reason = f"killed by signal {-returncode}"
        elif returncode == 0:
            reason = "exit 0 without a result"
        else:
            reason = f"exit {returncode}"
        self._retry_or_dead(job_id, reason, now)

    def _retry_or_dead(self, job_id: str, reason: str, now: float) -> None:
        job = self.store.get(job_id)
        if job.attempts >= job.max_attempts:
            full = f"{reason}; attempts exhausted ({job.attempts}/{job.max_attempts})"
            self.store.mark_dead(job_id, full, now=now)
            self.events.emit(
                "job_dead", job_id, reason=full, trace_id=job.trace_id
            )
            return
        delay = self.config.retry.delay(job.attempts, self.rng)
        self.store.requeue(job_id, delay=delay, reason=reason, now=now)
        self.events.emit(
            "job_retry",
            job_id,
            reason=reason,
            attempt=job.attempts,
            delay=round(delay, 3),
            trace_id=job.trace_id,
        )

    def _result(self, job_id: str) -> Optional[dict]:
        """The job's result.json, or None when missing or torn."""
        path = self.paths.result(job_id)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    def _run_id(self, job_id: str) -> Optional[str]:
        manifest = self.paths.rundir(job_id) / "manifest.json"
        try:
            doc = json.loads(manifest.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return doc.get("run_id") if isinstance(doc, dict) else None

    # -- timeouts, hangs, escalation ---------------------------------------

    def _enforce(self, now: float) -> None:
        for job_id, handle in self.handles.items():
            if handle.term_at is not None:
                if now - handle.term_at > self.config.grace:
                    self._kill(handle, job_id)
                continue
            if handle.deadline is not None and now > handle.deadline:
                self._terminate(handle, job_id, "wall-clock timeout", now)
                continue
            state = self._worker_state(handle, job_id, now)
            if state == "stale":
                self._terminate(handle, job_id, "stale heartbeat", now)

    def _worker_state(
        self, handle: WorkerHandle, job_id: str, now: float
    ) -> str:
        beat = read_heartbeat(self.paths.rundir(job_id) / "heartbeat.json")
        if beat is None:
            # No heartbeat yet: grade staleness from launch time.
            age = now - handle.started
            return "stale" if age > self.config.stale_after else "pending"
        return classify_state(beat, now=now, stale_after=self.config.stale_after)

    def _terminate(
        self, handle: WorkerHandle, job_id: str, reason: str, now: float
    ) -> None:
        handle.term_at = now
        handle.term_reason = reason
        self.events.emit(
            "job_term", job_id, reason=reason, pid=handle.process.pid,
            trace_id=handle.job.trace_id,
        )
        try:
            handle.process.terminate()
        except OSError:
            pass

    def _kill(self, handle: WorkerHandle, job_id: str) -> None:
        self.events.emit(
            "job_kill", job_id, reason=handle.term_reason,
            pid=handle.process.pid, trace_id=handle.job.trace_id,
        )
        try:
            handle.process.kill()
        except OSError:
            pass

    # -- graceful drain -----------------------------------------------------

    def _begin_drain(self, now: float) -> None:
        if not self.store.draining():
            self.store.set_draining(True)
        for job_id, handle in self.handles.items():
            if handle.term_at is None:
                self._terminate(handle, job_id, "drain", now)

    # -- startup recovery ---------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Adopt ``running`` rows a dead supervisor left behind.

        Finished orphans (a result landed) become ``done``; live orphan
        workers are terminated — waited on synchronously, so a relaunch
        can never race a still-writing orphan over the same job
        directory — and their jobs requeue without spending an attempt.
        The drain flag is cleared: a fresh supervisor accepts work.
        """
        self.store.set_draining(False)
        stats = {"adopted_done": 0, "orphans_stopped": 0, "requeued": 0}
        for job in self.store.jobs(state="running"):
            if self._result(job.job_id) is not None:
                self.store.mark_done(
                    job.job_id, run_id=self._run_id(job.job_id)
                )
                self.events.emit(
                    "job_done", job.job_id, attempt=job.attempts,
                    recovered=True, trace_id=job.trace_id,
                )
                stats["adopted_done"] += 1
                continue
            if job.worker_pid and _pid_alive(job.worker_pid):
                self._stop_orphan(job.worker_pid)
                stats["orphans_stopped"] += 1
            self.store.requeue(
                job.job_id,
                reason="supervisor restart",
                count_attempt=False,
            )
            self.events.emit(
                "job_requeued", job.job_id, reason="supervisor restart",
                trace_id=job.trace_id,
            )
            stats["requeued"] += 1
        if any(stats.values()):
            self.events.emit("supervisor_recover", **stats)
        return stats

    def _stop_orphan(self, pid: int) -> None:
        """SIGTERM (checkpoint + exit), escalate to SIGKILL, and wait
        until the process is really gone."""
        try:
            os.kill(pid, signal.SIGTERM)
        except OSError:
            return
        deadline = time.time() + self.config.grace
        while time.time() < deadline:
            if not _pid_alive(pid):
                return
            time.sleep(0.05)
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            return
        # Not our child, so no wait(); poll until the kernel reaps it.
        deadline = time.time() + self.config.grace
        while time.time() < deadline and _pid_alive(pid):
            time.sleep(0.05)
