"""The persistent job queue, backed by the run-registry SQLite file.

:class:`SqliteJobStore` is the store the supervisor, the CLI, and the
observability view program against.  It adds a ``jobs`` table (and a
``service_meta`` key-value table for the drain flag and the supervisor
lease) to the same database file the
:class:`~repro.qor.registry.RunRegistry` uses — one file holds the
whole service state, so a supervisor restart, a monitor, and every
worker see a single consistent world.

Concurrency: the file is shared by the supervisor, N workers (their
``RunRecorder`` registry writes), submitters, and read-only monitors.
All connections go through the registry's WAL + busy-timeout
configuration, every read-modify-write runs inside one ``BEGIN
IMMEDIATE`` transaction (so a submission's backpressure check and its
insert are atomic), and writes retry on a residually locked database.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..qor.registry import configure_connection, retry_locked
from .policy import BackpressurePolicy, QueueFull
from .spec import JOB_STATES, Job, JobSpec, new_job_id

_JOBS_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    created REAL NOT NULL,
    updated REAL NOT NULL,
    tenant TEXT NOT NULL DEFAULT 'default',
    priority INTEGER NOT NULL DEFAULT 0,
    state TEXT NOT NULL DEFAULT 'queued',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 5,
    next_attempt_at REAL NOT NULL DEFAULT 0,
    wall_timeout REAL,
    spec_json TEXT NOT NULL,
    started REAL,
    finished REAL,
    worker_pid INTEGER,
    lease_owner TEXT,
    run_id TEXT,
    reason TEXT,
    trace_id TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs(state, next_attempt_at);
CREATE INDEX IF NOT EXISTS idx_jobs_tenant ON jobs(tenant, state);
CREATE TABLE IF NOT EXISTS service_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class StoreError(RuntimeError):
    """A job lookup failed (unknown or ambiguous id, bad state, ...)."""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class SqliteJobStore:
    """The jobs table inside the run-registry database file."""

    def __init__(self, path: Union[str, Path], readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        # check_same_thread off: a store is handed between threads (the
        # test harness drives a supervisor from a worker thread) but is
        # only ever *used* by one at a time; cross-process safety comes
        # from the immediate transactions, not the connection object.
        if readonly:
            self._conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True,
                check_same_thread=False,
            )
            configure_connection(self._conn, readonly=True)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            configure_connection(self._conn)
            retry_locked(lambda: self._conn.executescript(_JOBS_SCHEMA))
            # Pre-trace databases lack the trace_id column; CREATE TABLE
            # IF NOT EXISTS never retrofits columns, so migrate in place.
            try:
                retry_locked(
                    lambda: self._conn.execute(
                        "ALTER TABLE jobs ADD COLUMN trace_id TEXT"
                    )
                )
            except sqlite3.OperationalError:
                pass  # already present
        # Explicit transactions only: reads run lock-free, and every
        # read-modify-write wraps itself in BEGIN IMMEDIATE below.
        self._conn.isolation_level = None

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteJobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transaction plumbing ----------------------------------------------

    def _transact(self, operation: Callable[[], Any]) -> Any:
        """Run ``operation`` inside one immediate (write-locked)
        transaction, retried on a locked database."""

        def _run():
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                result = operation()
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            return result

        return retry_locked(_run)

    # -- row mapping --------------------------------------------------------

    @staticmethod
    def _row_to_job(row: sqlite3.Row) -> Job:
        return Job(
            job_id=row["job_id"],
            spec=JobSpec.from_dict(json.loads(row["spec_json"])),
            tenant=row["tenant"],
            priority=row["priority"],
            state=row["state"],
            attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            next_attempt_at=row["next_attempt_at"],
            wall_timeout=row["wall_timeout"],
            created=row["created"],
            updated=row["updated"],
            started=row["started"],
            finished=row["finished"],
            worker_pid=row["worker_pid"],
            lease_owner=row["lease_owner"],
            run_id=row["run_id"],
            reason=row["reason"],
            # Readonly connections never migrate, so an old database
            # opened by a monitor may simply lack the column.
            trace_id=row["trace_id"] if "trace_id" in row.keys() else None,
        )

    # -- submission + backpressure -----------------------------------------

    def submit(
        self,
        spec: JobSpec,
        *,
        tenant: str = "default",
        priority: int = 0,
        wall_timeout: Optional[float] = None,
        max_attempts: int = 5,
        job_id: Optional[str] = None,
        backpressure: Optional[BackpressurePolicy] = None,
        trace_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Tuple[Job, Optional[Job]]:
        """Enqueue a job; returns ``(job, shed_job_or_None)``.

        The backpressure check and the insert are one transaction: two
        racing submitters cannot both squeeze past the high-water mark.
        Raises :class:`QueueFull` when the policy rejects.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        now = now if now is not None else time.time()
        job_id = job_id if job_id is not None else new_job_id(now)

        def _op() -> Tuple[Job, Optional[Job]]:
            shed: Optional[Job] = None
            if backpressure is not None:
                rows = self._conn.execute(
                    "SELECT * FROM jobs WHERE state = 'queued'"
                ).fetchall()
                if len(rows) >= backpressure.max_queued:
                    queued = [self._row_to_job(r) for r in rows]
                    victim = backpressure.victim(queued, priority)
                    if victim is None:
                        raise QueueFull(
                            f"queue at high-water mark "
                            f"({len(queued)}/{backpressure.max_queued} queued); "
                            f"submission rejected"
                        )
                    self._conn.execute(
                        "UPDATE jobs SET state = 'shed', reason = ?, "
                        "updated = ?, finished = ? WHERE job_id = ?",
                        (
                            f"shed by higher-priority submission {job_id}",
                            now,
                            now,
                            victim.job_id,
                        ),
                    )
                    shed = victim.with_state(
                        "shed",
                        reason=f"shed by higher-priority submission {job_id}",
                        updated=now,
                        finished=now,
                    )
            self._conn.execute(
                "INSERT INTO jobs(job_id, created, updated, tenant, priority,"
                " state, attempts, max_attempts, next_attempt_at,"
                " wall_timeout, spec_json, trace_id)"
                " VALUES(?,?,?,?,?,'queued',0,?,0,?,?,?)",
                (
                    job_id,
                    now,
                    now,
                    tenant,
                    priority,
                    max_attempts,
                    wall_timeout,
                    json.dumps(spec.to_dict(), sort_keys=True),
                    trace_id,
                ),
            )
            job = Job(
                job_id=job_id,
                spec=spec,
                tenant=tenant,
                priority=priority,
                max_attempts=max_attempts,
                wall_timeout=wall_timeout,
                created=now,
                updated=now,
                trace_id=trace_id,
            )
            return job, shed

        return self._transact(_op)

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """One job by exact id or unique prefix."""
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE job_id LIKE ? ORDER BY created",
                (job_id + "%",),
            ).fetchall()
            if not rows:
                raise StoreError(f"no job {job_id!r} in {self.path}")
            if len(rows) > 1:
                ids = ", ".join(r["job_id"] for r in rows[:5])
                raise StoreError(f"ambiguous job id {job_id!r}: {ids}")
            row = rows[0]
        return self._row_to_job(row)

    def jobs(
        self,
        state: Optional[str] = None,
        tenant: Optional[str] = None,
        limit: int = 1000,
    ) -> List[Job]:
        clauses: List[str] = []
        params: Tuple[Any, ...] = ()
        if state is not None:
            if state not in JOB_STATES:
                raise StoreError(f"unknown job state {state!r}")
            clauses.append("state = ?")
            params += (state,)
        if tenant is not None:
            clauses.append("tenant = ?")
            params += (tenant,)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM jobs {where} ORDER BY created, job_id LIMIT ?",
            (*params, limit),
        ).fetchall()
        return [self._row_to_job(r) for r in rows]

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for row in self._conn.execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    # -- scheduling ---------------------------------------------------------

    def claim_next(self, owner: str, now: Optional[float] = None) -> Optional[Job]:
        """Atomically claim the next ready job (tenant-fair), moving it
        to ``running`` with the attempt counted.  None when no job is
        ready (queued jobs still backing off do not count)."""
        from .policy import pick_fair

        now = now if now is not None else time.time()

        def _op() -> Optional[Job]:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE state = 'queued'"
                " AND next_attempt_at <= ?",
                (now,),
            ).fetchall()
            ready = [self._row_to_job(r) for r in rows]
            last_started = {
                row["tenant"]: row["last"]
                for row in self._conn.execute(
                    "SELECT tenant, MAX(started) AS last FROM jobs"
                    " WHERE started IS NOT NULL GROUP BY tenant"
                )
                if row["last"] is not None
            }
            job = pick_fair(ready, last_started)
            if job is None:
                return None
            self._conn.execute(
                "UPDATE jobs SET state = 'running', attempts = attempts + 1,"
                " started = ?, updated = ?, lease_owner = ?, worker_pid = NULL,"
                " reason = NULL WHERE job_id = ?",
                (now, now, owner, job.job_id),
            )
            return job.with_state(
                "running",
                attempts=job.attempts + 1,
                started=now,
                updated=now,
                lease_owner=owner,
                worker_pid=None,
                reason=None,
            )

        return self._transact(_op)

    def set_worker(self, job_id: str, pid: Optional[int]) -> None:
        self._transact(
            lambda: self._conn.execute(
                "UPDATE jobs SET worker_pid = ?, updated = ? WHERE job_id = ?",
                (pid, time.time(), job_id),
            )
        )

    # -- terminal transitions ----------------------------------------------

    def mark_done(
        self, job_id: str, run_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        now = now if now is not None else time.time()
        self._transact(
            lambda: self._conn.execute(
                "UPDATE jobs SET state = 'done', finished = ?, updated = ?,"
                " worker_pid = NULL, run_id = COALESCE(?, run_id),"
                " reason = NULL WHERE job_id = ?",
                (now, now, run_id, job_id),
            )
        )

    def mark_dead(
        self, job_id: str, reason: str, now: Optional[float] = None
    ) -> None:
        now = now if now is not None else time.time()
        self._transact(
            lambda: self._conn.execute(
                "UPDATE jobs SET state = 'dead', finished = ?, updated = ?,"
                " worker_pid = NULL, reason = ? WHERE job_id = ?",
                (now, now, reason, job_id),
            )
        )

    def requeue(
        self,
        job_id: str,
        delay: float = 0.0,
        reason: Optional[str] = None,
        count_attempt: bool = True,
        now: Optional[float] = None,
    ) -> None:
        """Put a running job back in the queue.

        ``count_attempt=False`` refunds the attempt consumed at claim
        time — used when the *service* interrupted the job (drain,
        supervisor restart) rather than the job failing.
        """
        now = now if now is not None else time.time()
        attempts_sql = "" if count_attempt else ", attempts = MAX(0, attempts - 1)"
        self._transact(
            lambda: self._conn.execute(
                f"UPDATE jobs SET state = 'queued', next_attempt_at = ?,"
                f" updated = ?, worker_pid = NULL, reason = ?{attempts_sql}"
                f" WHERE job_id = ?",
                (now + max(0.0, delay), now, reason, job_id),
            )
        )

    # -- drain flag + supervisor lease -------------------------------------

    def _meta_get(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM service_meta WHERE key = ?", (key,)
        ).fetchone()
        return row["value"] if row is not None else None

    def _meta_set(self, key: str, value: Optional[str]) -> None:
        def _op():
            if value is None:
                self._conn.execute(
                    "DELETE FROM service_meta WHERE key = ?", (key,)
                )
            else:
                self._conn.execute(
                    "INSERT OR REPLACE INTO service_meta(key, value)"
                    " VALUES(?,?)",
                    (key, value),
                )

        self._transact(_op)

    def set_draining(self, draining: bool) -> None:
        self._meta_set("draining", "1" if draining else None)

    def draining(self) -> bool:
        return self._meta_get("draining") == "1"

    def acquire_lease(
        self,
        owner: str,
        info: Optional[Dict[str, Any]] = None,
        stale_after: float = 15.0,
    ) -> bool:
        """Claim the single-supervisor lease.  Succeeds when there is no
        lease, the holder's process is gone, or its beat is older than
        ``stale_after`` (a SIGKILLed supervisor never releases)."""
        now = time.time()

        def _op() -> bool:
            row = self._conn.execute(
                "SELECT value FROM service_meta WHERE key = 'lease'"
            ).fetchone()
            if row is not None:
                held = json.loads(row["value"])
                fresh = now - float(held.get("beat", 0.0)) <= stale_after
                alive = held.get("pid") and _pid_alive(int(held["pid"]))
                if held.get("owner") != owner and fresh and alive:
                    return False
            doc = dict(info or {}, owner=owner, beat=now, acquired=now)
            self._conn.execute(
                "INSERT OR REPLACE INTO service_meta(key, value)"
                " VALUES('lease', ?)",
                (json.dumps(doc, sort_keys=True),),
            )
            return True

        return self._transact(_op)

    def refresh_lease(self, owner: str) -> None:
        def _op():
            row = self._conn.execute(
                "SELECT value FROM service_meta WHERE key = 'lease'"
            ).fetchone()
            if row is None:
                return
            held = json.loads(row["value"])
            if held.get("owner") != owner:
                return
            held["beat"] = time.time()
            self._conn.execute(
                "UPDATE service_meta SET value = ? WHERE key = 'lease'",
                (json.dumps(held, sort_keys=True),),
            )

        self._transact(_op)

    def release_lease(self, owner: str) -> None:
        def _op():
            row = self._conn.execute(
                "SELECT value FROM service_meta WHERE key = 'lease'"
            ).fetchone()
            if row is None:
                return
            if json.loads(row["value"]).get("owner") != owner:
                return
            self._conn.execute("DELETE FROM service_meta WHERE key = 'lease'")

        self._transact(_op)

    def lease(self) -> Optional[Dict[str, Any]]:
        raw = self._meta_get("lease")
        return json.loads(raw) if raw else None
