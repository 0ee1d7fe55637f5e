"""Distributed-trace propagation through the service layers.

Submission mints the job's trace id; the store persists it (including
across a schema migration from a pre-trace database); the supervisor
hands it to every worker attempt through the environment and stamps it
on every journal event.  The end-to-end SIGKILL/retry continuity check
lives in ``test_supervisor.py``'s ``TestEndToEnd``.
"""

import subprocess

from repro.netlist import dumps
from repro.service import (
    Job,
    JobSpec,
    ServiceConfig,
    ServicePaths,
    ServiceView,
    SqliteJobStore,
    Supervisor,
    build_worker_command,
)
from repro.telemetry.context import TRACEPARENT_ENV, TraceContext

from ..conftest import make_macro_circuit

SPEC = JobSpec(circuit="c.twmc")
TRACE_ID = "ab" * 16


class TestStorePersistence:
    def test_submit_round_trips_trace_id(self, tmp_path):
        with SqliteJobStore(tmp_path / "r.sqlite") as store:
            job, _ = store.submit(SPEC, trace_id=TRACE_ID)
            assert job.trace_id == TRACE_ID
            assert store.get(job.job_id).trace_id == TRACE_ID

    def test_trace_id_survives_claim(self, tmp_path):
        with SqliteJobStore(tmp_path / "r.sqlite") as store:
            job, _ = store.submit(SPEC, trace_id=TRACE_ID)
            claimed = store.claim_next("owner")
            assert claimed.job_id == job.job_id
            assert claimed.trace_id == TRACE_ID

    def test_pre_trace_database_migrates(self, tmp_path):
        """A jobs table created before the trace column existed gains it
        on the next writable open; old rows read back as None."""
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(str(path))
        conn.executescript(
            """
            CREATE TABLE jobs (
                job_id TEXT PRIMARY KEY,
                created REAL NOT NULL, updated REAL NOT NULL,
                tenant TEXT NOT NULL DEFAULT 'default',
                priority INTEGER NOT NULL DEFAULT 0,
                state TEXT NOT NULL DEFAULT 'queued',
                attempts INTEGER NOT NULL DEFAULT 0,
                max_attempts INTEGER NOT NULL DEFAULT 5,
                next_attempt_at REAL NOT NULL DEFAULT 0,
                wall_timeout REAL, spec_json TEXT NOT NULL,
                started REAL, finished REAL, worker_pid INTEGER,
                lease_owner TEXT, run_id TEXT, reason TEXT
            );
            INSERT INTO jobs(job_id, created, updated, spec_json)
            VALUES('job-old', 1.0, 1.0,
                   '{"circuit": "c.twmc"}');
            """
        )
        conn.commit()
        conn.close()
        with SqliteJobStore(path) as store:
            assert store.get("job-old").trace_id is None
            job, _ = store.submit(SPEC, trace_id=TRACE_ID)
            assert store.get(job.job_id).trace_id == TRACE_ID

    def test_job_to_dict_exposes_trace_id(self):
        job = Job(job_id="j", spec=SPEC, trace_id=TRACE_ID)
        assert job.to_dict()["trace_id"] == TRACE_ID


class TestSubmitMintsTrace:
    def test_view_submit_sets_trace_id(self, tmp_path):
        circuit = tmp_path / "c.twmc"
        circuit.write_text(dumps(make_macro_circuit()), encoding="utf-8")
        with ServiceView(tmp_path / "svc") as view:
            a = view.submit(circuit)
            b = view.submit(circuit)
        assert a.trace_id and b.trace_id
        assert a.trace_id != b.trace_id  # one trace per job
        TraceContext(a.trace_id, "cd" * 8)  # well-formed: 32-hex

    def test_submission_event_carries_trace_id(self, tmp_path):
        circuit = tmp_path / "c.twmc"
        circuit.write_text(dumps(make_macro_circuit()), encoding="utf-8")
        with ServiceView(tmp_path / "svc") as view:
            job = view.submit(circuit)
            events = view.history(job_id=job.job_id)
        assert [e["event"] for e in events] == ["job_submitted"]
        assert events[0]["trace_id"] == job.trace_id


class TestWorkerCommand:
    def test_attempt_trace_file_is_per_attempt(self, tmp_path):
        """The worker leaves the log's name to the CLI, which writes each
        attempt's log one past the newest in the job's rundir: a retry
        never truncates attempt 1."""
        from repro.qor import attempt_log

        paths = ServicePaths(tmp_path)
        paths.ensure_job_dirs("j1")
        cmd = build_worker_command(
            paths, Job(job_id="j1", spec=SPEC, attempts=1), python="py"
        )
        assert "--trace" not in cmd
        rundir = cmd[cmd.index("--rundir") + 1]
        assert rundir == str(paths.rundir("j1"))
        first = attempt_log(rundir)
        assert first.name == "trace-attempt-01.jsonl"
        paths.rundir("j1").mkdir(parents=True)
        first.write_text("")
        assert attempt_log(rundir).name == "trace-attempt-02.jsonl"


class TestSupervisorLaunchEnv:
    def launch_one(self, tmp_path, monkeypatch, trace_id):
        root = tmp_path / "svc"
        sup = Supervisor(
            ServiceConfig(root=root, workers=1, exit_when_idle=True)
        )
        job, _ = sup.store.submit(SPEC, trace_id=trace_id)
        sup.paths.ensure_job_dirs(job.job_id)
        sup.paths.circuit(job.job_id).write_text("x", encoding="utf-8")
        captured = {}

        class FakeProcess:
            pid = 4242

            def poll(self):
                return None

        def fake_popen(command, **kwargs):
            captured["command"] = command
            captured.update(kwargs)
            return FakeProcess()

        monkeypatch.setattr(
            "repro.service.supervisor.subprocess.Popen", fake_popen
        )
        sup._launch(now=100.0)
        assert captured, "worker never launched"
        for handle in sup.handles.values():
            handle.log_file.close()
        return job, captured

    def test_traceparent_in_worker_env(self, tmp_path, monkeypatch):
        job, captured = self.launch_one(tmp_path, monkeypatch, TRACE_ID)
        env = captured["env"]
        ctx = TraceContext.parse(env[TRACEPARENT_ENV])
        assert ctx is not None
        assert ctx.trace_id == TRACE_ID
        assert "PATH" in env  # inherits the ambient environment

    def test_journal_start_event_stamped(self, tmp_path, monkeypatch):
        job, _ = self.launch_one(tmp_path, monkeypatch, TRACE_ID)
        from repro.service.events import read_events

        paths = ServicePaths(tmp_path / "svc")
        start = [
            e for e in read_events(paths.events) if e["event"] == "job_start"
        ]
        assert [e["trace_id"] for e in start] == [TRACE_ID]

    def test_no_trace_id_inherits_environment(self, tmp_path, monkeypatch):
        _, captured = self.launch_one(tmp_path, monkeypatch, None)
        assert captured["env"] is None

    def test_malformed_trace_id_degrades_to_fresh_env(
        self, tmp_path, monkeypatch
    ):
        _, captured = self.launch_one(tmp_path, monkeypatch, "not-hex")
        assert captured["env"] is None


class TestWorkerInheritsTrace:
    def test_cli_place_continues_env_trace(self, tmp_path, monkeypatch):
        """The worker-side half of the handoff: ``repro place`` under a
        REPRO_TRACEPARENT env stamps the parent's trace id on its own
        recorder and tracer (checked through _trace_context)."""
        from repro.__main__ import _trace_context
        from repro.telemetry.context import mint_context

        parent = mint_context()
        monkeypatch.setenv(TRACEPARENT_ENV, parent.to_traceparent())
        ctx = _trace_context()
        assert ctx.trace_id == parent.trace_id
        assert ctx.span_id != parent.span_id

    def test_checkpoint_trace_id_wins_over_env(self, tmp_path, monkeypatch):
        """On resume the checkpoint's trace is the run's identity even
        if the environment carries a different (stale) traceparent."""
        from repro.__main__ import _trace_context
        from repro.telemetry.context import mint_context

        monkeypatch.setenv(
            TRACEPARENT_ENV, mint_context().to_traceparent()
        )
        ctx = _trace_context("cd" * 16)
        assert ctx.trace_id == "cd" * 16
