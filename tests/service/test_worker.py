"""Service root layout and worker command construction."""

from repro.resilience import write_checkpoint
from repro.service import Job, JobSpec, ServicePaths, build_worker_command
from repro.service.worker import job_checkpoint


def make_job(job_id="j1", **spec_kwargs):
    return Job(job_id=job_id, spec=JobSpec(circuit="snap.twmc", **spec_kwargs))


class TestServicePaths:
    def test_layout_is_rooted(self, tmp_path):
        paths = ServicePaths(tmp_path)
        assert paths.registry == tmp_path / "registry.sqlite"
        assert paths.events == tmp_path / "events.jsonl"
        assert paths.circuit("j") == tmp_path / "jobs" / "j" / "circuit.twmc"
        assert paths.checkpoint_dir("j") == tmp_path / "jobs" / "j" / "ckpt"
        assert paths.result("j") == tmp_path / "jobs" / "j" / "result.json"
        assert paths.attempt_log("j", 2).name == "attempt-2.log"
        assert paths.rundir("j") == tmp_path / "runs" / "j"

    def test_ensure_job_dirs(self, tmp_path):
        paths = ServicePaths(tmp_path)
        paths.ensure_job_dirs("j")
        assert paths.checkpoint_dir("j").is_dir()


class TestBuildWorkerCommand:
    def test_first_attempt_is_a_fresh_place(self, tmp_path):
        paths = ServicePaths(tmp_path)
        paths.ensure_job_dirs("j1")
        job = make_job(preset="fast", seed=3,
                       cooling="adaptive", checkpoint_every=2)
        cmd = build_worker_command(paths, job, python="py")
        assert cmd[:4] == ["py", "-m", "repro", "place"]
        assert cmd[4] == str(paths.circuit("j1"))
        for flag, value in (
            ("--preset", "fast"),
            ("--seed", "3"),
            ("--cooling", "adaptive"),
            ("--checkpoint-every", "2"),
            ("--checkpoint-dir", str(paths.checkpoint_dir("j1"))),
            ("--json", str(paths.result("j1"))),
            ("--rundir", str(paths.rundir("j1"))),
            ("--registry", str(paths.registry)),
        ):
            assert value == cmd[cmd.index(flag) + 1]
        assert "--core" not in cmd  # place has no such option

    def test_retry_resumes_from_newest_checkpoint(self, tmp_path):
        paths = ServicePaths(tmp_path)
        paths.ensure_job_dirs("j1")
        ckpt = paths.checkpoint_dir("j1") / "ckpt-t5.ckpt"
        write_checkpoint(ckpt, {"phase": "stage1"}, "circuit text")
        cmd = build_worker_command(paths, make_job(), python="py")
        assert cmd[:4] == ["py", "-m", "repro", "resume"]
        assert cmd[4] == str(ckpt)
        # Pinned to the job's snapshot: a foreign checkpoint exits 6.
        assert cmd[cmd.index("--circuit") + 1] == str(paths.circuit("j1"))
        assert "--preset" not in cmd

    def test_job_checkpoint_none_without_files(self, tmp_path):
        paths = ServicePaths(tmp_path)
        paths.ensure_job_dirs("j1")
        assert job_checkpoint(paths, "j1") is None

    def test_default_python_is_current_interpreter(self, tmp_path):
        import sys

        paths = ServicePaths(tmp_path)
        paths.ensure_job_dirs("j1")
        cmd = build_worker_command(paths, make_job())
        assert cmd[0] == sys.executable
