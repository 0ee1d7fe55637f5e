"""Worker-side plumbing: the service root layout and worker commands.

A worker is not a new runtime — it is the existing CLI
(``python -m repro place`` / ``resume``) run as a subprocess against a
per-job directory.  That buys the service every guarantee those
commands already make: SIGTERM → checkpoint → exit 3, checkpoint
mismatch → exit 6, rundir heartbeats, registry rows, deterministic
resume.  The supervisor only ever interprets exit codes and files.

Service root layout::

    <root>/
      registry.sqlite        shared job store + run registry
      events.jsonl           append-only queue-event journal
      jobs/<job_id>/
        circuit.twmc         snapshot of the submitted circuit
        ckpt/                the job's checkpoint directory
        result.json          final flow result (written on success)
        attempt-N.log        captured stdout+stderr of attempt N
      runs/<job_id>/         the job's rundir (manifest/heartbeat/qor and
                             one run log per attempt)
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from ..resilience.checkpoint import latest_checkpoint
from .spec import Job


@dataclass(frozen=True)
class ServicePaths:
    """Where everything lives under one service root."""

    root: Path

    def __init__(self, root: Union[str, Path]) -> None:
        object.__setattr__(self, "root", Path(root))

    @property
    def registry(self) -> Path:
        return self.root / "registry.sqlite"

    @property
    def events(self) -> Path:
        return self.root / "events.jsonl"

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def circuit(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "circuit.twmc"

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "ckpt"

    def result(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def attempt_log(self, job_id: str, attempt: int) -> Path:
        return self.job_dir(job_id) / f"attempt-{attempt}.log"

    def rundir(self, job_id: str) -> Path:
        return self.root / "runs" / job_id

    def ensure_job_dirs(self, job_id: str) -> None:
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir(job_id).mkdir(parents=True, exist_ok=True)


def job_checkpoint(paths: ServicePaths, job_id: str) -> Optional[Path]:
    """The newest checkpoint a previous attempt of this job left behind."""
    return latest_checkpoint(paths.checkpoint_dir(job_id))


def build_worker_command(
    paths: ServicePaths, job: Job, python: Optional[str] = None
) -> List[str]:
    """The argv for the job's next attempt.

    First attempt (or no checkpoint survived): a fresh ``place``.
    Otherwise: ``resume`` from the newest checkpoint, pinned to the
    job's circuit snapshot — so a corrupted-queue scenario where a
    checkpoint from another circuit lands in the job directory exits 6
    and dead-letters instead of silently producing the wrong layout.

    Every attempt records into the job's rundir, so the CLI writes the
    attempt's own run log there (``trace-attempt-NN.jsonl``, one past
    the newest) — the raw material of the obs server's
    ``/runs/<id>/trace`` waterfall — and a retry never truncates the
    log of the attempt it is recovering from.
    """
    python = python if python is not None else sys.executable
    ckpt = job_checkpoint(paths, job.job_id)
    if ckpt is not None:
        return [
            python,
            "-m",
            "repro",
            "resume",
            str(ckpt),
            "--circuit",
            str(paths.circuit(job.job_id)),
            "--json",
            str(paths.result(job.job_id)),
            "--rundir",
            str(paths.rundir(job.job_id)),
            "--registry",
            str(paths.registry),
        ]
    spec = job.spec
    return [
        python,
        "-m",
        "repro",
        "place",
        str(paths.circuit(job.job_id)),
        "--preset",
        spec.preset,
        "--seed",
        str(spec.seed),
        "--cooling",
        spec.cooling,
        "--checkpoint-dir",
        str(paths.checkpoint_dir(job.job_id)),
        "--checkpoint-every",
        str(spec.checkpoint_every),
        "--json",
        str(paths.result(job.job_id)),
        "--rundir",
        str(paths.rundir(job.job_id)),
        "--registry",
        str(paths.registry),
    ]
