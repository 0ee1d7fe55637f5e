"""Job and JobSpec: identity, serialization, state transitions."""

import pytest

from repro.service import JOB_STATES, TERMINAL_STATES, Job, JobSpec, new_job_id


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(
            circuit="c.twmc", preset="fast", seed=3,
            cooling="adaptive", checkpoint_every=2,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_spec_stored_with_a_core_still_loads(self):
        """A queue written while specs named a stage-1 core: the key is
        dropped (a serial job replays identically on either core)."""
        stored = {
            "circuit": "c.twmc", "preset": "fast", "seed": 3,
            "core": "object", "cooling": "table", "checkpoint_every": 5,
        }
        spec = JobSpec.from_dict(stored)
        assert spec == JobSpec(circuit="c.twmc", preset="fast", seed=3)
        assert "core" not in spec.to_dict()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_dict({"circuit": "c.twmc", "gpu": True})

    def test_defaults(self):
        spec = JobSpec(circuit="c.twmc")
        assert spec.preset == "smoke"
        assert spec.checkpoint_every == 5


class TestJob:
    def test_with_state(self):
        job = Job(job_id="j", spec=JobSpec(circuit="c"))
        running = job.with_state("running", attempts=1)
        assert running.state == "running"
        assert running.attempts == 1
        assert job.state == "queued"  # frozen original untouched

    def test_with_state_rejects_unknown(self):
        job = Job(job_id="j", spec=JobSpec(circuit="c"))
        with pytest.raises(ValueError, match="unknown job state"):
            job.with_state("paused")

    def test_terminal(self):
        job = Job(job_id="j", spec=JobSpec(circuit="c"))
        for state in JOB_STATES:
            assert job.with_state(state).terminal == (state in TERMINAL_STATES)

    def test_to_dict_is_plain_data(self):
        import json

        job = Job(job_id="j", spec=JobSpec(circuit="c"))
        doc = json.loads(json.dumps(job.to_dict()))
        assert doc["job_id"] == "j"
        assert doc["spec"]["circuit"] == "c"


class TestNewJobId:
    def test_unique(self):
        ids = {new_job_id() for _ in range(64)}
        assert len(ids) == 64

    def test_sortable_by_time(self):
        early = new_job_id(now=1_000_000.0)
        late = new_job_id(now=2_000_000.0)
        assert early < late
