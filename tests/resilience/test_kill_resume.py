"""End-to-end resilience: kill/resume determinism, degradation, budgets.

The central property: a run killed at *any* checkpointed position and
resumed from disk produces bit-for-bit the same placement as the run
that was never interrupted.  The kills here are injected
:class:`SimulatedKill` faults — a ``BaseException``, exactly as abrupt
as a real SIGKILL from the flow's point of view, but deterministic.
"""

import pytest

from repro import TimberWolfConfig, place_and_route, resume_place_and_route
from repro.netlist import dumps, loads
from repro.resilience import (
    Budget,
    CheckpointError,
    CheckpointPolicy,
    Fault,
    JumpClock,
    SimulatedKill,
    inject_faults,
    latest_checkpoint,
    write_checkpoint,
)

from ..conftest import make_macro_circuit

SMOKE = TimberWolfConfig.smoke(seed=5)


def fixture_circuit():
    # Round-trip through the text format up front: the resumed process
    # runs on the checkpoint's serialized circuit, so the baseline must
    # anneal the identical parse.
    return loads(dumps(make_macro_circuit()))


def stale_config_checkpoint(directory, **config_changes):
    """A stage-2 checkpoint whose config carries ``config_changes``, as
    a build with different config fields would have written it."""
    text = dumps(fixture_circuit())
    config = dict(SMOKE.to_dict(), **config_changes)
    path = directory / "stale.ckpt"
    write_checkpoint(
        path, {"phase": "stage2", "config": config, "circuit_text": text}, text
    )
    return path


@pytest.fixture(scope="module")
def baseline():
    return place_and_route(fixture_circuit(), SMOKE)


class TestCheckpointTransparency:
    def test_checkpointing_does_not_change_the_result(self, baseline, tmp_path):
        policy = CheckpointPolicy(directory=tmp_path, every_temperatures=5)
        result = place_and_route(fixture_circuit(), SMOKE, checkpoint=policy)
        assert result.teil == baseline.teil
        assert result.chip_area == baseline.chip_area
        assert result.placement() == baseline.placement()

    def test_periodic_checkpoints_written_and_pruned(self, tmp_path):
        policy = CheckpointPolicy(directory=tmp_path, every_temperatures=5, keep=2)
        place_and_route(fixture_circuit(), SMOKE, checkpoint=policy)
        files = list(tmp_path.glob("*.ckpt"))
        assert files, "no checkpoints written"
        assert len(files) <= 2


class TestKillAndResume:
    @pytest.mark.parametrize("kill_at", [3, 9])
    def test_stage1_kill_resumes_bit_for_bit(self, baseline, tmp_path, kill_at):
        policy = CheckpointPolicy(directory=tmp_path, every_temperatures=1)
        with inject_faults(
            Fault(site="anneal.temperature", at=kill_at, kind="kill")
        ):
            with pytest.raises(SimulatedKill):
                place_and_route(fixture_circuit(), SMOKE, checkpoint=policy)

        ckpt = latest_checkpoint(tmp_path)
        assert ckpt is not None
        resumed = resume_place_and_route(ckpt)
        assert resumed.resumed_from == str(ckpt)
        assert resumed.teil == baseline.teil
        assert resumed.chip_area == baseline.chip_area
        assert resumed.placement() == baseline.placement()
        assert not resumed.truncated

    def test_stage2_kill_resumes_bit_for_bit(self, baseline, tmp_path):
        policy = CheckpointPolicy(directory=tmp_path, every_temperatures=50)
        with inject_faults(Fault(site="channels.define", kind="kill")):
            with pytest.raises(SimulatedKill):
                place_and_route(fixture_circuit(), SMOKE, checkpoint=policy)

        ckpt = latest_checkpoint(tmp_path)
        assert ckpt is not None
        assert "stage2" in ckpt.name
        resumed = resume_place_and_route(ckpt)
        assert resumed.teil == baseline.teil
        assert resumed.placement() == baseline.placement()

    def test_resume_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            resume_place_and_route(path)

    def test_resume_rejects_unknown_phase(self, tmp_path):
        path = tmp_path / "odd.ckpt"
        write_checkpoint(path, {"phase": "stage99"}, "circuit x\n")
        with pytest.raises(CheckpointError, match="unknown checkpoint phase"):
            resume_place_and_route(path)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"enable_profiling": False}, "unknown config fields"),
            ({"m_routes": 0}, "m_routes must be at least 1"),
            (
                {"parallel": dict(SMOKE.parallel.to_dict(), pool_size=2)},
                "unexpected keyword argument 'pool_size'",
            ),
        ],
    )
    def test_resume_rejects_unusable_config(self, tmp_path, change, match):
        """A checkpoint written by another build (a config field this
        build does not know, or a value it refuses) is a checkpoint
        error, not a bare ValueError from the config."""
        path = stale_config_checkpoint(tmp_path, **change)
        with pytest.raises(CheckpointError, match=match):
            resume_place_and_route(path)

    @pytest.mark.parametrize("rundir", [False, True])
    def test_cli_reports_unusable_config_without_traceback(self, tmp_path, rundir):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        path = stale_config_checkpoint(tmp_path, enable_profiling=False)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, "-m", "repro", "resume", str(path)]
        if rundir:
            command += ["--rundir", str(tmp_path / "run")]
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1
        assert "checkpoint error:" in proc.stderr
        assert "unknown config fields" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestGracefulDegradation:
    def test_router_net_failure_is_retried(self):
        with inject_faults(Fault(site="router.route_net", at=2)) as injector:
            result = place_and_route(fixture_circuit(), SMOKE)
        assert injector.fired
        routing = result.refinement.final_pass.routing
        assert routing.retried, "failed net was not rerouted with relaxed M"
        assert not routing.failed
        assert result.teil > 0

    def test_router_double_failure_falls_back_to_estimate(self):
        with inject_faults(
            Fault(site="router.route_net", at=2),
            Fault(site="router.route_net_retry", at=1),
        ):
            result = place_and_route(fixture_circuit(), SMOKE)
        routing = result.refinement.final_pass.routing
        assert routing.failed
        # The unroutable net is given up and marked unrouted; the flow
        # still finished with a complete placement.
        assert set(routing.failed) <= set(routing.unrouted)
        assert result.teil > 0

    def test_estimator_failure_uses_fallback_plan(self):
        with inject_faults(Fault(site="estimator.determine_core")):
            result = place_and_route(fixture_circuit(), SMOKE)
        assert result.teil > 0
        (failure,) = result.failures
        assert failure["stage"] == "estimator.determine_core"
        assert failure["action"] == "fallback"
        assert "recovered failures" in result.summary()
        assert any(
            e.get("name") == "stage.failure"
            and e.get("stage") == "estimator.determine_core"
            for e in result.trace_events
        )


class TestBudgets:
    def test_temperature_budget_truncates_gracefully(self):
        result = place_and_route(
            fixture_circuit(), SMOKE, budget=Budget(temperatures=5)
        )
        assert result.truncated
        assert result.budget_report["exhausted"] == "temperatures"
        assert result.stage1.anneal.stop_reason == "budget:temperatures"
        assert len(result.stage1.anneal.steps) == 5
        # Stage 2 is skipped; the legalized stage-1 placement is returned.
        assert result.refinement is None
        assert result.teil > 0
        assert "TRUNCATED" in result.summary()

    def test_wall_budget_truncates_gracefully(self):
        clock = JumpClock(tick=1.0)
        budget = Budget(wall_seconds=5.0, clock=clock)
        result = place_and_route(fixture_circuit(), SMOKE, budget=budget)
        assert result.truncated
        assert result.budget_report["exhausted"] == "wall_seconds"
        assert result.teil > 0

    def test_unbudgeted_run_reports_nothing(self, baseline):
        assert baseline.budget_report is None
        assert not baseline.truncated
