"""Fleet state classification and the rundir/registry join."""

import json
import time

import pytest

from repro.obs import beat_age, classify_state
from repro.obs.fleet import Fleet
from repro.qor import HeartbeatWriter, RunRegistry
from repro.telemetry import Tracer

from ..conftest import FakeRun


def make_rundir(root, name, run_id=None, status=None, **fields):
    """A rundir with a manifest and a run log: started, then one anneal
    beat (``fields``), or ended with ``status``."""
    rundir = root / name
    run_id = run_id or name
    run = FakeRun(rundir, run_id=run_id)
    (rundir / "manifest.json").write_text(
        json.dumps({"run_id": run_id, "circuit": {"name": "fix"}})
    )
    if status is not None:
        run.end(status)
    else:
        run.anneal(**fields)
    return rundir, run


class TestClassifyState:
    def test_no_beat_is_pending(self):
        assert classify_state(None) == "pending"

    def test_fresh_beat_is_running(self):
        beat = {"phase": "anneal", "updated": time.time(), "final": False}
        assert classify_state(beat) == "running"

    def test_old_beat_is_stale(self):
        beat = {"phase": "anneal", "updated": time.time() - 100, "final": False}
        assert classify_state(beat, stale_after=30.0) == "stale"

    def test_stale_after_is_tunable(self):
        beat = {"phase": "anneal", "updated": time.time() - 5, "final": False}
        assert classify_state(beat, stale_after=1.0) == "stale"
        assert classify_state(beat, stale_after=60.0) == "running"

    @pytest.mark.parametrize("phase", ["done", "failed", "interrupted"])
    def test_final_phases_never_go_stale(self, phase):
        beat = {"phase": phase, "updated": time.time() - 9999, "final": True}
        assert classify_state(beat) == phase

    def test_final_flag_with_unknown_phase_is_done(self):
        beat = {"phase": "cleanup", "updated": time.time(), "final": True}
        assert classify_state(beat) == "done"

    def test_beat_age(self):
        now = time.time()
        assert beat_age(None) is None
        assert beat_age({"updated": now - 2.0}, now=now) == pytest.approx(
            2.0, abs=0.01
        )


class TestFleet:
    def test_discovers_rundirs_and_summarizes(self, tmp_path):
        make_rundir(tmp_path, "run-a", step=3, T=10.0)
        make_rundir(tmp_path, "run-b", status="ok")
        fleet = Fleet(tmp_path)
        runs = fleet.runs()
        assert [r["run_id"] for r in runs] == ["run-a", "run-b"]
        by_id = {r["run_id"]: r for r in runs}
        assert by_id["run-a"]["state"] == "running"
        assert by_id["run-a"]["circuit"] == "fix"
        assert "[anneal]" in by_id["run-a"]["progress"]
        assert by_id["run-b"]["state"] == "done"

    def test_root_itself_can_be_a_rundir(self, tmp_path):
        make_rundir(tmp_path.parent, tmp_path.name)
        fleet = Fleet(tmp_path)
        assert [r["run_id"] for r in fleet.runs()] == [tmp_path.name]

    def test_find_rundir_by_prefix(self, tmp_path):
        make_rundir(tmp_path, "d1", run_id="20260101-000000-aaaaaa")
        make_rundir(tmp_path, "d2", run_id="20260202-000000-bbbbbb")
        fleet = Fleet(tmp_path)
        assert fleet.find_rundir("20260101").name == "d1"
        assert fleet.find_rundir("d2").name == "d2"
        assert fleet.find_rundir("2026") is None  # ambiguous
        assert fleet.find_rundir("nope") is None

    def test_registry_join_adds_status_and_orphan_rows(self, tmp_path):
        make_rundir(tmp_path, "run-a")
        registry = tmp_path / "reg.sqlite"
        with RunRegistry(registry) as reg:
            reg.register_run({"run_id": "run-a", "command": "place"})
            reg.register_run({"run_id": "run-gone", "command": "place"})
            reg.finish_run("run-gone", "failed")
        fleet = Fleet(tmp_path, registry=registry)
        runs = {r["run_id"]: r for r in fleet.runs()}
        assert runs["run-a"]["registry_status"] == "running"
        assert runs["run-gone"]["rundir"] is None
        assert runs["run-gone"]["state"] == "failed"

    def test_detail_joins_everything(self, tmp_path):
        rundir, _ = make_rundir(tmp_path, "run-a", step=1)
        (rundir / "qor.json").write_text(json.dumps({"teil": 12.5}))
        fleet = Fleet(tmp_path)
        doc = fleet.detail("run-a")
        assert doc["state"] == "running"
        assert doc["manifest"]["run_id"] == "run-a"
        assert doc["heartbeat"]["seq"] == 2
        assert doc["qor"]["teil"] == 12.5
        assert fleet.detail("unknown") is None

    def test_history_view(self, tmp_path):
        _, run = make_rundir(tmp_path, "run-a", step=1)
        run.anneal(step=2)
        run.anneal(step=3)
        fleet = Fleet(tmp_path)
        history = fleet.history("run-a")
        assert [b["seq"] for b in history] == [1, 2, 3, 4]
        assert [b["seq"] for b in fleet.history("run-a", since_seq=3)] == [4]
        assert history[-1] == fleet.detail("run-a")["heartbeat"]
        assert fleet.history("unknown") == []

    def test_heartbeats_default_run_id_to_dirname(self, tmp_path):
        rundir = tmp_path / "bare"
        rundir.mkdir()
        Tracer(HeartbeatWriter(rundir / "heartbeat.json")).event(
            "anneal.temperature", T=5.0
        )
        fleet = Fleet(tmp_path)
        beats = fleet.heartbeats()
        assert len(beats) == 1
        assert beats[0]["run_id"] == "bare"


class TestRegistryDegradation:
    def test_corrupt_registry_degrades_to_heartbeats_only(self, tmp_path):
        make_rundir(tmp_path, "run-a", step=1)
        garbage = tmp_path / "registry.sqlite"
        garbage.write_bytes(b"this is not a sqlite database")
        fleet = Fleet(tmp_path, registry=garbage)
        runs = fleet.runs()
        assert [r["run_id"] for r in runs] == ["run-a"]
        assert runs[0]["state"] == "running"

    def test_fleet_opens_the_registry_readonly(self, tmp_path, monkeypatch):
        from repro.qor.registry import RunRegistry

        make_rundir(tmp_path, "run-a", step=1)
        with RunRegistry(tmp_path / "registry.sqlite") as registry:
            registry.register_run({"run_id": "run-a", "command": "place"})
        opened = []
        original = RunRegistry.__init__

        def spy(self, path, readonly=False):
            opened.append(readonly)
            original(self, path, readonly=readonly)

        monkeypatch.setattr(RunRegistry, "__init__", spy)
        Fleet(tmp_path, registry=tmp_path / "registry.sqlite").runs()
        assert opened == [True]


class TestSharedClassifier:
    def test_status_watch_and_server_share_one_classifier(self):
        from repro.obs import classify_state as from_obs
        from repro.qor.monitor import classify_state as from_monitor

        assert from_obs is from_monitor
