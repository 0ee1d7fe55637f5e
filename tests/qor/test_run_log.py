"""The run log: every ``--rundir`` attempt keeps one trace JSONL, and
every beat reader folds it back into exactly the beats the heartbeat
snapshot showed."""

import json

import pytest

from repro.__main__ import main
from repro.bench import load_circuit
from repro.netlist import dump
from repro.obs import handle_request
from repro.obs.fleet import Fleet
from repro.obs.trace import trace_document, trace_ids_of
from repro.qor import BeatReader, RunRecorder, read_heartbeat, run_logs
from repro.qor import heartbeat as heartbeat_module
from repro.resilience import Fault, SimulatedKill, inject_faults
from repro.telemetry.report import load_events

from ..conftest import make_macro_circuit
from ..obs.test_sse import parse_frames

#: Lines the i1 smoke seed-7 run may write to its log (305 at the time
#: of writing: 303 flow events plus ``run.start`` and ``run.end``).  A
#: new per-temperature or per-net event would cross it.
I1_SMOKE_LOG_LINES = 350

I1_RUNS = {
    "serial": [],
    "batched": ["--mover", "batched"],
    "chains": ["--chains", "2", "--workers", "1"],
}


@pytest.fixture(scope="module")
def i1_runs(tmp_path_factory):
    """i1 smoke seed-7 runs recorded with ``--rundir`` only, with every
    heartbeat snapshot the writer wrote captured as it was written."""
    root = tmp_path_factory.mktemp("run-log")
    circuit = root / "i1.twmc"
    dump(load_circuit("i1"), circuit)
    runs = {}
    real_write = heartbeat_module._atomic_write
    for name, flags in I1_RUNS.items():
        rundir = root / name
        snapshots = []

        def capture(path, text):
            if path.name == RunRecorder.HEARTBEAT_NAME:
                snapshots.append(json.loads(text))
            real_write(path, text)

        heartbeat_module._atomic_write = capture
        try:
            code = main(
                ["place", str(circuit), "--preset", "smoke", "--seed", "7",
                 "--rundir", str(rundir), *flags]
            )
        finally:
            heartbeat_module._atomic_write = real_write
        assert code == 0
        runs[name] = (rundir, snapshots)
    return runs


class TestReplay:
    @pytest.mark.parametrize("name", sorted(I1_RUNS))
    def test_log_folds_to_the_snapshot_beats(self, i1_runs, name, capsys):
        rundir, snapshots = i1_runs[name]
        assert sorted(p.name for p in rundir.iterdir()) == [
            "heartbeat.json", "manifest.json", "qor.json",
            "trace-attempt-01.jsonl",
        ]
        beats = json.loads(json.dumps(BeatReader(rundir).poll()))
        assert len(beats) > 100
        assert beats == snapshots
        assert beats[-1] == read_heartbeat(rundir / RunRecorder.HEARTBEAT_NAME)
        assert beats[-1]["phase"] == "done"

    def test_log_size_is_bounded(self, i1_runs):
        rundir, _ = i1_runs["serial"]
        lines = (rundir / "trace-attempt-01.jsonl").read_text().splitlines()
        assert len(lines) <= I1_SMOKE_LOG_LINES
        assert [json.loads(lines[0])["name"], json.loads(lines[-1])["name"]] == [
            "run.start", "run.end",
        ]

    def test_trace_route_serves_a_rundir_run(self, i1_runs):
        rundir, _ = i1_runs["serial"]
        run_id = json.loads((rundir / "manifest.json").read_text())["run_id"]
        response = handle_request(Fleet(rundir.parent), f"/runs/{run_id}/trace")
        assert response.status == 200
        doc = json.loads(response.body)
        names = {row["name"] for row in doc["processes"][0]["waterfall"]}
        assert {"stage1", "stage2", "router.phase1"} <= names


class TestResumeIntoTheSameRundir:
    def test_resume_keeps_both_logs(self, tmp_path, capsys):
        circuit = tmp_path / "c.twmc"
        dump(make_macro_circuit(seed=3), circuit)
        rundir, ckpt = tmp_path / "run", tmp_path / "ckpt"
        with inject_faults(Fault(site="anneal.temperature", at=3, kind="kill")):
            with pytest.raises(SimulatedKill):
                main(
                    ["place", str(circuit), "--preset", "smoke", "--seed", "5",
                     "--rundir", str(rundir), "--checkpoint-dir", str(ckpt),
                     "--checkpoint-every", "1"]
                )
        first = BeatReader(rundir).poll()
        assert first[-1]["phase"] == "failed"
        assert read_heartbeat(rundir / RunRecorder.HEARTBEAT_NAME)["stage"] == "stage1"
        (checkpoint,) = sorted(ckpt.glob("*.ckpt"))[-1:]
        assert main(["resume", str(checkpoint), "--rundir", str(rundir)]) == 0

        logs = run_logs(rundir)
        assert [p.name for p in logs] == [
            "trace-attempt-01.jsonl", "trace-attempt-02.jsonl",
        ]
        first_ids = trace_ids_of(load_events(logs[0]))
        assert len(first_ids) == 1
        assert trace_ids_of(load_events(logs[1])) == first_ids
        doc = trace_document(rundir)
        assert len(doc["processes"]) == 2
        assert doc["trace_id"] == first_ids[0]
        # The first attempt's log is whole: it still ends in its own
        # final beat.
        assert [b["phase"] for b in BeatReader(rundir).poll()][-1] == "done"
        assert json.loads(logs[0].read_text().splitlines()[-1])["status"] == "failed"

        run_id = json.loads((rundir / "manifest.json").read_text())["run_id"]
        response = handle_request(
            Fleet(tmp_path), f"/runs/{run_id}/events", {"timeout": "10"}
        )
        frames = parse_frames(b"".join(response.stream))
        beats = [f[2] for f in frames if f[0] != "stage"]
        assert beats[0]["phase"] == "start" and beats[0]["command"] == "resume"
        assert frames[-1][0] == "final" and beats[-1]["phase"] == "done"
