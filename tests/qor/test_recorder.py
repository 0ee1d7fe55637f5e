"""RunRecorder + QorSink: one flow run in, rundir files + registry rows out."""

import json

import pytest

from repro import TimberWolfConfig, Tracer, place_and_route
from repro.qor import (
    BeatReader,
    QorSink,
    RunRecorder,
    RunRegistry,
    qor_from_result,
    read_heartbeat,
)

from ..conftest import make_macro_circuit

SMOKE = TimberWolfConfig.smoke()


class TestQorSink:
    def test_span_end_aggregation(self):
        sink = QorSink()
        tracer = Tracer(sink)
        with tracer.span("stage1"):
            pass
        with tracer.span("stage1"):
            pass
        with pytest.raises(RuntimeError):
            with tracer.span("stage2"):
                raise RuntimeError("boom")
        assert sink.stage_times["stage1"]["calls"] == 2
        assert sink.stage_times["stage2"]["failed"] == 1
        assert sink.stage_times["stage1"]["wall_s"] >= 0

    def test_metrics_snapshots_last_write_wins(self):
        sink = QorSink()
        tracer = Tracer(sink)
        tracer.event("stage1.move_metrics", displace=1)
        tracer.event("stage1.move_metrics", displace=5, swap=2)
        assert sink.metrics["stage1.move_metrics"] == {"displace": 5, "swap": 2}

    def test_captures_flow_checkpoints(self):
        sink = QorSink()
        tracer = Tracer(sink)
        tracer.event("stage1.result", teil=123.0)
        tracer.event("unrelated.event", x=1)
        assert sink.captured["stage1.result"] == {"teil": 123.0}
        assert "unrelated.event" not in sink.captured


class TestQorFromResult:
    def test_distills_flow_result(self):
        result = place_and_route(make_macro_circuit(), SMOKE)
        record = qor_from_result(result)
        assert record["teil"] == pytest.approx(result.teil, rel=1e-3)
        assert record["chip_area"] > 0
        assert record["core_target_area"] > 0
        assert record["area_vs_target"] == pytest.approx(
            record["chip_area"] / record["core_target_area"], rel=1e-3
        )
        assert record["moves"] > 0
        assert record["temperatures"] > 0
        assert record["truncated"] is False

    def test_sink_aggregates_ride_along(self):
        sink = QorSink()
        tracer = Tracer(sink)
        result = place_and_route(make_macro_circuit(), SMOKE, tracer=tracer)
        record = qor_from_result(result, sink)
        assert "stage1" in record["stage_times"]
        assert record["checkpoints"]["stage1.result"]["teil"] > 0


class TestRunRecorder:
    def _run(self, tmp_path, registry_path=None, run_id=None):
        rundir = tmp_path / "rundir"
        recorder = RunRecorder(rundir, registry=registry_path, run_id=run_id)
        circuit = make_macro_circuit()
        tracer = recorder.open_tracer()
        recorder.begin(circuit, SMOKE, command="place")
        result = place_and_route(circuit, SMOKE, tracer=tracer)
        record = recorder.finish(result)
        tracer.close()
        return rundir, recorder, record

    def test_rundir_files_written(self, tmp_path):
        rundir, recorder, record = self._run(tmp_path)
        manifest = json.loads((rundir / RunRecorder.MANIFEST_NAME).read_text())
        assert manifest["run_id"] == recorder.run_id
        assert manifest["circuit"]["name"] == "fixture"
        assert len(manifest["circuit"]["sha256"]) == 64
        assert len(manifest["config"]["sha256"]) == 64
        qor = json.loads((rundir / RunRecorder.QOR_NAME).read_text())
        assert qor["run_id"] == recorder.run_id
        assert qor["teil"] == record["teil"]
        beat = read_heartbeat(rundir / RunRecorder.HEARTBEAT_NAME)
        assert beat["final"] is True
        assert beat["phase"] == "done"
        assert beat["status"] == "ok"

    def test_flow_events_become_beats_in_phase_order(self, tmp_path):
        rundir, _, _ = self._run(tmp_path)
        ring = BeatReader(rundir).poll()
        assert ring[-1] == read_heartbeat(rundir / RunRecorder.HEARTBEAT_NAME)
        phases = [b["phase"] for b in ring]
        runs = [p for i, p in enumerate(phases) if i == 0 or phases[i - 1] != p]
        assert runs == ["start", "flow", "anneal", "flow", "route", "anneal", "done"]
        flow = [b for b in ring if b["phase"] == "flow"]
        assert [b["status"] for b in flow] == ["stage1", "stage2"]
        for beat in ring:
            if beat["phase"] == "anneal":
                assert {"T", "acceptance", "cost", "c1", "c2", "c3",
                        "eta_steps"} <= set(beat)

    def test_registry_rows_written(self, tmp_path):
        reg_path = tmp_path / "reg.sqlite"
        _, recorder, record = self._run(tmp_path, registry_path=reg_path)
        with RunRegistry(reg_path) as registry:
            run = registry.get_run(recorder.run_id)
            stored = registry.get_qor(recorder.run_id)
        assert run["status"] == "ok"
        assert stored["teil"] == record["teil"]
        assert "stage1" in stored["stage_times"]

    def test_one_log_per_attempt_never_truncated(self, tmp_path):
        """A second recorder in the same rundir (a resume) writes the
        next attempt's log and leaves the first one whole."""
        rundir, _, _ = self._run(tmp_path)
        first = rundir / "trace-attempt-01.jsonl"
        size = first.stat().st_size
        again = RunRecorder(rundir)
        again.begin(make_macro_circuit(), SMOKE, command="resume")
        again.interrupted()
        again.tracer.close()
        assert first.stat().st_size == size
        assert [b["phase"] for b in BeatReader(rundir).poll()] == [
            "start", "interrupted",
        ]

    def test_trace_outside_the_rundir_is_written_too(self, tmp_path):
        recorder = RunRecorder(tmp_path / "rundir")
        tracer = recorder.open_tracer(tmp_path / "elsewhere.jsonl")
        recorder.begin(make_macro_circuit(), SMOKE)
        recorder.failed(ValueError("boom"))
        tracer.close()
        log = tmp_path / "rundir" / "trace-attempt-01.jsonl"
        assert log.read_text() == (tmp_path / "elsewhere.jsonl").read_text()

    def test_explicit_run_id_preserved(self, tmp_path):
        """A resume passes the checkpoint's run id: same identity."""
        _, recorder, _ = self._run(tmp_path, run_id="resume-me")
        assert recorder.run_id == "resume-me"

    def test_interrupted_status(self, tmp_path):
        reg_path = tmp_path / "reg.sqlite"
        recorder = RunRecorder(tmp_path / "r", registry=reg_path)
        recorder.begin(make_macro_circuit(), SMOKE)
        recorder.interrupted("ckpt/x.ckpt")
        recorder.tracer.close()
        with RunRegistry(reg_path) as registry:
            assert registry.get_run(recorder.run_id)["status"] == "interrupted"
        beat = read_heartbeat(tmp_path / "r" / RunRecorder.HEARTBEAT_NAME)
        assert beat["phase"] == "interrupted"
        assert beat["checkpoint"] == "ckpt/x.ckpt"

    def test_failed_status(self, tmp_path):
        reg_path = tmp_path / "reg.sqlite"
        recorder = RunRecorder(tmp_path / "r", registry=reg_path)
        recorder.begin(make_macro_circuit(), SMOKE)
        recorder.failed(ValueError("boom"))
        recorder.tracer.close()
        with RunRegistry(reg_path) as registry:
            assert registry.get_run(recorder.run_id)["status"] == "failed"
        beat = read_heartbeat(tmp_path / "r" / RunRecorder.HEARTBEAT_NAME)
        assert beat["phase"] == "failed"
        assert beat["error"] == "ValueError"

    def test_truncated_run_flagged(self, tmp_path):
        from repro import Budget

        reg_path = tmp_path / "reg.sqlite"
        recorder = RunRecorder(tmp_path / "r", registry=reg_path)
        circuit = make_macro_circuit()
        recorder.begin(circuit, SMOKE)
        result = place_and_route(
            circuit, SMOKE, tracer=recorder.tracer, budget=Budget(temperatures=2)
        )
        recorder.finish(result)
        recorder.tracer.close()
        with RunRegistry(reg_path) as registry:
            run = registry.get_run(recorder.run_id)
            stored = registry.get_qor(recorder.run_id)
        assert run["status"] == "truncated"
        assert stored["truncated"] == 1
