"""Heartbeats: the fold that turns flow events into beats, the atomic
snapshot its tracer sink writes, and the beat history read back from the
run log."""

import json
import threading

import pytest

from repro.qor import (
    HEARTBEAT_VERSION,
    BeatReader,
    HeartbeatWriter,
    attempt_log,
    parse_prometheus,
    read_heartbeat,
)
from repro.telemetry import FileSink, MemorySink, Tracer

from ..conftest import FakeRun, closing, fold_beats


def started(writer, run_id="r1", **fields):
    """A tracer over ``writer`` whose run has started."""
    tracer = Tracer(writer)
    tracer.event(
        "run.start", run_id=run_id, command="place", anchor=tracer.anchor, **fields
    )
    return tracer


class TestWriter:
    def test_beat_round_trip(self, tmp_path):
        path = tmp_path / "hb.json"
        tracer = started(HeartbeatWriter(path))
        tracer.event("anneal.temperature", step=3, T=100.0)
        doc = read_heartbeat(path)
        assert doc["v"] == HEARTBEAT_VERSION
        assert doc["run_id"] == "r1"
        assert doc["phase"] == "anneal"
        assert doc["seq"] == 2  # the start beat was the first
        assert doc["step"] == 3 and doc["T"] == 100.0
        assert doc["final"] is False
        assert doc["updated"] == pytest.approx(tracer.anchor, abs=5.0)

    def test_context_merges_and_none_deletes(self, tmp_path):
        """``run.start``'s circuit and trace id and the stage span's
        stage ride on every later beat; a run without a trace id gets
        no ``trace_id`` key at all."""
        path = tmp_path / "hb.json"
        tracer = started(HeartbeatWriter(path), circuit="fix", trace_id="ab" * 16)
        with tracer.span("stage1"):
            tracer.event("anneal.temperature", step=0)
        doc = read_heartbeat(path)
        assert (doc["circuit"], doc["trace_id"]) == ("fix", "ab" * 16)
        assert doc["stage"] == "stage1"
        tracer = started(HeartbeatWriter(path), circuit="fix")
        tracer.event("anneal.temperature", step=0)
        doc = read_heartbeat(path)
        assert "trace_id" not in doc and "stage" not in doc
        assert doc["circuit"] == "fix"

    def test_read_missing_is_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "nope.json") is None

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "rundir" / "hb.json"
        started(HeartbeatWriter(path))
        assert read_heartbeat(path)["phase"] == "start"

    def test_metrics_textfile_rendered_per_beat(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        tracer = started(HeartbeatWriter(tmp_path / "hb.json", metrics_textfile=prom))
        tracer.event("anneal.temperature", T=50.0, cost=123.5)
        parsed = parse_prometheus(prom.read_text(encoding="utf-8"))
        label = '{run_id="r1"}'
        assert parsed["repro_T" + label] == 50.0
        assert parsed["repro_cost" + label] == 123.5

    def test_metrics_textfile_labels_chains(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        tracer = started(HeartbeatWriter(tmp_path / "hb.json", metrics_textfile=prom))
        tracer.event(
            "parallel.round", round=2, upto=30, costs={0: 5.0, 1: 3.0},
            done=[1], best=1,
        )
        text = prom.read_text(encoding="utf-8")
        parsed = parse_prometheus(text)
        assert parsed['repro_chain_cost{chain="0",run_id="r1"}'] == 5.0
        assert parsed['repro_chain_done{chain="1",run_id="r1"}'] == 1.0
        assert "repro_chains_" not in text


class TestAtomicity:
    def test_reader_never_sees_partial_json(self, tmp_path):
        """A writer hammering beats while a reader polls: every read either
        returns None (no file yet) or parses as a complete document."""
        path = tmp_path / "hb.json"
        # A long sticky field makes a torn write easy to catch.
        tracer = started(HeartbeatWriter(path), run_id="race", circuit="x" * 4096)
        stop = threading.Event()
        errors = []

        def pound():
            step = 0
            while not stop.is_set():
                step += 1
                tracer.event("anneal.temperature", step=step)

        thread = threading.Thread(target=pound)
        thread.start()
        try:
            seen = 0
            while seen < 200:
                try:
                    doc = read_heartbeat(path)
                except (json.JSONDecodeError, ValueError) as exc:
                    errors.append(exc)
                    break
                if doc is not None:
                    seen += 1
                    if doc["run_id"] != "race" or len(doc["circuit"]) != 4096:
                        errors.append(f"partial document: {doc}")
                        break
        finally:
            stop.set()
            thread.join()
        assert not errors


class TestHeartbeatSink:
    """The writer as a tracer sink: each beat comes from a flow event,
    and the run log folds back to the same beats."""

    def _traced(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.json")
        return writer, closing(
            Tracer([writer, FileSink(str(tmp_path / "trace.jsonl"))])
        )

    def _ring(self, tmp_path):
        return BeatReader(tmp_path).poll()

    def test_stage_span_beats_and_sets_sticky_stage(self, tmp_path):
        writer, tracer = self._traced(tmp_path)
        with tracer.span("stage1", chains=4):
            doc = read_heartbeat(tmp_path / "hb.json")
            assert doc["phase"] == "flow"
            assert doc["status"] == "stage1"
            assert doc["stage"] == "stage1"
            assert doc["chains"] == 4
            # The sticky stage rides on later beats too.
            tracer.event("anneal.temperature", step=0, T=9.0)
            doc = read_heartbeat(tmp_path / "hb.json")
            assert doc["phase"] == "anneal" and doc["stage"] == "stage1"

    def test_one_flow_beat_per_stage_change(self, tmp_path):
        _, tracer = self._traced(tmp_path)
        with tracer.span("flow"):
            with tracer.span("stage1", chains=1):
                with tracer.span("anneal"):
                    pass
            with tracer.span("stage1.legalize"):
                pass
            with tracer.span("stage2", passes=3):
                with tracer.span("stage2.pass", index=0):
                    pass
        ring = self._ring(tmp_path)
        assert [b["phase"] for b in ring] == ["flow", "flow"]
        assert [b["status"] for b in ring] == ["stage1", "stage2"]
        assert ring[1]["passes"] == 3 and "chains" not in ring[1]

    def test_anneal_beat_carries_only_its_fields(self, tmp_path):
        _, tracer = self._traced(tmp_path)
        tracer.set_context(trace_span="ab12")
        tracer.event(
            "anneal.temperature", step=2, T=5.0, attempts=40, accepts=8,
            acceptance=0.2, cost=11.0, moves_per_sec=900.0, c1=6.0, c2=5.0,
            c2_raw=2.5, c3=0.0, window_x=3.0, alpha=0.9, eta_steps=7,
            eta_seconds=1.4,
        )
        (beat,) = self._ring(tmp_path)
        fields = set(beat) - {"v", "run_id", "phase", "seq", "updated", "final"}
        assert fields == {
            "step", "T", "acceptance", "cost", "c1", "c2", "c3",
            "eta_steps", "eta_seconds",
        }
        assert beat["phase"] == "anneal" and beat["eta_steps"] == 7

    def test_router_phase_beats(self, tmp_path):
        _, tracer = self._traced(tmp_path)
        with tracer.span("router.route"):
            with tracer.span("router.phase1", nets=120):
                for i in range(120):
                    tracer.event("router.net", net=f"n{i}")
            tracer.event(
                "router.interchange", nets_routed=118, unrouted=2,
                overflow=3, total_length=456.7,
            )
        ring = self._ring(tmp_path)
        assert {b["phase"] for b in ring} == {"route"}
        assert {b["nets_total"] for b in ring} == {120}
        # The opening beat, one every 120 // 50 = 2 nets, the closing one.
        assert [b["nets_done"] for b in ring] == (
            [0] + list(range(2, 121, 2)) + [120]
        )
        assert ring[-1]["overflow"] == 3
        assert ring[-1]["total_length"] == 456.7
        assert "overflow" not in ring[-2]

    def test_router_without_nets_opens_no_phase(self, tmp_path):
        _, tracer = self._traced(tmp_path)
        with tracer.span("router.phase1", nets=0):
            pass
        assert self._ring(tmp_path) == []

    def test_parallel_round_beat(self, tmp_path):
        _, tracer = self._traced(tmp_path)
        tracer.event("run.start", run_id="r1", anchor=tracer.anchor)
        tracer.event(
            "parallel.round", round=2, upto=30, costs={0: 5.0, 1: 3.0},
            done=[1], best=1,
        )
        live = read_heartbeat(tmp_path / "hb.json")
        _, beat = self._ring(tmp_path)
        assert beat == live  # int chain ids survive the log's JSON
        assert beat["phase"] == "parallel"
        assert (beat["round"], beat["upto"]) == (2, 30)
        assert beat["best"] == 1 and beat["cost"] == 3.0
        assert beat["chains"] == {
            "0": {"cost": 5.0, "done": False},
            "1": {"cost": 3.0, "done": True},
        }

    def test_chain_tagged_events_never_beat(self, tmp_path):
        _, tracer = self._traced(tmp_path)
        with tracer.span("coordinator"):
            tracer.ingest(
                [
                    {"ev": "span_begin", "name": "stage1", "t": 0.0, "span": 1},
                    {"ev": "event", "name": "anneal.temperature", "t": 0.1,
                     "span": 1, "step": 0, "T": 1.0},
                    {"ev": "span_begin", "name": "router.phase1", "t": 0.2,
                     "span": 2, "parent": 1, "nets": 4},
                    {"ev": "event", "name": "router.net", "t": 0.3, "span": 2},
                ],
                chain=0,
            )
        assert self._ring(tmp_path) == []
        assert read_heartbeat(tmp_path / "hb.json") is None

    def test_other_events_never_beat(self, tmp_path):
        _, tracer = self._traced(tmp_path)
        with tracer.span("stage2.pass", index=0):
            tracer.event("stage1.result", teil=1.0)
            tracer.event("anneal.cost_drift", value=0.0, step=1)
        assert self._ring(tmp_path) == []


class TestLifecycleEvents:
    @pytest.mark.parametrize(
        "status, fields, phase",
        [
            ("ok", {"teil": 5.0, "chip_area": 9.0}, "done"),
            ("truncated", {"teil": 5.0}, "done"),
            ("interrupted", {"checkpoint": "ckpt/x.ckpt"}, "interrupted"),
            ("failed", {"error": "ValueError"}, "failed"),
        ],
    )
    def test_run_end_is_the_final_beat(self, tmp_path, status, fields, phase):
        run = FakeRun(tmp_path)
        run.end(status, **fields)
        beat = read_heartbeat(tmp_path / "heartbeat.json")
        assert beat["phase"] == phase and beat["final"] is True
        assert beat["status"] == status
        assert {k: beat[k] for k in fields} == fields

    def test_start_beat_anchors_updated(self, tmp_path):
        run = FakeRun(tmp_path, run_id="r9", circuit="fix")
        run.anneal(step=1)
        start, anneal = BeatReader(tmp_path).poll()
        assert (start["phase"], start["command"], start["run_id"]) == (
            "start", "place", "r9",
        )
        assert start["circuit"] == "fix"
        (anneal_event,) = [
            e for e in map(json.loads, run.log.read_text().splitlines())
            if e["name"] == "anneal.temperature"
        ]
        assert anneal["updated"] == round(run.tracer.anchor + anneal_event["t"], 6)


class TestHistoryRing:
    """The beat history: the run log, folded back into beats."""

    def test_every_beat_lands_in_the_ring(self, tmp_path):
        run = FakeRun(tmp_path)
        snapshots = [read_heartbeat(tmp_path / "heartbeat.json")]
        for step in range(5):
            run.anneal(step=step)
            snapshots.append(read_heartbeat(tmp_path / "heartbeat.json"))
        beats = BeatReader(tmp_path).poll()
        assert beats == snapshots
        assert [b["seq"] for b in beats] == [1, 2, 3, 4, 5, 6]
        assert [b.get("step") for b in beats] == [None, 0, 1, 2, 3, 4]

    def test_ring_path_derivation(self, tmp_path):
        """Each attempt's log is one past the newest; a ``--trace`` name
        in the rundir is used only while no attempt has written it."""
        assert attempt_log(tmp_path).name == "trace-attempt-01.jsonl"
        (tmp_path / "trace-attempt-01.jsonl").write_text("")
        assert attempt_log(tmp_path).name == "trace-attempt-02.jsonl"
        assert attempt_log(tmp_path, tmp_path / "trace.jsonl").name == "trace.jsonl"
        (tmp_path / "trace.jsonl").write_text("")
        assert attempt_log(tmp_path, tmp_path / "trace.jsonl").name == (
            "trace-attempt-02.jsonl"
        )
        assert attempt_log(tmp_path, tmp_path / "elsewhere" / "trace.jsonl").name == (
            "trace-attempt-02.jsonl"
        )

    def test_since_seq_and_limit_filters(self, tmp_path):
        from repro.obs.fleet import Fleet

        run = FakeRun(tmp_path / "run-a", run_id="run-a")
        for step in range(5):
            run.anneal(step=step)
        fleet = Fleet(tmp_path)
        assert [b["seq"] for b in fleet.history("run-a", since_seq=4)] == [5, 6]
        assert [b["seq"] for b in fleet.history("run-a", limit=2)] == [5, 6]
        assert [
            b["seq"] for b in fleet.history("run-a", since_seq=2, limit=2)
        ] == [5, 6]

    def test_torn_final_line_skipped_mid_file_corruption_raises(self, tmp_path):
        from repro.telemetry.report import load_events

        run = FakeRun(tmp_path)
        run.anneal(step=1)
        with open(run.log, "a", encoding="utf-8") as handle:
            handle.write('{"ev": "event", "torn')
        assert [b["seq"] for b in BeatReader(tmp_path).poll()] == [1, 2]
        assert len(load_events(run.log)) == 2
        run.log.write_text('{"ev": "event", "bad\n{"ev": "event"}\n', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            load_events(run.log)

    def test_missing_ring_reads_empty(self, tmp_path):
        assert BeatReader(tmp_path / "absent").poll() == []
        assert BeatReader(tmp_path).poll() == []


class TestReadRetry:
    def test_vanished_file_is_retried_then_none(self, tmp_path, monkeypatch):
        import time as time_module

        sleeps = []
        monkeypatch.setattr(time_module, "sleep", sleeps.append)
        assert read_heartbeat(tmp_path / "hb.json", retries=2) is None
        assert len(sleeps) == 2  # both retries waited before giving up

    def test_mid_replace_enoent_recovers(self, tmp_path, monkeypatch):
        """A reader that hits the ENOENT window of a non-atomic replace
        sees the document on retry, not a crash or a spurious None."""
        from pathlib import Path

        path = tmp_path / "hb.json"
        started(HeartbeatWriter(path)).event("anneal.temperature", step=7)
        real_read_text = Path.read_text
        failures = {"left": 2}

        def flaky_read_text(self, *args, **kwargs):
            if self == path and failures["left"] > 0:
                failures["left"] -= 1
                raise FileNotFoundError(str(self))
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", flaky_read_text)
        doc = read_heartbeat(path, retries=2, retry_delay=0.001)
        assert doc is not None and doc["step"] == 7
        assert failures["left"] == 0

    def test_concurrent_writer_never_breaks_readers(self, tmp_path):
        """A watch-style reader polling the snapshot and the log while a
        writer beats as fast as it can must never see a torn document, a
        seq going backwards, or a beat out of order."""
        run = FakeRun(tmp_path, run_id="race2")
        stop = threading.Event()
        errors = []

        def pound():
            step = 0
            while not stop.is_set():
                run.anneal(step=step)
                step += 1

        reader = BeatReader(tmp_path)
        thread = threading.Thread(target=pound)
        thread.start()
        try:
            reads = 0
            last_seq = 0
            folded = 0
            while reads < 300:
                doc = read_heartbeat(tmp_path / "heartbeat.json")
                if doc is None:
                    continue
                reads += 1
                if doc["seq"] < last_seq:
                    errors.append(f"seq went backwards: {doc['seq']}")
                    break
                last_seq = doc["seq"]
                for beat in reader.poll():
                    folded += 1
                    if beat["seq"] != folded:
                        errors.append(f"log beat {beat['seq']} at {folded}")
                        break
        except Exception as exc:  # noqa: BLE001 - the assertion target
            errors.append(exc)
        finally:
            stop.set()
            thread.join()
        assert not errors


class TestFoldRoundTrip:
    def test_two_chain_run_folds_the_same_from_json(self):
        """Every event of a two-chain run, JSON round-tripped as the run
        log stores it, folds to the same beats as the live events."""
        from dataclasses import replace

        from repro import TimberWolfConfig, place_and_route
        from repro.config import ParallelConfig

        from ..conftest import make_macro_circuit

        memory = MemorySink()
        tracer = Tracer(memory)
        tracer.event("run.start", run_id="r1", anchor=tracer.anchor)
        config = replace(
            TimberWolfConfig.smoke(seed=3),
            parallel=ParallelConfig(workers=1, chains=2, exchange_period=2),
        )
        place_and_route(make_macro_circuit(), config, tracer=tracer)
        live = fold_beats(memory.events)
        logged = fold_beats(
            json.loads(json.dumps(e, default=str)) for e in memory.events
        )
        assert any(b["phase"] == "parallel" for b in live)
        assert json.loads(json.dumps(logged)) == json.loads(json.dumps(live))
        for beat in logged:
            if beat["phase"] == "parallel":
                assert beat["cost"] is not None
        assert any(
            c["done"] for b in logged if b["phase"] == "parallel"
            for c in b["chains"].values()
        )
