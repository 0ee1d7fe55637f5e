"""Heartbeat files: atomic writes, throttling, and the tracer sink that
turns flow events into beats."""

import json
import threading

import pytest

from repro.qor import (
    HEARTBEAT_VERSION,
    HeartbeatWriter,
    history_path,
    parse_prometheus,
    read_heartbeat,
    read_history,
)
from repro.telemetry import Tracer


class TestWriter:
    def test_beat_round_trip(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, run_id="r1")
        writer.beat("anneal", step=3, T=100.0)
        doc = read_heartbeat(path)
        assert doc["v"] == HEARTBEAT_VERSION
        assert doc["run_id"] == "r1"
        assert doc["phase"] == "anneal"
        assert doc["seq"] == 1
        assert doc["step"] == 3 and doc["T"] == 100.0
        assert doc["final"] is False
        assert doc["updated"] > 0

    def test_context_merges_and_none_deletes(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path)
        writer.set_context(stage="stage1", circuit="fix")
        writer.beat("anneal")
        assert read_heartbeat(path)["stage"] == "stage1"
        writer.set_context(stage=None)
        writer.beat("anneal")
        doc = read_heartbeat(path)
        assert "stage" not in doc
        assert doc["circuit"] == "fix"

    def test_per_beat_fields_win_over_context(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path)
        writer.set_context(stage="stage1")
        writer.beat("anneal", stage="override")
        assert read_heartbeat(path)["stage"] == "override"

    def test_throttle_skips_fast_same_phase_beats(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, min_interval=3600.0)
        writer.beat("anneal", step=1)
        writer.beat("anneal", step=2)  # throttled
        assert read_heartbeat(path)["step"] == 1
        writer.beat("route")  # phase change always writes
        assert read_heartbeat(path)["phase"] == "route"
        writer.beat("route", final=True, step=9)  # final always writes
        doc = read_heartbeat(path)
        assert doc["final"] is True and doc["step"] == 9

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatWriter(tmp_path / "hb.json", min_interval=-1.0)

    def test_read_missing_is_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "nope.json") is None

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "rundir" / "hb.json"
        HeartbeatWriter(path).beat("start")
        assert read_heartbeat(path)["phase"] == "start"

    def test_metrics_textfile_rendered_per_beat(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        writer = HeartbeatWriter(
            tmp_path / "hb.json", run_id="r1", metrics_textfile=prom
        )
        writer.beat("anneal", T=50.0, cost=123.5)
        parsed = parse_prometheus(prom.read_text(encoding="utf-8"))
        label = '{run_id="r1"}'
        assert parsed["repro_T" + label] == 50.0
        assert parsed["repro_cost" + label] == 123.5


class TestAtomicity:
    def test_reader_never_sees_partial_json(self, tmp_path):
        """A writer hammering beats while a reader polls: every read either
        returns None (no file yet) or parses as a complete document."""
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, run_id="race")
        stop = threading.Event()
        errors = []

        def pound():
            step = 0
            while not stop.is_set():
                step += 1
                # A long field value makes a torn write easy to catch.
                writer.beat("anneal", step=step, pad="x" * 4096)

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
                    if doc["run_id"] != "race" or len(doc["pad"]) != 4096:
                        errors.append(f"partial document: {doc}")
                        break
        finally:
            stop.set()
            thread.join()
        assert not errors


class TestHeartbeatSink:
    """The writer as a tracer sink: each beat comes from a flow event."""

    def _traced(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.json", run_id="r1")
        return writer, Tracer(writer)

    def _ring(self, tmp_path):
        return read_history(history_path(tmp_path / "hb.json"))

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
        tracer.event(
            "parallel.round", round=2, upto=30, costs={0: 5.0, 1: 3.0},
            done=[1], best=1,
        )
        (beat,) = self._ring(tmp_path)
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
            tracer.counter("moves", 5)
            tracer.gauge("T", 1.0)
        assert self._ring(tmp_path) == []


class TestHistoryRing:
    def test_every_beat_lands_in_the_ring(self, tmp_path):
        from repro.qor import history_path, read_history

        writer = HeartbeatWriter(tmp_path / "hb.json", run_id="r1")
        for step in range(5):
            writer.beat("anneal", step=step)
        ring = read_history(history_path(tmp_path / "hb.json"))
        assert [b["seq"] for b in ring] == [1, 2, 3, 4, 5]
        assert [b["step"] for b in ring] == [0, 1, 2, 3, 4]

    def test_ring_path_derivation(self, tmp_path):
        from repro.qor import history_path

        assert (
            history_path(tmp_path / "heartbeat.json").name
            == "heartbeat.history.jsonl"
        )

    def test_compaction_bounds_the_file(self, tmp_path):
        from repro.qor import history_path, read_history

        writer = HeartbeatWriter(
            tmp_path / "hb.json", run_id="r1", history_limit=10
        )
        for step in range(55):
            writer.beat("anneal", step=step)
        ring = read_history(history_path(tmp_path / "hb.json"))
        # Never more than 2*limit lines survive; the newest always do.
        assert len(ring) <= 20
        assert ring[-1]["seq"] == 55
        seqs = [b["seq"] for b in ring]
        assert seqs == sorted(seqs)

    def test_history_limit_zero_disables_the_ring(self, tmp_path):
        from repro.qor import history_path

        writer = HeartbeatWriter(
            tmp_path / "hb.json", run_id="r1", history_limit=0
        )
        writer.beat("anneal", step=1)
        assert not history_path(tmp_path / "hb.json").exists()

    def test_since_seq_and_limit_filters(self, tmp_path):
        from repro.qor import history_path, read_history

        writer = HeartbeatWriter(tmp_path / "hb.json", run_id="r1")
        for step in range(6):
            writer.beat("anneal", step=step)
        ring_path = history_path(tmp_path / "hb.json")
        assert [b["seq"] for b in read_history(ring_path, since_seq=4)] == [5, 6]
        assert [b["seq"] for b in read_history(ring_path, limit=2)] == [5, 6]
        assert [
            b["seq"] for b in read_history(ring_path, since_seq=2, limit=2)
        ] == [5, 6]

    def test_torn_final_line_skipped_mid_file_corruption_raises(self, tmp_path):
        from repro.qor import history_path, read_history

        writer = HeartbeatWriter(tmp_path / "hb.json", run_id="r1")
        writer.beat("anneal", step=1)
        ring_path = history_path(tmp_path / "hb.json")
        with open(ring_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "torn')
        assert [b["seq"] for b in read_history(ring_path)] == [1]
        ring_path.write_text('{"seq": 1, "bad\n{"seq": 2}\n', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_history(ring_path)

    def test_missing_ring_reads_empty(self, tmp_path):
        from repro.qor import read_history

        assert read_history(tmp_path / "absent.jsonl") == []

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatWriter(tmp_path / "hb.json", history_limit=-1)


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
        writer = HeartbeatWriter(path, run_id="r1")
        writer.beat("anneal", step=7)
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
        """Satellite: a watch-style reader polling while a writer beats
        as fast as it can must never see a torn document or crash."""
        from repro.qor import history_path, read_history

        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, run_id="race2", history_limit=16)
        stop = threading.Event()
        errors = []

        def pound():
            step = 0
            while not stop.is_set():
                writer.beat("anneal", step=step, pad="x" * 2048)
                step += 1

        thread = threading.Thread(target=pound)
        thread.start()
        try:
            reads = 0
            last_seq = 0
            while reads < 300:
                doc = read_heartbeat(path)
                if doc is None:
                    continue
                reads += 1
                if doc["seq"] < last_seq:
                    errors.append(f"seq went backwards: {doc['seq']}")
                    break
                last_seq = doc["seq"]
                ring = read_history(history_path(path))
                ring_seqs = [b["seq"] for b in ring]
                if ring_seqs != sorted(ring_seqs):
                    errors.append(f"ring out of order: {ring_seqs}")
                    break
        except Exception as exc:  # noqa: BLE001 - the assertion target
            errors.append(exc)
        finally:
            stop.set()
            thread.join()
        assert not errors
