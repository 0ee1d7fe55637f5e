"""The queue-event journal: append, tail, torn lines, SSE frames.

The journal is read through the same :class:`JsonlTailer` as a run's
log; these tests pin the tailer's contract on the journal's lines."""

import threading

from repro.service import EventLog, read_events
from repro.service.events import stream_job_events
from repro.telemetry import JsonlTailer


class TestEmitAndRead:
    def test_round_trip(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("job_submitted", "j1", tenant="alice")
        log.emit("job_start", "j1", attempt=1)
        events = read_events(log.path)
        assert [e["event"] for e in events] == ["job_submitted", "job_start"]
        assert events[0]["tenant"] == "alice"
        assert all("ts" in e for e in events)

    def test_filter_by_job(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("job_start", "j1")
        log.emit("job_start", "j2")
        log.emit("job_done", "j1")
        assert [e["event"] for e in read_events(log.path, job_id="j1")] == [
            "job_start",
            "job_done",
        ]

    def test_limit_keeps_newest(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        for i in range(5):
            log.emit("e", "j", n=i)
        assert [e["n"] for e in read_events(log.path, limit=2)] == [3, 4]

    def test_missing_file(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []

    def test_torn_trailing_line_skipped(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("ok", "j1")
        with open(log.path, "ab") as handle:
            handle.write(b'{"event": "torn", "job_')  # no newline: mid-crash
        assert [e["event"] for e in read_events(log.path)] == ["ok"]

    def test_garbage_line_skipped(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("ok", "j1")
        with open(log.path, "ab") as handle:
            handle.write(b"not json at all\n")
        log.emit("after", "j1")
        assert [e["event"] for e in read_events(log.path)] == ["ok", "after"]


class TestTailer:
    def test_yields_only_new_events(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("before")
        tailer = JsonlTailer(log.path, from_start=False)
        assert tailer.poll() == []
        log.emit("after")
        assert [e["event"] for e in tailer.poll()] == ["after"]
        assert list(tailer.poll()) == []

    def test_from_start(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("first")
        tailer = JsonlTailer(log.path, from_start=True)
        assert [e["event"] for e in tailer.poll()] == ["first"]

    def test_torn_line_completes_across_polls(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        tailer = JsonlTailer(log.path, from_start=True)
        with open(log.path, "ab") as handle:
            handle.write(b'{"event": "sp')
        assert list(tailer.poll()) == []
        with open(log.path, "ab") as handle:
            handle.write(b'lit"}\n')
        assert [e["event"] for e in tailer.poll()] == ["split"]

    def test_truncation_restarts(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("one")
        tailer = JsonlTailer(log.path, from_start=True)
        list(tailer.poll())
        log.path.write_bytes(b"")
        assert list(tailer.poll()) == []  # shrink observed: cursor resets
        log.emit("fresh")
        assert [e["event"] for e in tailer.poll()] == ["fresh"]

    def test_missing_file_tolerated(self, tmp_path):
        tailer = JsonlTailer(tmp_path / "nope.jsonl")
        assert list(tailer.poll()) == []


class TestSseStream:
    def test_frames_carry_event_names(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("job_submitted", "j1")
        log.emit("job_done", "j1")
        frames = list(
            stream_job_events(
                log.path, from_start=True, max_events=2, timeout=2.0,
                poll_interval=0.01,
            )
        )
        assert frames[0].startswith(b"event: job_submitted\n")
        assert frames[1].startswith(b"event: job_done\n")
        assert b'"job_id":"j1"' in frames[0].replace(b" ", b"")

    def test_job_filter(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("a", "j1")
        log.emit("b", "j2")
        frames = list(
            stream_job_events(
                log.path, from_start=True, job_id="j2", max_events=1,
                timeout=2.0, poll_interval=0.01,
            )
        )
        assert len(frames) == 1
        assert frames[0].startswith(b"event: b\n")

    def test_stop_event_ends_stream(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        stop = threading.Event()
        stop.set()
        frames = list(
            stream_job_events(log.path, stop=stop, timeout=5.0)
        )
        assert frames == []
