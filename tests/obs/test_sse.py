"""SSE framing and the run's event stream: every beat folded from the
run log, once, in order."""

import json
import threading

from repro.obs import format_sse, stream_events
from repro.obs.sse import keepalive
from repro.qor import BeatReader

from ..conftest import FakeRun


def parse_frames(raw: bytes):
    """Decode an SSE byte stream into (event, id, payload) tuples."""
    frames = []
    for block in raw.decode("utf-8").split("\n\n"):
        if not block.strip() or block.startswith(":"):
            continue
        event = event_id = None
        data_lines = []
        for line in block.splitlines():
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("id: "):
                event_id = line[len("id: "):]
            elif line.startswith("data: "):
                data_lines.append(line[len("data: "):])
        frames.append((event, event_id, json.loads("\n".join(data_lines))))
    return frames


class TestFormat:
    def test_frame_shape(self):
        frame = format_sse({"a": 1}, event="beat", event_id="7")
        assert frame == b'event: beat\nid: 7\ndata: {"a":1}\n\n'

    def test_plain_data_frame(self):
        assert format_sse({"a": 1}) == b'data: {"a":1}\n\n'

    def test_keepalive_is_a_comment(self):
        assert keepalive().startswith(b":")


class TestTailer:
    def test_beats_in_order_exactly_once(self, tmp_path):
        run = FakeRun(tmp_path)
        for step in range(4):
            run.anneal(step=step)
        reader = BeatReader(tmp_path)
        seqs = [b["seq"] for b in reader.poll()]
        assert seqs == [1, 2, 3, 4, 5]
        assert reader.poll() == []  # nothing new
        run.anneal(step=5)
        assert [b["seq"] for b in reader.poll()] == [6]

    def test_since_seq_resumes_mid_stream(self, tmp_path):
        run = FakeRun(tmp_path)
        for step in range(3):
            run.anneal(step=step)
        run.end()
        raw = b"".join(stream_events(tmp_path, timeout=5.0, since_seq=2))
        seqs = [f[2]["seq"] for f in parse_frames(raw) if f[0] != "stage"]
        assert seqs == [3, 4, 5]

    def test_empty_rundir_polls_empty(self, tmp_path):
        assert BeatReader(tmp_path).poll() == []

    def test_torn_final_ring_line_is_tolerated(self, tmp_path):
        """A torn last log line is left for the next poll, which folds
        it once the writer completes it."""
        run = FakeRun(tmp_path)
        run.anneal(step=1)
        line = json.dumps({"ev": "event", "name": "anneal.temperature", "t": 1.0,
                           "step": 2})
        with open(run.log, "a", encoding="utf-8") as handle:
            handle.write(line[:20])  # writer mid-append
        reader = BeatReader(tmp_path)
        assert [b["seq"] for b in reader.poll()] == [1, 2]
        with open(run.log, "a", encoding="utf-8") as handle:
            handle.write(line[20:] + "\n")
        (beat,) = reader.poll()
        assert (beat["seq"], beat["step"]) == (3, 2)


class TestStreamEvents:
    def test_stage_beat_final_sequence(self, tmp_path):
        run = FakeRun(tmp_path)
        run.stage("stage1")
        run.anneal(step=0)
        run.anneal(step=1)
        run.end()
        raw = b"".join(stream_events(tmp_path, timeout=5.0))
        frames = parse_frames(raw)
        kinds = [f[0] for f in frames]
        # stage on entry, a beat per heartbeat, stage on change, final ends.
        assert kinds == [
            "stage", "beat", "stage", "beat", "stage", "beat", "beat",
            "stage", "final",
        ]
        assert frames[2][2]["stage"] == "stage1"
        assert frames[-1][2]["phase"] == "done"

    def test_max_beats_bounds_the_stream(self, tmp_path):
        run = FakeRun(tmp_path)
        for step in range(10):
            run.anneal(step=step)
        raw = b"".join(stream_events(tmp_path, timeout=5.0, max_beats=3))
        beats = [f for f in parse_frames(raw) if f[0] == "beat"]
        assert len(beats) == 3

    def test_stop_event_unblocks_an_idle_stream(self, tmp_path):
        stop = threading.Event()
        FakeRun(tmp_path).anneal(step=0)
        collected = []

        def consume():
            for frame in stream_events(
                tmp_path, stop=stop, timeout=30.0, poll_interval=0.01
            ):
                collected.append(frame)

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        stop.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_live_writer_is_followed(self, tmp_path):
        """Beats written while the stream is open are delivered."""
        run = FakeRun(tmp_path)

        def produce():
            for step in range(1, 4):
                run.anneal(step=step)
            run.end()

        thread = threading.Thread(target=produce)
        frames_raw = []
        stream = stream_events(tmp_path, timeout=10.0, poll_interval=0.01)
        frames_raw.append(next(stream))  # stage frame for 'start'
        thread.start()
        frames_raw.extend(f for f in stream if f is not None)
        thread.join()
        frames = parse_frames(b"".join(frames_raw))
        seqs = [f[2]["seq"] for f in frames if f[0] in ("beat", "final")]
        assert seqs == [1, 2, 3, 4, 5]
        assert frames[-1][0] == "final"
