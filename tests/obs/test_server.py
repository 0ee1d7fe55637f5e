"""The observability server over real HTTP: sockets, threads, SSE."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import ObsServer
from repro.qor import parse_prometheus

from .test_fleet import make_rundir


@pytest.fixture
def served(tmp_path):
    """An ObsServer on an ephemeral port over a two-run root."""
    make_rundir(tmp_path, "run-live", step=1, T=50.0, cost=10.0)
    make_rundir(tmp_path, "run-done", status="ok")
    with ObsServer(tmp_path, port=0).start() as server:
        yield server, tmp_path


def fetch(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers, response.read()


class TestHTTP:
    def test_runs_listing(self, served):
        server, _ = served
        status, _, body = fetch(server.url + "/runs")
        assert status == 200
        runs = {r["run_id"]: r for r in json.loads(body)["runs"]}
        assert runs["run-live"]["state"] == "running"
        assert runs["run-done"]["state"] == "done"

    def test_metrics_scrape(self, served):
        server, _ = served
        status, headers, body = fetch(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        parsed = parse_prometheus(body.decode("utf-8"))
        assert parsed['repro_cost{run_id="run-live"}'] == 10.0

    def test_404_is_json(self, served):
        server, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(server.url + "/runs/ghost")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["status"] == 404

    def test_concurrent_requests(self, served):
        server, _ = served
        errors = []

        def hit():
            try:
                assert fetch(server.url + "/runs")[0] == 200
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert errors == []


class TestSSEOverHTTP:
    def test_stream_delivers_live_beats(self, tmp_path):
        """An SSE client sees beats written *after* it connected."""
        _, run = make_rundir(tmp_path, "run-live", step=1, T=50.0)
        server = ObsServer(tmp_path, port=0).start()
        url = server.url + "/runs/run-live/events?timeout=10"
        chunks = []
        connected = threading.Event()

        def consume():
            with urllib.request.urlopen(url, timeout=15.0) as response:
                connected.set()
                while True:
                    chunk = response.read(1)
                    if not chunk:
                        return
                    chunks.append(chunk)

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        try:
            assert connected.wait(timeout=10.0)
            run.anneal(step=2, T=40.0)
            run.end()
            thread.join(timeout=15.0)
            assert not thread.is_alive()
        finally:
            server.close()
        raw = b"".join(chunks).decode("utf-8")
        assert "event: beat" in raw
        assert "event: final" in raw
        assert '"T":40.0' in raw.replace(" ", "")

    def test_close_unblocks_open_streams(self, tmp_path):
        make_rundir(tmp_path, "run-live", step=1)
        server = ObsServer(tmp_path, port=0).start()
        url = server.url + "/runs/run-live/events?timeout=300"
        got_headers = threading.Event()

        def consume():
            try:
                with urllib.request.urlopen(url, timeout=30.0) as response:
                    got_headers.set()
                    response.read()
            except Exception:
                got_headers.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        assert got_headers.wait(timeout=10.0)
        server.close()  # stop_event must end the stream, not hang
        thread.join(timeout=10.0)
        assert not thread.is_alive()
