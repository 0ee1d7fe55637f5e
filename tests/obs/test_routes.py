"""The HTTP route layer, exercised without binding a socket."""

import json

from repro.obs import handle_request
from repro.obs.fleet import Fleet
from repro.qor import parse_prometheus

from .test_fleet import make_rundir


def get(fleet, path, query=None):
    return handle_request(fleet, path, query or {})


def get_json(fleet, path, query=None):
    response = get(fleet, path, query)
    return response.status, json.loads(response.body.decode("utf-8"))


class TestBasics:
    def test_index_lists_endpoints(self, tmp_path):
        status, doc = get_json(Fleet(tmp_path), "/")
        assert status == 200
        assert "/runs" in doc["endpoints"]
        assert "/metrics" in doc["endpoints"]

    def test_healthz(self, tmp_path):
        status, doc = get_json(Fleet(tmp_path), "/healthz")
        assert status == 200 and doc["ok"] is True

    def test_unknown_route_404s_as_json(self, tmp_path):
        status, doc = get_json(Fleet(tmp_path), "/nope")
        assert status == 404
        assert doc["status"] == 404


class TestRuns:
    def test_runs_listing(self, tmp_path):
        make_rundir(tmp_path, "run-a", step=1)
        make_rundir(tmp_path, "run-b", status="ok")
        status, doc = get_json(Fleet(tmp_path), "/runs")
        assert status == 200
        assert [r["run_id"] for r in doc["runs"]] == ["run-a", "run-b"]

    def test_run_detail_and_404(self, tmp_path):
        make_rundir(tmp_path, "run-a", step=1)
        fleet = Fleet(tmp_path)
        status, doc = get_json(fleet, "/runs/run-a")
        assert status == 200
        assert doc["heartbeat"]["seq"] == 2
        status, _ = get_json(fleet, "/runs/ghost")
        assert status == 404

    def test_history_with_query(self, tmp_path):
        _, run = make_rundir(tmp_path, "run-a", step=1)
        run.anneal(step=2)
        run.anneal(step=3)
        status, doc = get_json(
            Fleet(tmp_path), "/runs/run-a/history", {"since_seq": "2", "limit": "1"}
        )
        assert status == 200
        assert [b["seq"] for b in doc["history"]] == [4]

    def test_health_route(self, tmp_path):
        make_rundir(tmp_path, "run-a", status="ok")
        status, doc = get_json(Fleet(tmp_path), "/runs/run-a/health")
        assert status == 200
        assert doc["run_id"] == "run-a"
        assert doc["state"] == "done"
        assert "acceptance" in doc and "divergence" in doc


class TestMetrics:
    def test_scrape_page_round_trips(self, tmp_path):
        make_rundir(tmp_path, "run-a", T=50.0, cost=123.5)
        make_rundir(tmp_path, "run-b", T=25.0, cost=99.0)
        response = get(Fleet(tmp_path), "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain; version=0.0.4")
        parsed = parse_prometheus(response.body.decode("utf-8"))
        assert parsed['repro_cost{run_id="run-a"}'] == 123.5
        assert parsed['repro_cost{run_id="run-b"}'] == 99.0
        assert parsed['repro_run_info{phase="anneal",run_id="run-a"}'] == 1.0

    def test_empty_fleet_scrapes_cleanly(self, tmp_path):
        response = get(Fleet(tmp_path), "/metrics")
        assert response.status == 200
        assert parse_prometheus(response.body.decode("utf-8")) == {}


class TestEvents:
    def test_sse_stream_delivers_beats(self, tmp_path):
        _, run = make_rundir(tmp_path, "run-a", step=1)
        run.end()
        response = get(
            Fleet(tmp_path), "/runs/run-a/events", {"timeout": "5"}
        )
        assert response.status == 200
        assert response.content_type == "text/event-stream"
        assert response.headers["Cache-Control"] == "no-cache"
        raw = b"".join(response.stream).decode("utf-8")
        assert "event: beat" in raw
        assert "event: final" in raw

    def test_events_unknown_run_404s(self, tmp_path):
        assert get(Fleet(tmp_path), "/runs/ghost/events").status == 404

    def test_timeout_query_is_clamped(self, tmp_path):
        from repro.obs.routes import MAX_STREAM_SECONDS

        make_rundir(tmp_path, "run-a", status="ok")
        response = get(
            Fleet(tmp_path),
            "/runs/run-a/events",
            {"timeout": str(MAX_STREAM_SECONDS * 100)},
        )
        # The stream still terminates (final beat), proving the huge
        # timeout was accepted without error; the clamp itself is a
        # route-layer detail asserted by draining the stream promptly.
        assert b"event: final" in b"".join(response.stream)
