"""Trace/profile views and routes: span trees, waterfalls, fleet-wide
trace lookup, and the service job gauges on /metrics."""

import json

from repro.obs import handle_request
from repro.obs.fleet import Fleet
from repro.obs.trace import (
    profile_document,
    render_trace_html,
    span_tree,
    trace_document,
    waterfall,
)
from repro.qor import parse_prometheus

TRACE_ID = "aa" * 16


def events_for(trace_id=TRACE_ID, fail=False, unclosed=False):
    """A small two-level trace, optionally failing or crashing."""
    events = [
        {"ev": "span_begin", "name": "flow", "t": 0.0, "span": 1,
         "trace_id": trace_id},
        {"ev": "span_begin", "name": "stage1", "t": 0.1, "span": 2,
         "parent": 1, "trace_id": trace_id},
        {"ev": "event", "name": "anneal.temperature", "t": 0.2, "span": 2,
         "trace_id": trace_id},
    ]
    if not unclosed:
        events += [
            {"ev": "span_end", "name": "stage1", "t": 0.5, "span": 2,
             "wall_s": 0.4, "cpu_s": 0.3, "ok": not fail,
             "trace_id": trace_id},
            {"ev": "span_end", "name": "flow", "t": 0.6, "span": 1,
             "wall_s": 0.6, "cpu_s": 0.5, "ok": True, "trace_id": trace_id},
        ]
    return events


def write_trace(rundir, name="trace.jsonl", **kwargs):
    rundir.mkdir(parents=True, exist_ok=True)
    path = rundir / name
    path.write_text(
        "".join(json.dumps(e) + "\n" for e in events_for(**kwargs)),
        encoding="utf-8",
    )
    return path


def make_traced_rundir(root, name, trace_id=TRACE_ID, **kwargs):
    rundir = root / name
    rundir.mkdir(parents=True, exist_ok=True)
    (rundir / "manifest.json").write_text(
        json.dumps({"run_id": name, "trace_id": trace_id})
    )
    write_trace(rundir, trace_id=trace_id, **kwargs)
    return rundir


class TestSpanTree:
    def test_nesting_and_timing(self):
        roots = span_tree(events_for())
        assert len(roots) == 1
        flow = roots[0]
        assert flow["name"] == "flow" and flow["wall_s"] == 0.6
        (stage1,) = flow["children"]
        assert stage1["name"] == "stage1"
        assert stage1["events"] == 1
        assert stage1["ok"] is True

    def test_unclosed_span_kept_open(self):
        roots = span_tree(events_for(unclosed=True))
        assert roots[0]["end"] is None
        assert roots[0]["children"][0]["ok"] is None

    def test_unknown_parent_becomes_root(self):
        roots = span_tree(
            [{"ev": "span_begin", "name": "x", "t": 0.0, "span": 5,
              "parent": 99}]
        )
        assert [r["name"] for r in roots] == ["x"]


class TestWaterfall:
    def test_rows_depth_first(self):
        rows = waterfall(span_tree(events_for()))
        assert [(r["name"], r["depth"]) for r in rows] == [
            ("flow", 0), ("stage1", 1),
        ]
        assert rows[1]["path"] == "flow/stage1"

    def test_open_span_extended_to_horizon(self):
        events = events_for()[:4]  # stage1 closed, flow never closes
        rows = waterfall(span_tree(events))
        flow = next(r for r in rows if r["name"] == "flow")
        assert flow["open"] is True
        assert flow["end"] == 0.5  # the latest end seen


class TestTraceDocument:
    def test_merges_attempt_files(self, tmp_path):
        rundir = tmp_path / "rd"
        write_trace(rundir, "trace-attempt-01.jsonl", unclosed=True)
        write_trace(rundir, "trace-attempt-02.jsonl")
        doc = trace_document(rundir, run_id="job-1")
        assert doc["run_id"] == "job-1"
        assert doc["trace_id"] == TRACE_ID
        assert [p["file"] for p in doc["processes"]] == [
            "trace-attempt-01.jsonl", "trace-attempt-02.jsonl",
        ]
        assert doc["span_count"] == 4

    def test_no_trace_files_is_none(self, tmp_path):
        (tmp_path / "rd").mkdir()
        assert trace_document(tmp_path / "rd") is None

    def test_html_renders_spans(self, tmp_path):
        rundir = tmp_path / "rd"
        write_trace(rundir)
        html = render_trace_html(trace_document(rundir, run_id="r1"))
        assert "<html>" in html and "trace.jsonl" in html
        assert TRACE_ID in html


class TestProfileDocument:
    def test_reads_collapsed(self, tmp_path):
        rundir = tmp_path / "rd"
        rundir.mkdir()
        (rundir / "profile.collapsed").write_text(
            "m;repro.placement.stage1.run_stage1;hot 9\n"
        )
        doc = profile_document(rundir)
        assert doc["samples"] == 9
        assert doc["stages"]["stage1"]["samples"] == 9
        assert doc["collapsed"].startswith("m;")

    def test_missing_profile_is_none(self, tmp_path):
        (tmp_path / "rd").mkdir()
        assert profile_document(tmp_path / "rd") is None


class TestFindByTrace:
    def test_finds_stamped_rundirs(self, tmp_path):
        make_traced_rundir(tmp_path, "run-a")
        make_traced_rundir(tmp_path, "run-b", trace_id="bb" * 16)
        fleet = Fleet(tmp_path)
        assert [p.name for p in fleet.find_by_trace(TRACE_ID)] == ["run-a"]
        assert [p.name for p in fleet.find_by_trace("aa" * 4)] == ["run-a"]

    def test_short_prefix_rejected(self, tmp_path):
        make_traced_rundir(tmp_path, "run-a")
        assert Fleet(tmp_path).find_by_trace("aa") == []


class TestTraceRoutes:
    def get(self, fleet, path, query=None, service=None):
        return handle_request(fleet, path, query or {}, service=service)

    def test_run_trace_json(self, tmp_path):
        make_traced_rundir(tmp_path, "run-a")
        response = self.get(Fleet(tmp_path), "/runs/run-a/trace")
        doc = json.loads(response.body)
        assert response.status == 200
        assert doc["trace_id"] == TRACE_ID
        assert doc["processes"][0]["waterfall"][0]["name"] == "flow"

    def test_run_trace_html(self, tmp_path):
        make_traced_rundir(tmp_path, "run-a")
        response = self.get(
            Fleet(tmp_path), "/runs/run-a/trace", {"format": "html"}
        )
        assert response.status == 200
        assert response.content_type.startswith("text/html")
        assert b"<html>" in response.body

    def test_run_without_trace_404s(self, tmp_path):
        """A rundir with no run log (recorded before every rundir kept
        one) has no trace to serve."""
        from repro.qor import HeartbeatWriter
        from repro.telemetry import Tracer

        rundir = tmp_path / "run-a"
        rundir.mkdir()
        (rundir / "manifest.json").write_text(json.dumps({"run_id": "run-a"}))
        Tracer(HeartbeatWriter(rundir / "heartbeat.json")).event(
            "anneal.temperature", step=0
        )
        response = self.get(Fleet(tmp_path), "/runs/run-a/trace")
        assert response.status == 404

    def test_run_profile_text_and_json(self, tmp_path):
        rundir = make_traced_rundir(tmp_path, "run-a")
        (rundir / "profile.collapsed").write_text("m;f 3\n")
        fleet = Fleet(tmp_path)
        response = self.get(fleet, "/runs/run-a/profile")
        assert response.status == 200
        assert response.body == b"m;f 3\n"
        assert response.content_type.startswith("text/plain")
        doc = json.loads(
            self.get(fleet, "/runs/run-a/profile", {"format": "json"}).body
        )
        assert doc["samples"] == 3

    def test_run_without_profile_404s(self, tmp_path):
        make_traced_rundir(tmp_path, "run-a")
        assert self.get(Fleet(tmp_path), "/runs/run-a/profile").status == 404

    def test_fleet_trace_merges_runs(self, tmp_path):
        make_traced_rundir(tmp_path, "run-a")
        make_traced_rundir(tmp_path, "run-b")
        make_traced_rundir(tmp_path, "run-c", trace_id="bb" * 16)
        response = self.get(Fleet(tmp_path), f"/trace/{TRACE_ID}")
        doc = json.loads(response.body)
        assert response.status == 200
        assert doc["trace_id"] == TRACE_ID
        assert [r["run_id"] for r in doc["runs"]] == ["run-a", "run-b"]
        assert doc["span_count"] == 4

    def test_fleet_trace_unknown_404s(self, tmp_path):
        response = self.get(Fleet(tmp_path), "/trace/" + "ff" * 16)
        assert response.status == 404

    def test_fleet_trace_html(self, tmp_path):
        make_traced_rundir(tmp_path, "run-a")
        response = self.get(
            Fleet(tmp_path), f"/trace/{TRACE_ID}", {"format": "html"}
        )
        assert response.status == 200
        assert b"<html>" in response.body

    def test_index_advertises_trace_routes(self, tmp_path):
        doc = json.loads(self.get(Fleet(tmp_path), "/").body)
        assert "/runs/<id>/trace" in doc["endpoints"]
        assert "/runs/<id>/profile" in doc["endpoints"]
        assert "/trace/<trace_id>" in doc["endpoints"]


class TestServiceTraceJournal:
    def test_journal_lines_join_the_trace(self, tmp_path, monkeypatch):
        from repro.service import ServicePaths, ServiceView
        from repro.netlist import dumps

        from ..conftest import make_macro_circuit

        circuit = tmp_path / "c.twmc"
        circuit.write_text(dumps(make_macro_circuit()), encoding="utf-8")
        root = tmp_path / "svc"
        with ServiceView(root) as view:
            job = view.submit(circuit)
        assert job.trace_id
        runs_root = ServicePaths(root).root / "runs"
        make_traced_rundir(runs_root, job.job_id, trace_id=job.trace_id)
        response = handle_request(
            Fleet(runs_root), f"/trace/{job.trace_id}", {}, service=root
        )
        doc = json.loads(response.body)
        assert response.status == 200
        assert doc["trace_id"] == job.trace_id
        assert [e["event"] for e in doc["journal"]] == ["job_submitted"]
        assert [r["run_id"] for r in doc["runs"]] == [job.job_id]

    def test_journal_only_trace_still_resolves(self, tmp_path):
        """A queued job has journal lines but no rundir yet."""
        from repro.service import ServiceView
        from repro.netlist import dumps

        from ..conftest import make_macro_circuit

        circuit = tmp_path / "c.twmc"
        circuit.write_text(dumps(make_macro_circuit()), encoding="utf-8")
        root = tmp_path / "svc"
        with ServiceView(root) as view:
            job = view.submit(circuit)
        response = handle_request(
            Fleet(tmp_path / "empty"), f"/trace/{job.trace_id}", {},
            service=root,
        )
        doc = json.loads(response.body)
        assert response.status == 200
        assert doc["runs"] == []
        assert doc["journal"]


class TestJobMetrics:
    def submit_jobs(self, tmp_path, n=2):
        from repro.service import ServiceView
        from repro.netlist import dumps

        from ..conftest import make_macro_circuit

        circuit = tmp_path / "c.twmc"
        circuit.write_text(dumps(make_macro_circuit()), encoding="utf-8")
        root = tmp_path / "svc"
        with ServiceView(root) as view:
            jobs = [view.submit(circuit) for _ in range(n)]
        return root, jobs

    def scrape(self, tmp_path, root):
        response = handle_request(
            Fleet(tmp_path / "runs"), "/metrics", {}, service=root
        )
        assert response.status == 200
        return parse_prometheus(response.body.decode("utf-8"))

    def test_job_state_gauges(self, tmp_path):
        root, _ = self.submit_jobs(tmp_path, n=2)
        parsed = self.scrape(tmp_path, root)
        assert parsed['repro_jobs{state="queued"}'] == 2.0
        assert parsed['repro_jobs{state="running"}'] == 0.0
        assert parsed['repro_jobs{state="done"}'] == 0.0
        assert parsed['repro_jobs{state="dead"}'] == 0.0
        assert parsed['repro_jobs{state="shed"}'] == 0.0

    def test_queue_latency_quantiles(self, tmp_path):
        from repro.service import SqliteJobStore
        from repro.service.worker import ServicePaths as SP

        root, jobs = self.submit_jobs(tmp_path, n=2)
        store = SqliteJobStore(SP(root).registry)
        claimed = store.claim_next("sup-test")
        assert claimed is not None
        store.close()
        parsed = self.scrape(tmp_path, root)
        assert parsed["repro_job_queue_latency_count"] == 1.0
        assert parsed['repro_job_queue_latency_seconds{quantile="0.5"}'] >= 0.0
        assert parsed['repro_job_queue_latency_seconds{quantile="0.95"}'] >= 0.0

    def test_no_started_jobs_exports_nan_latency(self, tmp_path):
        import math

        root, _ = self.submit_jobs(tmp_path, n=1)
        parsed = self.scrape(tmp_path, root)
        assert parsed["repro_job_queue_latency_count"] == 0.0
        assert math.isnan(
            parsed['repro_job_queue_latency_seconds{quantile="0.5"}']
        )

    def test_metrics_without_service_has_no_job_gauges(self, tmp_path):
        response = handle_request(Fleet(tmp_path), "/metrics", {})
        assert b"repro_jobs" not in response.body
