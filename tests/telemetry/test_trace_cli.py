"""``python -m repro trace show|export`` — the offline trace views."""

import json

import pytest

from repro.__main__ import main

TRACE_ID = "ef" * 16


def trace_events():
    return [
        {"ev": "span_begin", "name": "flow", "t": 0.0, "span": 1,
         "trace_id": TRACE_ID},
        {"ev": "span_begin", "name": "stage1", "t": 0.1, "span": 2,
         "parent": 1, "trace_id": TRACE_ID},
        {"ev": "event", "name": "anneal.temperature", "t": 0.2, "span": 2,
         "T": 100.0, "trace_id": TRACE_ID},
        {"ev": "span_end", "name": "stage1", "t": 0.4, "span": 2,
         "wall_s": 0.3, "cpu_s": 0.2, "ok": True, "trace_id": TRACE_ID},
        {"ev": "span_end", "name": "flow", "t": 0.5, "span": 1,
         "wall_s": 0.5, "cpu_s": 0.3, "ok": True, "trace_id": TRACE_ID},
    ]


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "\n".join(json.dumps(e) for e in trace_events()) + "\n"
    )
    return path


class TestShow:
    def test_tree_nests_and_reports_durations(self, trace_file, capsys):
        assert main(["trace", "show", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert f"trace {TRACE_ID}" in out
        assert "flow  0.500s" in out
        assert "  stage1  0.300s" in out  # indented under flow
        assert "events=1" in out

    def test_show_accepts_a_rundir(self, trace_file, capsys):
        assert main(["trace", "show", str(trace_file.parent)]) == 0
        assert "flow" in capsys.readouterr().out

    def test_waterfall_renders_bars(self, trace_file, capsys):
        assert main(["trace", "show", str(trace_file), "--waterfall"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "|" in out

    def test_missing_trace_exits_1(self, tmp_path, capsys):
        assert main(["trace", "show", str(tmp_path / "nope")]) == 1
        assert "no trace files" in capsys.readouterr().err


def _span(events, span, name, start, wall, parent=None, ok=True):
    events.append({"ev": "span_begin", "name": name, "t": start,
                   "span": span, "parent": parent})
    events.append({"ev": "span_end", "name": name, "t": start + wall,
                   "span": span, "wall_s": wall, "cpu_s": wall, "ok": ok})


@pytest.fixture
def repeated_file(tmp_path):
    """Two passes, each with children (never folded), then three pin
    rounds under one anneal, the second failed, then a different leaf."""
    events = [{"ev": "span_begin", "name": "flow", "t": 0.0, "span": 1}]
    _span(events, 2, "stage2.pass", 0.0, 0.2, parent=1)
    _span(events, 3, "router.route", 0.0, 0.1, parent=2)
    _span(events, 4, "stage2.pass", 0.2, 0.2, parent=1)
    _span(events, 5, "router.route", 0.2, 0.1, parent=4)
    events.append({"ev": "span_begin", "name": "anneal", "t": 0.4,
                   "span": 6, "parent": 1})
    for k, span in enumerate((7, 8, 9)):
        _span(events, span, "batch.pin_round", 0.4 + 0.1 * k, 0.25,
              parent=6, ok=span != 8)
        events.append({"ev": "event", "name": "tick", "t": 0.41 + 0.1 * k,
                       "span": span})
    _span(events, 10, "batch.finish", 0.8, 0.125, parent=6)
    events.append({"ev": "span_end", "name": "anneal", "t": 1.0, "span": 6,
                   "wall_s": 1.0, "cpu_s": 1.0, "ok": True})
    events.append({"ev": "span_end", "name": "flow", "t": 1.5, "span": 1,
                   "wall_s": 1.5, "cpu_s": 1.5, "ok": True})
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    return path


class TestFolding:
    def test_repeated_leaf_siblings_fold(self, repeated_file, capsys):
        assert main(["trace", "show", str(repeated_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rounds = [line for line in lines if "batch.pin_round" in line]
        assert rounds == [
            "    batch.pin_round ×3  0.750s  self 0.750s events=3 FAILED"
        ]
        assert "    batch.finish  0.125s  self 0.125s" in lines

    def test_spans_with_children_never_fold(self, repeated_file, capsys):
        assert main(["trace", "show", str(repeated_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("  stage2.pass  0.200s") == 2
        assert out.count("    router.route  0.100s") == 2
        assert "×" not in out.replace("batch.pin_round ×3", "")

    def test_waterfall_keeps_one_row_per_span(self, repeated_file, capsys):
        assert main(
            ["trace", "show", str(repeated_file), "--waterfall"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("batch.pin_round") == 3
        assert "×" not in out

    def test_batched_pin_rounds_fold_into_one_row(self, tmp_path, capsys):
        """p1 smoke, seed 7, batched: the refine anneal's 38 pin rounds
        print as one row, with the stage summary's wall time for
        their path."""
        from dataclasses import replace

        from repro import FileSink, TimberWolfConfig, Tracer, place_and_route
        from repro.bench import load_circuit
        from repro.obs.trace import trace_document
        from repro.telemetry.report import load_events, stage_summary
        from repro.telemetry.trace_cli import _fold_leaves

        path = tmp_path / "trace.jsonl"
        config = replace(TimberWolfConfig.smoke(seed=7), mover="batched")
        sink = FileSink(path)
        try:
            place_and_route(
                load_circuit("p1"), config, tracer=Tracer(sink),
                collect_trace=False,
            )
        finally:
            sink.close()
        assert main(["trace", "show", str(path)]) == 0
        rounds = [
            line for line in capsys.readouterr().out.splitlines()
            if "batch.pin_round" in line
        ]
        assert len(rounds) == 1
        assert rounds[0].split()[:2] == ["batch.pin_round", "×38"]

        rows = trace_document(path)["processes"][0]["waterfall"]
        (folded,) = [
            r for r in _fold_leaves(rows) if r["name"] == "batch.pin_round"
        ]
        summary = {row[0]: row for row in stage_summary(load_events(path))[1]}
        stage = summary[folded["path"]]
        assert folded["path"].endswith("/stage2.refine_anneal/anneal/batch.pin_round")
        assert (stage[1], stage[2]) == (38, round(folded["wall_s"], 4))
        assert f"{folded['wall_s']:.3f}s" in rounds[0]


class TestExport:
    def test_json_document_round_trips(self, trace_file, capsys):
        assert main(["trace", "export", str(trace_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace_id"] == TRACE_ID
        assert doc["span_count"] == 2
        assert doc["processes"][0]["file"] == "trace.jsonl"

    def test_html_written_to_out(self, trace_file, tmp_path, capsys):
        out = tmp_path / "trace.html"
        assert main(
            ["trace", "export", str(trace_file), "--html",
             "--out", str(out)]
        ) == 0
        html = out.read_text()
        assert TRACE_ID in html and "<html" in html.lower()
