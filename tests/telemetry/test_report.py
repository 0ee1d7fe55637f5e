"""The trace -> diagnostic-tables report generator."""

import json

import pytest

from repro.telemetry import MemorySink, Tracer
from repro.telemetry.report import (
    acceptance_table,
    cost_table,
    load_events,
    main,
    span_paths,
    span_tree,
    stage_summary,
    walk_spans,
    write_report,
)


def synthetic_trace():
    """A minimal but structurally faithful flow trace."""
    return [
        {"ev": "span_begin", "name": "flow", "t": 0.0, "span": 1},
        {"ev": "span_begin", "name": "stage1", "t": 0.0, "span": 2, "parent": 1},
        {"ev": "span_begin", "name": "anneal", "t": 0.1, "span": 3, "parent": 2},
        {
            "ev": "event", "name": "anneal.temperature", "t": 0.2, "span": 3,
            "step": 0, "T": 1000.0, "attempts": 100, "accepts": 90,
            "acceptance": 0.9, "cost": 500.0, "moves_per_sec": 1000.0,
            "c1": 400.0, "c2": 80.0, "c3": 20.0, "window_x": 50.0, "window_y": 40.0,
        },
        {
            "ev": "event", "name": "anneal.temperature", "t": 0.3, "span": 3,
            "step": 1, "T": 900.0, "attempts": 100, "accepts": 70,
            "acceptance": 0.7, "cost": 450.0, "moves_per_sec": 1100.0,
            "c1": 380.0, "c2": 50.0, "c3": 20.0, "window_x": 45.0, "window_y": 36.0,
        },
        {"ev": "span_end", "name": "anneal", "t": 0.4, "span": 3,
         "wall_s": 0.3, "cpu_s": 0.25, "ok": True},
        {"ev": "event", "name": "stage1.result", "t": 0.4, "span": 2,
         "teil": 123.0, "chip_area": 456.0},
        {"ev": "span_end", "name": "stage1", "t": 0.5, "span": 2,
         "wall_s": 0.5, "cpu_s": 0.4, "ok": True},
        {"ev": "span_end", "name": "flow", "t": 0.6, "span": 1,
         "wall_s": 0.6, "cpu_s": 0.5, "ok": True},
    ]


class TestSpanPaths:
    def test_paths_join_parents(self):
        paths = span_paths(synthetic_trace())
        assert paths[1] == "flow"
        assert paths[2] == "flow/stage1"
        assert paths[3] == "flow/stage1/anneal"


def nodes_by_path(events):
    return {node["path"]: node for _, node in walk_spans(span_tree(events))}


class TestSpanTreeSelfTimes:
    def test_self_times_sum_to_the_root(self):
        nodes = nodes_by_path(synthetic_trace())
        assert nodes["flow/stage1/anneal"]["self_s"] == 0.3
        assert nodes["flow/stage1"]["self_s"] == pytest.approx(0.2, abs=1e-12)
        total = sum(node["self_s"] for node in nodes.values())
        assert abs(total - nodes["flow"]["wall_s"]) <= 1e-9

    def test_unclosed_span_has_no_self_time(self):
        """A run killed inside ``flow``: the open span has no self time,
        and its closed children keep theirs, in the tree and the summary."""
        events = synthetic_trace()[:-1]
        nodes = nodes_by_path(events)
        assert nodes["flow"]["end"] is None
        assert nodes["flow"]["self_s"] is None
        assert nodes["flow/stage1"]["self_s"] == pytest.approx(0.2, abs=1e-12)
        _, rows = stage_summary(events)
        assert [r[0] for r in rows] == ["flow/stage1", "flow/stage1/anneal"]

    def test_failed_span_keeps_its_self_time(self):
        events = synthetic_trace()[:-1] + [
            {"ev": "span_begin", "name": "stage2", "t": 0.5, "span": 4,
             "parent": 1},
            {"ev": "span_end", "name": "stage2", "t": 0.55, "span": 4,
             "wall_s": 0.05, "cpu_s": 0.05, "ok": False, "error": "ValueError"},
            {"ev": "span_end", "name": "flow", "t": 0.6, "span": 1,
             "wall_s": 0.6, "cpu_s": 0.5, "ok": False},
        ]
        nodes = nodes_by_path(events)
        failed = nodes["flow/stage2"]
        assert failed["ok"] is False and failed["error"] == "ValueError"
        assert failed["self_s"] == 0.05
        assert nodes["flow"]["self_s"] == pytest.approx(0.05, abs=1e-12)

    def test_overlapping_ingested_chains_floor_the_parent_at_zero(self):
        """Chains run in parallel workers are ingested under ``stage1``:
        their walls sum past the coordinator's, whose self time is 0."""
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("stage1"):
            for chain in range(2):
                tracer.ingest(
                    [
                        {"ev": "span_begin", "name": "anneal", "t": 0.0,
                         "span": 1},
                        {"ev": "span_end", "name": "anneal", "t": 30.0,
                         "span": 1, "wall_s": 30.0, "cpu_s": 30.0, "ok": True},
                    ],
                    chain=chain,
                )
        (stage1,) = span_tree(sink.events)
        assert stage1["wall_s"] < 60.0
        assert stage1["self_s"] == 0.0
        assert [c["self_s"] for c in stage1["children"]] == [30.0, 30.0]
        assert [c["path"] for c in stage1["children"]] == ["stage1/anneal"] * 2


class TestAcceptanceTable:
    def test_rows_per_temperature(self):
        headers, rows = acceptance_table(synthetic_trace())
        assert "acceptance" in headers
        assert len(rows) == 2
        assert rows[0][headers.index("T")] == 1000.0
        assert rows[1][headers.index("acceptance")] == 0.7
        assert rows[0][headers.index("phase")] == "flow/stage1/anneal"


class TestCostTable:
    def test_components_present(self):
        headers, rows = cost_table(synthetic_trace())
        assert headers[3:7] == ["cost", "c1", "c2", "c3"]
        assert rows[0][3] == 500.0
        assert rows[1][4] == 380.0


class TestStageSummary:
    def test_aggregates_by_path(self):
        headers, rows = stage_summary(synthetic_trace())
        by_stage = {r[0]: r for r in rows}
        assert by_stage["flow"][1] == 1
        assert by_stage["flow/stage1/anneal"][2] == 0.3
        assert by_stage["flow/stage1"][3] == 0.4  # cpu_s
        assert all(r[4] == 0 for r in rows)  # no failures

    def test_self_time_is_the_last_column(self):
        headers, rows = stage_summary(synthetic_trace())
        assert headers == ["stage", "calls", "wall_s", "cpu_s", "failed", "self_s"]
        self_s = {r[0]: r[-1] for r in rows}
        assert self_s == {
            "flow": 0.1, "flow/stage1": 0.2, "flow/stage1/anneal": 0.3,
        }

    def test_failed_span_counted(self):
        events = synthetic_trace()
        events.append(
            {"ev": "span_begin", "name": "bad", "t": 0.7, "span": 9}
        )
        events.append(
            {"ev": "span_end", "name": "bad", "t": 0.8, "span": 9,
             "wall_s": 0.1, "cpu_s": 0.1, "ok": False, "error": "ValueError"}
        )
        _, rows = stage_summary(events)
        bad = next(r for r in rows if r[0] == "bad")
        assert bad[4] == 1

    def test_text_table_prints_times_to_a_tenth_of_a_millisecond(self):
        from repro.telemetry.report import render_text

        events = [
            {"ev": "span_begin", "name": "short", "t": 0.0, "span": 1},
            {"ev": "span_end", "name": "short", "t": 0.0123, "span": 1,
             "wall_s": 0.0123, "cpu_s": 0.0121, "ok": True},
        ]
        from types import SimpleNamespace

        from repro.flow.report import stage_timing_report

        for text in (
            render_text(events),
            stage_timing_report(SimpleNamespace(trace_events=events)),
        ):
            row = next(
                line for line in text.splitlines()
                if line.lstrip().startswith("short")
            )
            # wall_s, cpu_s and self_s; the call count stays an integer.
            assert row.split() == [
                "short", "1", "0.0123", "0.0121", "0", "0.0123",
            ]


class TestArtifacts:
    def test_write_report_produces_csv_and_text(self, tmp_path):
        written = write_report(synthetic_trace(), tmp_path)
        assert set(written) == {
            "acceptance_vs_temperature.csv",
            "cost_vs_iteration.csv",
            "stage_costs.csv",
            "stage_summary.csv",
            "chains.csv",
            "report.txt",
        }
        acc = (tmp_path / "acceptance_vs_temperature.csv").read_text()
        assert acc.count("\n") == 3  # header + 2 rows
        text = (tmp_path / "report.txt").read_text()
        assert "Fig. 3/5" in text and "Table 4" in text

    def test_load_events_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = synthetic_trace()
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        assert load_events(path) == events
        assert load_events(events) == events

    def test_cli_main(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in synthetic_trace()) + "\n"
        )
        out_dir = tmp_path / "out"
        assert main([str(path), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "report.txt").exists()
        captured = capsys.readouterr()
        assert "acceptance ratio vs temperature" in captured.out

    def test_cli_empty_trace_fails(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 1


class TestTruncatedTrace:
    def test_truncated_final_line_skipped(self, tmp_path):
        """A crashed run's trace can end mid-line; the reader recovers
        everything before the torn tail."""
        events = synthetic_trace()
        text = "\n".join(json.dumps(e) for e in events)
        path = tmp_path / "t.jsonl"
        path.write_text(text[: len(text) - 20])  # cut the last line short
        loaded = load_events(path)
        assert loaded == events[:-1]

    def test_trailing_blank_lines_ignored(self, tmp_path):
        events = synthetic_trace()
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in events) + "\n\n\n"
        )
        assert load_events(path) == events

    def test_mid_file_corruption_still_raises(self, tmp_path):
        """Only the *final* line may be torn; garbage earlier in the
        file is real corruption and must not be silently dropped."""
        import pytest

        events = synthetic_trace()
        lines = [json.dumps(e) for e in events]
        lines[2] = lines[2][:10]  # corrupt a middle line
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            load_events(path)


class TestNoAnnealEvents:
    def headless_trace(self):
        """A trace with spans and flow checkpoints but no annealing."""
        return [
            {"ev": "span_begin", "name": "flow", "t": 0.0, "span": 1},
            {"ev": "event", "name": "stage1.result", "t": 0.1, "span": 1,
             "teil": 9.0, "chip_area": 10.0},
            {"ev": "span_end", "name": "flow", "t": 0.2, "span": 1,
             "wall_s": 0.2, "cpu_s": 0.1, "ok": True},
        ]

    def test_render_text_degrades_with_note(self):
        from repro.telemetry.report import render_text

        text = render_text(self.headless_trace())
        assert "no annealing events" in text
        assert "Table 4" in text  # stage summary still renders
        assert "Fig. 3/5" not in text  # acceptance table omitted

    def test_render_text_full_trace_has_no_note(self):
        from repro.telemetry.report import render_text

        assert "no annealing events" not in render_text(synthetic_trace())

    def test_cli_survives_headless_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in self.headless_trace()) + "\n"
        )
        assert main([str(path)]) == 0
        assert "no annealing events" in capsys.readouterr().out


class TestBatchedMoverTrace:
    """The report layer on a real batched-mover stage-1 trace: per-kind
    move counters land in the trace, and the attempt totals reconcile
    with the engine's ``moves_per_iteration`` scaling."""

    @classmethod
    def trace(cls):
        if not hasattr(cls, "_trace"):
            from dataclasses import replace

            from repro import TimberWolfConfig
            from repro.placement import run_stage1
            from repro.telemetry import MemorySink, Tracer, use_tracer

            from ..conftest import make_macro_circuit

            cls._config = replace(
                TimberWolfConfig.smoke(seed=3), core="array", mover="batched"
            )
            cls._circuit = make_macro_circuit()
            sink = MemorySink()
            with use_tracer(Tracer(sink)):
                run_stage1(cls._circuit, cls._config)
            cls._trace = sink.events
        return cls._trace

    def move_counters(self):
        event = next(
            e for e in self.trace() if e.get("name") == "stage1.move_metrics"
        )
        return event["counters"]

    def test_per_kind_counters_present(self):
        from repro.placement.batch import BATCH_KINDS

        counters = self.move_counters()
        for kind in BATCH_KINDS:
            assert f"moves.{kind}.attempts" in counters
            assert f"moves.{kind}.accepts" in counters
            assert counters[f"moves.{kind}.accepts"] <= (
                counters[f"moves.{kind}.attempts"]
            )

    def test_kind_attempts_sum_to_temperature_attempts(self):
        from repro.placement.batch import BATCH_KINDS

        counters = self.move_counters()
        by_kind = sum(
            counters[f"moves.{kind}.attempts"] for kind in BATCH_KINDS
        )
        by_temperature = sum(
            e["attempts"]
            for e in self.trace()
            if e.get("name") == "anneal.temperature"
        )
        assert by_kind == by_temperature > 0

    def test_moves_per_iteration_reconciles(self):
        """The engine scales the inner loop by the batched
        ``moves_per_iteration`` (ceil(N/batch) batches per A_c unit):
        the anneal span advertises exactly A_c * ceil(N/batch) inner
        steps, and each temperature's attempts fit inside that many
        batches."""
        config = self._config
        n = len(self._circuit.cells)
        mpi = max(1, -(-n // config.batch_moves))
        anneal = next(
            e for e in self.trace()
            if e.get("ev") == "span_begin" and e.get("name") == "anneal"
        )
        assert anneal["inner_moves"] == config.attempts_per_cell * mpi
        steps = [
            e for e in self.trace() if e.get("name") == "anneal.temperature"
        ]
        assert steps
        ceiling = anneal["inner_moves"] * config.batch_moves
        assert all(0 < e["attempts"] <= ceiling for e in steps)

    def test_acceptance_table_covers_batched_steps(self):
        headers, rows = acceptance_table(self.trace())
        steps = [
            e for e in self.trace() if e.get("name") == "anneal.temperature"
        ]
        assert len(rows) == len(steps)
        acc = headers.index("acceptance")
        assert all(0.0 <= row[acc] <= 1.0 for row in rows)

    def test_render_text_handles_batched_trace(self):
        from repro.telemetry.report import render_text

        text = render_text(self.trace())
        assert "acceptance" in text
