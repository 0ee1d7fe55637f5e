"""End-to-end telemetry: a traced flow emits the expected event stream
and the per-temperature records reconcile with the engine's own stats."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import (
    FileSink,
    MemorySink,
    TimberWolfConfig,
    Tracer,
    place_and_route,
)
from repro.flow.report import full_report, router_report, stage_timing_report
from repro.telemetry.report import (
    acceptance_table,
    load_events,
    span_paths,
    span_tree,
    stage_summary,
    walk_spans,
    write_report,
)

from ..conftest import make_macro_circuit


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run shared by the assertions below."""
    mem = MemorySink()
    result = place_and_route(
        make_macro_circuit(), TimberWolfConfig.smoke(seed=3), tracer=Tracer(mem)
    )
    return result, mem.events


class TestEventSequence:
    def test_stage_spans_present_in_order(self, traced):
        _, events = traced
        begins = [e["name"] for e in events if e["ev"] == "span_begin"]
        # The flow's skeleton, in execution order.
        for earlier, later in zip(
            ["flow", "stage1", "estimator.determine_core", "anneal",
             "stage1.legalize", "stage2", "channels.define", "router.route"],
            ["stage1", "estimator.determine_core", "anneal", "stage1.legalize",
             "stage2", "channels.define", "router.route", "stage2.refine_anneal"],
        ):
            assert begins.index(earlier) < begins.index(later), (earlier, later)

    def test_span_tree_roots_at_flow(self, traced):
        _, events = traced
        paths = span_paths(events)
        assert "flow" in paths.values()
        assert any(p == "flow/stage1/anneal" for p in paths.values())
        assert any(p.startswith("flow/stage2/stage2.pass") for p in paths.values())

    def test_every_span_closes_ok(self, traced):
        _, events = traced
        begins = {e["span"] for e in events if e["ev"] == "span_begin"}
        ends = {e["span"] for e in events if e["ev"] == "span_end"}
        assert begins == ends
        assert all(e["ok"] for e in events if e["ev"] == "span_end")

    def test_layer_events_present(self, traced):
        _, events = traced
        names = {e["name"] for e in events if e["ev"] == "event"}
        assert {"anneal.temperature", "estimator.sizing_pass",
                "estimator.core_plan", "stage1.setup", "stage1.result",
                "channels.defined", "router.net", "router.interchange",
                "stage2.pass", "stage1.move_metrics"} <= names

    def test_user_sink_and_result_see_same_events(self, traced):
        result, events = traced
        assert result.trace_events == events


def child_coverage(events, names):
    """(name, fraction of the span's wall time its direct child spans
    cover) for every span called one of ``names``."""
    ends = {e["span"]: e for e in events if e["ev"] == "span_end"}
    covered = {}
    for e in events:
        if e["ev"] == "span_begin" and e.get("parent") is not None:
            covered[e["parent"]] = (
                covered.get(e["parent"], 0.0) + ends[e["span"]]["wall_s"]
            )
    return [
        (e["name"], covered.get(e["span"], 0.0) / ends[e["span"]]["wall_s"])
        for e in events
        if e["ev"] == "span_begin" and e["name"] in names
    ]


def flowbench_spans():
    """flowbench/spans.py (not a package), imported by its path."""
    path = Path(__file__).resolve().parents[2] / "flowbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("flowbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Span names timed by flowbench's ``legalize`` and ``compact`` wrappers.
LEGALIZE_SPANS = {
    "stage1.legalize", "stage2.legalize", "stage2.space",
    "stage2.final_legalize", "stage2.compact",
}


def log_layer(path, name):
    """The flowbench layer group a span's self time belongs to (None for
    the flow root's own time, which flowbench does not split)."""
    if name in LEGALIZE_SPANS:
        return "legalize+compact"
    if path == "flow/stage1" or path.startswith("flow/stage1/"):
        return "stage1"
    if "/router.route" in path:
        return "router"
    if name == "stage2.expansions":
        return "density"
    if "/stage2.refine_anneal/anneal" in path:
        return "refine.anneal"
    if path.startswith("flow/stage2"):
        return "stage2+channels"
    return None


#: Each group as a sum of flowbench's outside-in layers.
OUTSIDE_IN = {
    "stage1": ("stage1",),
    "legalize+compact": ("legalize", "compact"),
    "router": ("router.phase1", "router.phase2", "router.route"),
    "density": ("density",),
    "refine.anneal": ("refine.anneal",),
    "stage2+channels": ("stage2", "channels"),
}


class TestSpanCoverage:
    """Stage 2's layer spans add up to their parents, so a trace alone
    says where the time went."""

    @pytest.fixture(scope="class")
    def suite_events(self):
        from repro.bench import load_circuit

        mem = MemorySink()
        place_and_route(
            load_circuit("i3"), TimberWolfConfig.smoke(seed=7),
            tracer=Tracer(mem), collect_trace=False,
        )
        return mem.events

    def test_router_and_pass_spans_are_covered_by_children(self, suite_events):
        coverage = child_coverage(suite_events, {"router.route", "stage2.pass"})
        assert {name for name, _ in coverage} == {"router.route", "stage2.pass"}
        for name, fraction in coverage:
            assert fraction >= 0.95, (name, fraction)

    def test_layer_spans_nest_where_expected(self, suite_events):
        paths = set(span_paths(suite_events).values())
        route = "flow/stage2/stage2.pass/router.route"
        for path in (
            route + "/router.phase1",
            route + "/router.phase2",
            "flow/stage2/stage2.pass/stage2.expansions",
        ):
            assert path in paths, path

    @pytest.fixture(scope="class")
    def batched_events(self):
        from repro.bench import load_circuit

        mem = MemorySink()
        config = replace(TimberWolfConfig.smoke(seed=7), mover="batched")
        place_and_route(
            load_circuit("i1"), config, tracer=Tracer(mem), collect_trace=False
        )
        return mem.events

    def test_batched_stage1_and_refine_anneal_are_covered_by_children(
        self, batched_events
    ):
        """Under ``mover="batched"`` the kernel session's set-up and
        write-back run in child spans too."""
        names = {"stage1", "stage2.refine_anneal"}
        coverage = child_coverage(batched_events, names)
        assert {name for name, _ in coverage} == names
        for name, fraction in coverage:
            assert fraction >= 0.95, (name, fraction)

    @pytest.fixture(
        scope="class",
        params=[{"mover": "batched", "attempts_per_cell": 10}, {}],
        ids=["suite_i1", "serial"],
    )
    def both_ways(self, request):
        """One i1 flow timed twice at once: by its own trace, and from
        outside by flowbench's wrappers (``place_and_route`` as
        ``flow``)."""
        from repro.bench import load_circuit

        spans = flowbench_spans()
        config = replace(TimberWolfConfig.smoke(seed=7), **request.param)
        mem = MemorySink()
        recorder = spans.Recorder()
        flow = recorder.wrap(place_and_route, "flow")
        with spans.traced(recorder):
            flow(
                load_circuit("i1", 7), config,
                tracer=Tracer(mem), collect_trace=False,
            )
        return mem.events, recorder.layer_self_times()

    def test_self_times_match_outside_in_layers(self, both_ways):
        """The log's self times, grouped into six layers, agree with
        flowbench's outside-in self times within max(2 ms, 1%)."""
        events, outside = both_ways
        logged = dict.fromkeys(OUTSIDE_IN, 0.0)
        for _, node in walk_spans(span_tree(events)):
            group = log_layer(node["path"], node["name"])
            if group is not None:
                logged[group] += node["self_s"]
        for group, layers in OUTSIDE_IN.items():
            expected = sum(outside.get(layer, 0.0) for layer in layers)
            assert expected > 0, group
            assert logged[group] == pytest.approx(
                expected, abs=max(0.002, 0.01 * expected)
            ), group

    def test_batched_session_spans_nest_where_expected(self, batched_events):
        paths = set(span_paths(batched_events).values())
        refine = "flow/stage2/stage2.pass/stage2.refine_anneal"
        for path in (
            "flow/stage1/stage1.make_state",
            "flow/stage1/batch.begin",
            "flow/stage1/batch.finish",
            refine + "/batch.begin",
            refine + "/batch.finish",
        ):
            assert path in paths, path
        # i1 is macro-only: its refine runs no pin round.
        assert not any(p.endswith("batch.pin_round") for p in paths)

    def test_batched_pin_rounds_nest_under_the_refine_anneal(self):
        """p1's custom cells give the batched refine one pin round per
        temperature, each its own span inside ``anneal``."""
        from repro.bench import load_circuit

        mem = MemorySink()
        config = replace(TimberWolfConfig.smoke(seed=7), mover="batched")
        result = place_and_route(
            load_circuit("p1"), config, tracer=Tracer(mem), collect_trace=False
        )
        rounds = [
            path for path in span_paths(mem.events).values()
            if path.endswith("/batch.pin_round")
        ]
        refine = "flow/stage2/stage2.pass/stage2.refine_anneal"
        assert set(rounds) == {refine + "/anneal/batch.pin_round"}
        assert len(rounds) == sum(
            p.anneal.num_temperatures for p in result.refinement.passes
        )


class TestAcceptanceReconciliation:
    def test_per_temperature_events_match_engine_counts(self, traced):
        result, events = traced
        paths = span_paths(events)
        stage1_events = [
            e for e in events
            if e.get("name") == "anneal.temperature"
            and paths.get(e.get("span")) == "flow/stage1/anneal"
        ]
        steps = result.stage1.anneal.steps
        assert len(stage1_events) == len(steps)
        for ev, step in zip(stage1_events, steps):
            assert ev["attempts"] == step.attempts
            assert ev["accepts"] == step.accepts
            assert ev["acceptance"] == pytest.approx(
                step.acceptance_rate, abs=1e-4
            )
            # T is rounded to 6 decimals on the wire.
            assert ev["T"] == pytest.approx(step.temperature, abs=1e-6)

    def test_snapshot_fields_present(self, traced):
        _, events = traced
        ev = next(e for e in events if e.get("name") == "anneal.temperature")
        for key in ("c1", "c2", "c2_raw", "c3", "window_x", "window_y",
                    "cost", "moves_per_sec"):
            assert key in ev, key

    def test_move_metrics_reconcile_with_attempts(self, traced):
        result, events = traced
        metrics = next(
            e for e in events if e.get("name") == "stage1.move_metrics"
        )
        counters = metrics["counters"]
        total_attempts = sum(
            v for k, v in counters.items() if k.endswith(".attempts")
        )
        assert total_attempts == result.stage1.anneal.total_attempts
        total_accepts = sum(
            v for k, v in counters.items() if k.endswith(".accepts")
        )
        assert total_accepts == result.stage1.anneal.total_accepts


class TestRecordKinds:
    def test_trace_holds_spans_and_events_only(self, tmp_path):
        """Every record of a traced flow is a span boundary or an event,
        the drift audit's readings included."""
        path = tmp_path / "run.jsonl"
        tracer = Tracer(FileSink(str(path)))
        config = replace(TimberWolfConfig.smoke(seed=3), drift_check_every=5)
        place_and_route(
            make_macro_circuit(), config, tracer=tracer, collect_trace=False
        )
        tracer.close()
        events = load_events(path)
        assert {e["ev"] for e in events} == {"span_begin", "span_end", "event"}
        drift = [e for e in events if e["name"] == "anneal.cost_drift"]
        assert drift
        for event in drift:
            assert {"value", "step", "c1", "c2_raw", "c3"} <= set(event)


class TestFileTraceRoundTrip:
    def test_jsonl_trace_feeds_report(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(FileSink(str(path)))
        result = place_and_route(
            make_macro_circuit(), TimberWolfConfig.smoke(seed=5), tracer=tracer
        )
        tracer.close()
        events = load_events(path)
        assert events, "trace file is empty"
        # Every line is valid JSON (load_events parsed it) and the report
        # regenerates the acceptance and stage tables.
        _, acc_rows = acceptance_table(events)
        stage1_steps = len(result.stage1.anneal.steps)
        assert len(acc_rows) >= stage1_steps
        _, stage_rows = stage_summary(events)
        stages = {r[0] for r in stage_rows}
        assert "flow" in stages and "flow/stage1" in stages
        written = write_report(events, tmp_path / "out")
        assert (tmp_path / "out" / "report.txt").exists()
        acc_csv = written["acceptance_vs_temperature.csv"].read_text()
        assert acc_csv.count("\n") == len(acc_rows) + 1


class TestDisabledTelemetry:
    def test_collect_trace_false_disables(self):
        result = place_and_route(
            make_macro_circuit(),
            TimberWolfConfig.smoke(seed=3),
            collect_trace=False,
        )
        assert result.trace_events is None

    def test_report_stable_when_disabled(self):
        result = place_and_route(
            make_macro_circuit(),
            TimberWolfConfig.smoke(seed=3),
            collect_trace=False,
        )
        text = full_report(result)
        for marker in ("router / channel definition", "stage timings",
                       "annealing trace"):
            assert marker in text
        assert "telemetry disabled" in stage_timing_report(result)
        # Router stats come from the stored refinement passes.
        assert "overflow" in router_report(result)

    def test_disabled_and_default_runs_agree(self):
        """Telemetry must not perturb the annealing (same seed, same result)."""
        kwargs = dict(config=TimberWolfConfig.smoke(seed=9))
        a = place_and_route(make_macro_circuit(), collect_trace=False, **kwargs)
        b = place_and_route(make_macro_circuit(), **kwargs)
        assert a.teil == b.teil
        assert a.placement() == b.placement()


class TestDefaultCollection:
    def test_default_run_carries_trace(self):
        result = place_and_route(
            make_macro_circuit(), TimberWolfConfig.smoke(seed=3)
        )
        assert result.trace_events
        report = full_report(result)
        assert "flow/stage1" in report  # stage timings rendered from trace

    def test_trace_events_are_json_serializable(self):
        result = place_and_route(
            make_macro_circuit(), TimberWolfConfig.smoke(seed=3)
        )
        json.dumps(result.trace_events)


class TestProfilingHook:
    def test_no_profile_events_without_flag(self):
        mem = MemorySink()
        place_and_route(
            make_macro_circuit(), TimberWolfConfig.smoke(seed=3),
            tracer=Tracer(mem),
        )
        assert not [e for e in mem.events if e.get("name") == "profile"]
