"""Tracer, sink, and span semantics."""

import json

import pytest

from repro.telemetry import (
    NULL_TRACER,
    FileSink,
    MemorySink,
    NullSink,
    Tracer,
    current_tracer,
    use_tracer,
)


class TestSinks:
    def test_null_sink_disables_tracer(self):
        tracer = Tracer(NullSink())
        assert not tracer.enabled

    def test_default_tracer_is_disabled(self):
        assert not Tracer().enabled

    def test_memory_sink_collects(self):
        mem = MemorySink()
        tracer = Tracer(mem)
        assert tracer.enabled
        tracer.event("hello", x=1)
        assert len(mem.events) == 1
        assert mem.events[0]["name"] == "hello"
        assert mem.events[0]["x"] == 1

    def test_memory_sink_limit(self):
        mem = MemorySink(limit=2)
        tracer = Tracer(mem)
        for i in range(5):
            tracer.event("e", i=i)
        assert len(mem.events) == 2
        assert mem.dropped == 3

    def test_file_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = FileSink(str(path))
        tracer = Tracer(sink)
        tracer.event("a", n=1)
        tracer.event("g", value=2.5)
        sink.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        assert events[0]["name"] == "a"
        assert events[1]["ev"] == "event"
        assert events[1]["value"] == 2.5

    def test_file_sink_close_idempotent(self, tmp_path):
        sink = FileSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()
        with pytest.raises(ValueError):
            sink.emit({"ev": "event"})

    def test_multiple_sinks_fan_out(self):
        a, b = MemorySink(), MemorySink()
        tracer = Tracer([a, b])
        tracer.event("x")
        assert len(a.events) == len(b.events) == 1

    def test_add_remove_sink(self):
        tracer = Tracer()
        mem = MemorySink()
        tracer.add_sink(mem)
        assert tracer.enabled
        tracer.event("x")
        tracer.remove_sink(mem)
        assert not tracer.enabled
        tracer.event("y")
        assert [e["name"] for e in mem.events] == ["x"]


class TestNullNoOp:
    def test_disabled_tracer_emits_nothing_and_spans_yield(self):
        tracer = Tracer()
        with tracer.span("outer") as handle:
            assert handle is None
            tracer.event("e")
        # nothing to assert on output — the contract is simply no error
        assert not tracer.enabled

    def test_null_tracer_is_current_by_default(self):
        assert current_tracer() is NULL_TRACER


class TestSpans:
    def test_span_begin_end_pair(self):
        mem = MemorySink()
        tracer = Tracer(mem)
        with tracer.span("work", tag="t"):
            pass
        begin, end = mem.events
        assert begin["ev"] == "span_begin" and end["ev"] == "span_end"
        assert begin["name"] == end["name"] == "work"
        assert begin["span"] == end["span"]
        assert begin["tag"] == "t"
        assert end["ok"] is True
        assert end["wall_s"] >= 0.0
        assert end["cpu_s"] >= 0.0

    def test_nesting_records_parent(self):
        mem = MemorySink()
        tracer = Tracer(mem)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("leaf")
        begins = {e["name"]: e for e in mem.events if e["ev"] == "span_begin"}
        assert "parent" not in begins["outer"]
        assert begins["inner"]["parent"] == outer.span_id
        leaf = next(e for e in mem.events if e.get("name") == "leaf")
        assert leaf["span"] == inner.span_id

    def test_span_ids_unique(self):
        mem = MemorySink()
        tracer = Tracer(mem)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [e["span"] for e in mem.events if e["ev"] == "span_begin"]
        assert len(set(ids)) == 2

    def test_exception_safe_exit(self):
        mem = MemorySink()
        tracer = Tracer(mem)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        end = mem.events[-1]
        assert end["ev"] == "span_end"
        assert end["ok"] is False
        assert end["error"] == "RuntimeError"
        # The stack unwound: a new span is again a root span.
        with tracer.span("after"):
            pass
        after_begin = next(e for e in mem.events if e.get("name") == "after")
        assert "parent" not in after_begin

    def test_events_tag_enclosing_span(self):
        mem = MemorySink()
        tracer = Tracer(mem)
        tracer.event("outside")
        with tracer.span("s") as handle:
            tracer.event("inside", value=3)
        outside = mem.events[0]
        inside = next(e for e in mem.events if e.get("name") == "inside")
        assert "span" not in outside
        assert inside["span"] == handle.span_id
        assert inside["value"] == 3


class TestUseTracer:
    def test_install_and_restore(self):
        tracer = Tracer(MemorySink())
        assert current_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_nested_installation(self):
        t1, t2 = Tracer(MemorySink()), Tracer(MemorySink())
        with use_tracer(t1):
            with use_tracer(t2):
                assert current_tracer() is t2
            assert current_tracer() is t1


class TestIngest:
    def batch(self):
        """A producer-side trace: one span with a nested event."""
        sink = MemorySink()
        producer = Tracer(sink)
        with producer.span("anneal"):
            producer.event("anneal.temperature", step=0, cost=1.0)
        producer.event("loose")
        return sink.events

    def test_disabled_tracer_ignores_batches(self):
        Tracer().ingest(self.batch(), chain=1)  # must not raise

    def test_span_ids_remapped_per_batch(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.ingest(self.batch(), chain=0)
        tracer.ingest(self.batch(), chain=1)
        spans = [
            e["span"] for e in sink.events if e.get("ev") == "span_begin"
        ]
        assert len(spans) == len(set(spans)) == 2

    def test_batch_attaches_to_open_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("stage1") as handle:
            tracer.ingest(self.batch(), chain=2)
        begin = next(e for e in sink.events if e.get("name") == "anneal")
        loose = next(e for e in sink.events if e.get("name") == "loose")
        assert begin["parent"] == handle.span_id
        assert loose["span"] == handle.span_id

    def test_extra_fields_stamped_on_every_event(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.ingest(self.batch(), chain=7)
        assert all(e["chain"] == 7 for e in sink.events)

    def test_producer_timestamps_preserved_as_t_origin(self):
        batch = self.batch()
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.ingest(batch)
        for source, merged in zip(batch, sink.events):
            assert merged["t_origin"] == source["t"]
            assert merged["t"] >= 0

    def test_unknown_parent_dropped(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.ingest(
            [{"ev": "span_begin", "name": "orphan", "t": 0.0, "span": 9,
              "parent": 4}]
        )
        assert "parent" not in sink.events[0]

    def test_three_worker_batches_with_overlapping_span_ids(self):
        """Three chains ship batches whose producer span ids all collide
        (every fresh producer tracer starts at id 1); the merged stream
        must keep the chains apart and well-formed."""
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("stage1"):
            for chain in range(3):
                tracer.ingest(self.batch(), chain=chain)
        begins = [
            e
            for e in sink.events
            if e.get("ev") == "span_begin" and e.get("name") == "anneal"
        ]
        assert len(begins) == 3
        # Every batch got fresh ids despite identical producer ids.
        ids = [e["span"] for e in begins]
        assert len(set(ids)) == 3
        # Each chain's nested event points at its own remapped span.
        for chain in range(3):
            begin = next(e for e in begins if e["chain"] == chain)
            temp = next(
                e
                for e in sink.events
                if e.get("name") == "anneal.temperature" and e["chain"] == chain
            )
            assert temp["span"] == begin["span"]
        # The merged trace resolves into per-chain paths under stage1.
        from repro.telemetry.report import span_paths

        paths = span_paths(sink.events)
        assert sorted(paths[i] for i in ids) == ["stage1/anneal"] * 3


class TestFlushOnSpanClose:
    def test_trace_on_disk_complete_after_span_close(self, tmp_path):
        """Closing a span flushes every sink: the on-disk JSONL is
        readable up to that point without closing the tracer."""
        path = tmp_path / "trace.jsonl"
        handle = open(path, "w", encoding="utf-8", buffering=1 << 20)
        sink = FileSink(handle, flush_every=10_000)
        tracer = Tracer(sink)
        with tracer.span("stage1"):
            tracer.event("anneal.temperature", step=0)
        events = [
            json.loads(line) for line in path.read_text().strip().splitlines()
        ]
        assert [e["ev"] for e in events] == ["span_begin", "event", "span_end"]
        handle.close()

    def test_closed_sinks_not_flushed(self, tmp_path):
        """A span closing after Tracer sinks are replaced must not touch
        a closed file (flush is only sent to enabled sinks)."""
        sink = FileSink(str(tmp_path / "t.jsonl"))
        tracer = Tracer([sink, NullSink()])
        with tracer.span("s"):
            pass  # flush on close: NullSink is skipped, FileSink written
        sink.close()
        assert (tmp_path / "t.jsonl").read_text().count("\n") == 2


class TestIngestOutOfOrder:
    """Regression: the span-id remap used to allocate ids lazily in
    event order, so a batch whose child ``span_begin`` preceded its
    parent's remapped the parent reference to a *different* fresh id
    than the parent's own begin event — silently detaching the child."""

    def out_of_order_batch(self):
        """A child's begin arrives before its parent's (a worker that
        buffers per-span and flushes leaf-first)."""
        return [
            {"ev": "span_begin", "name": "child", "t": 0.1, "span": 2,
             "parent": 1},
            {"ev": "span_begin", "name": "parent", "t": 0.0, "span": 1},
            {"ev": "span_end", "name": "child", "t": 0.2, "span": 2,
             "wall_s": 0.1, "cpu_s": 0.1, "ok": True},
            {"ev": "span_end", "name": "parent", "t": 0.3, "span": 1,
             "wall_s": 0.3, "cpu_s": 0.2, "ok": True},
        ]

    def test_parent_link_survives_reordering(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.ingest(self.out_of_order_batch())
        child = next(e for e in sink.events if e.get("name") == "child"
                     and e["ev"] == "span_begin")
        parent = next(e for e in sink.events if e.get("name") == "parent"
                      and e["ev"] == "span_begin")
        assert child["parent"] == parent["span"]

    def test_begin_and_end_agree_despite_reordering(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.ingest(self.out_of_order_batch())
        for name in ("child", "parent"):
            begin = next(e for e in sink.events
                         if e.get("name") == name and e["ev"] == "span_begin")
            end = next(e for e in sink.events
                       if e.get("name") == name and e["ev"] == "span_end")
            assert begin["span"] == end["span"]

    def test_reordered_child_not_reparented_to_ambient(self):
        """Under an open coordinator span, only true roots attach to it;
        a child that merely arrived early keeps its own parent."""
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("stage1") as handle:
            tracer.ingest(self.out_of_order_batch())
        child = next(e for e in sink.events if e.get("name") == "child"
                     and e["ev"] == "span_begin")
        parent = next(e for e in sink.events if e.get("name") == "parent"
                      and e["ev"] == "span_begin")
        assert parent["parent"] == handle.span_id
        assert child["parent"] == parent["span"]


class TestContextStamping:
    def test_context_stamped_on_all_event_kinds(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.set_context(trace_id="abc123")
        with tracer.span("flow"):
            tracer.event("e")
            with tracer.span("child"):
                tracer.event("g", value=1.5)
        assert sink.events
        assert all(e["trace_id"] == "abc123" for e in sink.events)

    def test_event_local_field_wins_over_context(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.set_context(trace_id="ambient")
        tracer.event("e", trace_id="explicit")
        assert sink.events[0]["trace_id"] == "explicit"

    def test_none_removes_key(self):
        tracer = Tracer(MemorySink())
        tracer.set_context(trace_id="abc", extra=1)
        tracer.set_context(extra=None)
        assert tracer.context == {"trace_id": "abc"}

    def test_ingested_events_inherit_context(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.set_context(trace_id="abc123")
        producer_sink = MemorySink()
        producer = Tracer(producer_sink)
        with producer.span("anneal"):
            producer.event("anneal.temperature", step=0)
        tracer.ingest(producer_sink.events, chain=0)
        assert all(e["trace_id"] == "abc123" for e in sink.events)
