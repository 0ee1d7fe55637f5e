"""MetricsRegistry: counters and snapshots."""

from repro.telemetry import MemorySink, MetricsRegistry, Tracer


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x") is not reg.counter("y")


class TestSnapshot:
    def test_structure_and_sorting(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["b"] == 2

    def test_empty_snapshot_is_empty(self):
        assert MetricsRegistry().snapshot() == {}

    def test_emit_to_tracer(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        mem = MemorySink()
        reg.emit(Tracer(mem), "stats")
        assert mem.events[0]["name"] == "stats"
        assert mem.events[0]["counters"] == {"c": 3}

    def test_emit_noop_when_disabled(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.emit(Tracer())  # must not raise


class TestMoveGeneratorMigration:
    """The per-move-kind stats now live in a MetricsRegistry."""

    def test_stats_view_backed_by_registry(self):
        import random

        from repro.annealing import RangeLimiter
        from repro.bench import CircuitSpec, generate_circuit
        from repro.estimator import determine_core
        from repro.placement import MoveGenerator, PlacementState

        circuit = generate_circuit(
            CircuitSpec(name="m", num_cells=8, num_nets=12, num_pins=30, seed=0)
        )
        state = PlacementState(circuit, determine_core(circuit))
        rng = random.Random(0)
        state.randomize(rng)
        limiter = RangeLimiter(
            full_span_x=state.core.width,
            full_span_y=state.core.height,
            t_infinity=1e4,
        )
        gen = MoveGenerator(state, limiter)
        for _ in range(30):
            gen.step(100.0, rng)
        stats = gen.stats
        assert stats["displace"][0] > 0
        assert stats["displace"][0] >= stats["displace"][1]
        # The registry holds the same series under dotted names.
        snap = gen.metrics.snapshot()["counters"]
        assert snap["moves.displace.attempts"] == stats["displace"][0]
        assert snap["moves.displace.accepts"] == stats["displace"][1]
        # Total attempts across kinds reconcile with the step() returns.
        total = sum(v[0] for v in stats.values())
        assert total >= 30
