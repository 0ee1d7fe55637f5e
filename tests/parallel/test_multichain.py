"""Multi-chain stage-1: determinism, fallback equivalence, exchange."""

import random
from dataclasses import replace

import pytest

from repro import (
    FileSink,
    MemorySink,
    ParallelConfig,
    TimberWolfConfig,
    Tracer,
    place_and_route,
    use_tracer,
)
from repro.bench import load_circuit
from repro.parallel.multichain import run_multichain_stage1
from repro.placement.stage1 import run_stage1
from repro.telemetry.report import load_events, span_paths

from ..conftest import make_macro_circuit


def step_keys(steps):
    """TemperatureStats minus the wall-clock ``seconds`` field — the
    deterministic part of the per-step history."""
    return [(s.temperature, s.attempts, s.accepts, s.cost_after) for s in steps]


def small_config(chains=3, workers=1, exchange_period=4, seed=3):
    return replace(
        TimberWolfConfig.smoke(seed=seed),
        max_temperatures=12,
        parallel=ParallelConfig(
            workers=workers, chains=chains, exchange_period=exchange_period
        ),
    )


@pytest.fixture(scope="module")
def circuit():
    return make_macro_circuit(num_cells=5)


class TestWorkerInvariance:
    def test_result_is_independent_of_worker_count(self, circuit):
        """The acceptance property: fixed (seed, chains, exchange_period)
        gives a bit-identical placement for workers in {1, 2, 3}."""
        reference = None
        for workers in (1, 2, 3):
            result = run_multichain_stage1(
                circuit, small_config(chains=3, workers=workers)
            )
            snapshot = (
                result.state.state_dict(),
                result.anneal.final_cost,
                step_keys(result.anneal.steps),
                result.p2,
            )
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference, f"workers={workers} diverged"

    def test_extra_workers_are_clamped_to_chains(self, circuit):
        a = run_multichain_stage1(circuit, small_config(chains=2, workers=2))
        b = run_multichain_stage1(circuit, small_config(chains=2, workers=8))
        assert a.state.state_dict() == b.state.state_dict()


class TestSerialFallback:
    def test_single_chain_matches_run_stage1(self, circuit):
        """chains=1 must be byte-identical to the classic serial stage 1
        — segmenting the anneal into exchange-period slices is free."""
        config = small_config(chains=1)
        serial = run_stage1(circuit, config, rng=random.Random(config.seed))
        multi = run_multichain_stage1(circuit, config)
        assert serial.state.state_dict() == multi.state.state_dict()
        assert serial.anneal.final_cost == multi.anneal.final_cost
        assert step_keys(serial.anneal.steps) == step_keys(multi.anneal.steps)
        assert serial.anneal.stop_reason == multi.anneal.stop_reason
        assert serial.p2 == multi.p2

    def test_single_chain_never_exchanges(self, circuit):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            run_multichain_stage1(circuit, small_config(chains=1))
        names = [e.get("name") for e in sink.events]
        assert "parallel.exchange" not in names
        assert "parallel.winner" in names


class TestExchange:
    def test_exchange_period_changes_the_result(self, circuit):
        """The exchange is real: a different period yields a different
        trajectory (it is part of the determinism key)."""
        a = run_multichain_stage1(circuit, small_config(exchange_period=3))
        b = run_multichain_stage1(circuit, small_config(exchange_period=6))
        assert a.state.state_dict() != b.state.state_dict()

    def test_winner_has_minimum_cost(self, circuit):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            result = run_multichain_stage1(circuit, small_config())
        rounds = [e for e in sink.events if e.get("name") == "parallel.round"]
        winner = next(e for e in sink.events if e.get("name") == "parallel.winner")
        assert rounds
        final_costs = rounds[-1]["costs"]
        assert winner["cost"] == pytest.approx(min(final_costs.values()))
        assert result.anneal.final_cost == pytest.approx(winner["cost"])

    def test_exchange_events_name_best_and_losers(self, circuit):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            run_multichain_stage1(circuit, small_config(chains=3))
        exchanges = [
            e for e in sink.events if e.get("name") == "parallel.exchange"
        ]
        assert exchanges
        for ev in exchanges:
            assert ev["source"] not in ev["targets"]
            # K=3 restarts at most floor(K/2)=1 loser per round.
            assert 1 <= len(ev["targets"]) <= 1


class TestTraceMerge:
    def test_chain_tags_cover_all_chains(self, circuit):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            run_multichain_stage1(circuit, small_config(chains=2, workers=2))
        temp_chains = {
            e["chain"]
            for e in sink.events
            if e.get("name") == "anneal.temperature"
        }
        assert temp_chains == {0, 1}

    def test_ingested_events_keep_origin_timestamps(self, circuit):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            run_multichain_stage1(circuit, small_config(chains=2))
        ingested = [e for e in sink.events if "t_origin" in e]
        assert ingested
        assert all("chain" in e for e in ingested)


class TestTraceIsolation:
    """Chain set-up emits nothing into the run's trace: a multi-chain
    log holds the coordinator's events and the segments' own, so its
    shape does not depend on ``workers``, and forked workers never write
    into the parent's log with span ids of their own."""

    @staticmethod
    def traced_log(tmp_path, workers):
        config = replace(
            TimberWolfConfig.smoke(seed=3),
            mover="batched",
            parallel=ParallelConfig(workers=workers, chains=2, exchange_period=5),
        )
        path = tmp_path / f"trace-w{workers}.jsonl"
        tracer = Tracer(FileSink(str(path)))
        try:
            place_and_route(
                load_circuit("i1", 3), config, tracer=tracer, collect_trace=False
            )
        finally:
            tracer.close()
        return load_events(path)

    @staticmethod
    def shape(events):
        paths = span_paths(events)
        return [
            (
                e.get("ev"),
                e.get("name"),
                paths.get(e.get("span")),
                e.get("chain"),
                # eta_seconds needs a step longer than the clock's tick.
                sorted(set(e) - {"eta_seconds"}),
            )
            for e in events
        ]

    def test_two_workers_log_like_one(self, tmp_path):
        one = self.traced_log(tmp_path, workers=1)
        two = self.traced_log(tmp_path, workers=2)
        ids = [e["span"] for e in two if e.get("ev") == "span_begin"]
        assert len(ids) == len(set(ids)), "a span id was handed out twice"
        assert self.shape(two) == self.shape(one)
        setup = [e for e in one if e.get("name") == "estimator.determine_core"]
        # Only the coordinator's rebuild of the winner plans the core.
        assert [e.get("chain") for e in setup] == [None, None]
