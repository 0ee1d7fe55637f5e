"""Per-net routing fan-out: pooled results must equal serial routing."""

import multiprocessing as mp
import signal

import pytest

from repro import MemorySink, Tracer, use_tracer
from repro.parallel.routing import _init_worker
from repro.routing import GlobalRouter
from repro.routing import router as router_module

from ..routing.test_router import routed_setup


def route(workers, seed=0, m=6):
    circuit, graph = routed_setup()
    router = GlobalRouter(graph, m_routes=m, seed=seed, workers=workers)
    return router.route(circuit)


class TestPoolIdentity:
    def test_pooled_result_equals_serial(self):
        serial = route(workers=1)
        pooled = route(workers=2)
        assert pooled.routes == serial.routes
        assert pooled.lengths == serial.lengths
        assert pooled.total_length == serial.total_length
        assert pooled.overflow == serial.overflow
        assert pooled.unrouted == serial.unrouted
        assert pooled.interchange.selection == serial.interchange.selection

    def test_pooled_alternatives_equal_serial(self):
        serial = route(workers=1)
        pooled = route(workers=3)
        assert set(pooled.alternatives) == set(serial.alternatives)
        for net in serial.alternatives:
            assert [a.length for a in pooled.alternatives[net]] == [
                a.length for a in serial.alternatives[net]
            ]
            assert [a.edges for a in pooled.alternatives[net]] == [
                a.edges for a in serial.alternatives[net]
            ]

    def test_worker_count_does_not_matter(self):
        results = [route(workers=w) for w in (2, 3, 4)]
        assert all(r.routes == results[0].routes for r in results)
        assert all(r.total_length == results[0].total_length for r in results)


class TestEvents:
    def trace(self, workers):
        sink = MemorySink()
        circuit, graph = routed_setup()
        with use_tracer(Tracer(sink)):
            GlobalRouter(graph, m_routes=6, seed=0, workers=workers).route(circuit)
        return sink.events

    def test_per_net_events_match_serial_order(self):
        serial = [
            (e["name"], e.get("net"))
            for e in self.trace(1)
            if e.get("name", "").startswith("router.")
        ]
        pooled = [
            (e["name"], e.get("net"))
            for e in self.trace(2)
            if e.get("name", "").startswith("router.")
        ]
        assert pooled == serial


class TestFailingNets:
    """A net whose search raises takes the same degrade ladder in the
    pool as in the serial router: the full M, then M // 2, then give up."""

    def route_with_faults(self, monkeypatch, workers):
        if workers > 1 and "fork" not in mp.get_all_start_methods():
            pytest.skip("pool workers inherit the patch only when forked")
        circuit, graph = routed_setup()
        groups = GlobalRouter(graph).build_pin_groups(circuit)
        # n1 fails at the full M only (retried), n3 at every M (failed).
        broken = {"n1": 6, "n3": None}
        real = router_module.m_shortest_routes

        def flaky(search, net_groups, m, positions=None):
            for net, at_m in broken.items():
                if net_groups == groups[net] and at_m in (None, m):
                    raise RuntimeError(f"search for {net} broke at M={m}")
            return real(search, net_groups, m, positions=positions)

        monkeypatch.setattr(router_module, "m_shortest_routes", flaky)
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            result = GlobalRouter(
                graph, m_routes=6, seed=0, workers=workers
            ).route(circuit)
        per_net = ("router.net_retried", "router.net_failed", "router.net")
        events = [
            (e["name"], e.get("net"), e.get("error"), e.get("alternatives"))
            for e in sink.events
            if e.get("name") in per_net
        ]
        return result, events

    def test_pool_degrades_like_the_serial_router(self, monkeypatch):
        serial, serial_events = self.route_with_faults(monkeypatch, 1)
        pooled, pooled_events = self.route_with_faults(monkeypatch, 2)
        assert set(serial.retried) == {"n1"}
        assert set(serial.failed) == {"n3"}
        assert serial.unrouted == ["n3"]
        assert pooled.retried == serial.retried
        assert pooled.failed == serial.failed
        assert pooled.unrouted == serial.unrouted
        assert pooled_events == serial_events
        assert [name for name, *_ in serial_events].count("router.net") == 4


class TestValidation:
    def test_workers_must_be_positive(self):
        _, graph = routed_setup()
        with pytest.raises(ValueError):
            GlobalRouter(graph, workers=0)


def _probe_signals(_):
    return (
        signal.getsignal(signal.SIGTERM) is signal.SIG_DFL,
        signal.getsignal(signal.SIGINT) is signal.SIG_IGN,
    )


class TestWorkerSignalHygiene:
    def test_forked_workers_drop_inherited_handlers(self):
        """Workers forked under the flow's SIGINT/SIGTERM trap must not
        inherit it: a worker whose SIGTERM handler only sets the
        coordinator's flag survives ``Pool.terminate()`` and deadlocks
        the parent's unbounded join at pool teardown."""
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        handler = lambda signum, frame: None  # noqa: E731
        old_term = signal.signal(signal.SIGTERM, handler)
        old_int = signal.signal(signal.SIGINT, handler)
        try:
            ctx = mp.get_context("fork")
            with ctx.Pool(
                processes=1, initializer=_init_worker, initargs=(None, [])
            ) as pool:
                term_default, int_ignored = pool.apply(_probe_signals, (None,))
        finally:
            signal.signal(signal.SIGTERM, old_term)
            signal.signal(signal.SIGINT, old_int)
        assert term_default, "worker kept the inherited SIGTERM handler"
        assert int_ignored, "worker should ignore SIGINT"
