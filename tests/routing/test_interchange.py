"""The phase-two random route interchange (§4.2.2)."""

import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import RouteSelector
from repro.routing.steiner import RouteAlternative


def alt(edges, length):
    edge_set = frozenset(tuple(sorted(e)) for e in edges)
    nodes = frozenset(n for e in edge_set for n in e)
    return RouteAlternative(edge_set, nodes, length)


class TestBookkeeping:
    def test_initial_selection_shortest(self):
        alts = {"a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)]}
        sel = RouteSelector(alts, {(0, 1): 5, (0, 2): 5, (1, 2): 5})
        assert sel.selection == {"a": 0}
        assert sel.total_length == 1.0
        assert sel.overflow == 0

    def test_unsorted_alternatives_rejected(self):
        alts = {"a": [alt([(0, 1)], 2.0), alt([(0, 2)], 1.0)]}
        with pytest.raises(ValueError):
            RouteSelector(alts, {})

    def test_empty_alternatives_rejected(self):
        with pytest.raises(ValueError):
            RouteSelector({"a": []}, {})

    def test_density_tracking(self):
        alts = {
            "a": [alt([(0, 1)], 1.0)],
            "b": [alt([(0, 1)], 1.0)],
        }
        sel = RouteSelector(alts, {(0, 1): 1})
        assert sel.density((0, 1)) == 2
        assert sel.overflow == 1
        assert sel.overflowed_edges() == [(0, 1)]

    def test_uncapacitated_edges_never_overflow(self):
        alts = {
            "a": [alt([(0, 1)], 1.0)],
            "b": [alt([(0, 1)], 1.0)],
        }
        sel = RouteSelector(alts, {(0, 1): None})
        assert sel.overflow == 0

    def test_delta_computation(self):
        alts = {
            "a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)],
            "b": [alt([(0, 1)], 1.0)],
        }
        sel = RouteSelector(alts, {(0, 1): 1, (0, 2): 5, (1, 2): 5})
        d_x, d_len = sel._delta("a", 1)
        assert d_x == -1
        assert d_len == 1.0


class TestIncrementalHotList:
    """The overflowed-edge list kept by ``_install``/``_uninstall`` is the
    sorted list a rebuild from the densities gives."""

    @staticmethod
    def rebuilt(sel):
        return sorted(
            e for e, d in sel._density.items() if sel._edge_overflow(e, d) > 0
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_rebuild_after_random_swaps(self, seed):
        rng = random.Random(seed)
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        caps = {e: rng.choice([None, -1, 0, 1, 1, 2, 3]) for e in edges}
        alts = {}
        for n in range(rng.randint(1, 8)):
            options = sorted(
                (float(rng.randint(1, 4)), rng.sample(edges, rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            )
            alts[f"n{n}"] = [alt(es, length) for length, es in options]
        sel = RouteSelector(alts, caps)
        assert sel.overflowed_edges() == self.rebuilt(sel)
        for _ in range(40):
            net = rng.choice(sorted(alts))
            sel._uninstall(net)
            sel._install(net, rng.randrange(len(alts[net])))
            assert sel.overflowed_edges() == self.rebuilt(sel)
            if all(c is None or c >= 0 for c in caps.values()):
                assert sel.overflow == sum(
                    sel._edge_overflow(e, d) for e, d in sel._density.items()
                )


class TestRun:
    def test_resolves_overflow(self):
        alts = {
            "a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)],
            "b": [alt([(0, 1)], 1.0), alt([(0, 3), (3, 1)], 2.0)],
        }
        caps = {(0, 1): 1, (0, 2): 5, (1, 2): 5, (0, 3): 5, (1, 3): 5}
        sel = RouteSelector(alts, caps)
        assert sel.overflow == 1
        result = sel.run(random.Random(0))
        assert result.overflow == 0
        # Exactly one net was diverted; total length 1 + 2.
        assert result.total_length == 3.0

    def test_already_feasible_converges_immediately(self):
        alts = {"a": [alt([(0, 1)], 1.0)], "b": [alt([(2, 3)], 1.0)]}
        sel = RouteSelector(alts, {(0, 1): 1, (2, 3): 1})
        result = sel.run(random.Random(0))
        assert result.converged_shortest
        assert result.attempts == 0

    def test_stagnation_stops(self):
        # Unresolvable: both nets have only the congested route.
        alts = {
            "a": [alt([(0, 1)], 1.0)],
            "b": [alt([(0, 1)], 1.0)],
        }
        sel = RouteSelector(alts, {(0, 1): 1})
        result = sel.run(random.Random(0), stagnation_limit=10)
        assert result.overflow == 1
        assert not result.converged_shortest

    def test_routes_reflect_selection(self):
        alts = {
            "a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)],
            "b": [alt([(0, 1)], 1.0), alt([(0, 3), (3, 1)], 2.0)],
        }
        caps = {(0, 1): 1, (0, 2): 5, (1, 2): 5, (0, 3): 5, (1, 3): 5}
        sel = RouteSelector(alts, caps)
        sel.run(random.Random(1))
        routes = sel.routes()
        assert set(routes) == {"a", "b"}
        for net, k in sel.selection.items():
            assert routes[net] == alts[net][k].edges

    def test_never_worsens_overflow(self):
        rng = random.Random(2)
        alts = {
            f"n{i}": [
                alt([(0, 1)], 1.0),
                alt([(0, 2), (2, 1)], 2.0),
                alt([(0, 3), (3, 1)], 2.0),
            ]
            for i in range(6)
        }
        caps = {(0, 1): 2, (0, 2): 2, (1, 2): 2, (0, 3): 2, (1, 3): 2}
        sel = RouteSelector(alts, caps)
        history = [sel.overflow]
        for _ in range(50):
            sel.run(rng, stagnation_limit=1)
            history.append(sel.overflow)
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_deterministic_given_seed(self):
        def run(seed):
            alts = {
                "a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)],
                "b": [alt([(0, 1)], 1.0), alt([(0, 3), (3, 1)], 2.0)],
            }
            caps = {(0, 1): 1, (0, 2): 5, (1, 2): 5, (0, 3): 5, (1, 3): 5}
            sel = RouteSelector(alts, caps)
            return sel.run(random.Random(seed)).selection

        assert run(5) == run(5)


class TestZeroDeltaSwaps:
    """An accepted swap with dX = 0 and dL = 0 leaves L and X unchanged,
    so it counts toward the M * N stagnation limit."""

    @pytest.fixture
    def alarm(self):
        def timeout(signum, frame):
            raise TimeoutError("interchange did not stop")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_equal_routes_do_not_livelock(self, alarm):
        # Both routes overflow by one track and have equal length: every
        # attempt swaps to the other one, which used to reset the
        # stagnation count forever.
        alts = {"a": [alt([(0, 1)], 1.0), alt([(0, 2)], 1.0)]}
        sel = RouteSelector(alts, {(0, 1): 0, (0, 2): 0})
        result = sel.run(random.Random(0))
        assert result.overflow == 1
        assert result.attempts == 2  # M * N = 2 * 1
        assert result.accepted == 2
