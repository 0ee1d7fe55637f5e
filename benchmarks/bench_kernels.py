"""Micro-benchmarks of the flow's hot kernels.

These are conventional pytest-benchmark timings (many rounds) rather
than experiment regenerations: the tile-overlap computation and the
dynamic expansion dominate stage-1 moves, and Dijkstra dominates the
router, so their costs set the flow's wall-clock scaling.
"""

from __future__ import annotations

import random

import pytest

from repro.bench import CircuitSpec, generate_circuit
from repro.estimator import determine_core
from repro.geometry import TileSet
from repro.placement import MoveGenerator, PlacementState
from repro.annealing import RangeLimiter
from repro.routing import SearchGraph, dijkstra


@pytest.fixture(scope="module")
def placed_state():
    spec = CircuitSpec(
        name="kern", num_cells=20, num_nets=70, num_pins=260, seed=5
    )
    circuit = generate_circuit(spec)
    plan = determine_core(circuit)
    state = PlacementState(circuit, plan)
    state.randomize(random.Random(0))
    return state, plan


def test_tile_overlap_kernel(benchmark):
    a = TileSet.l_shape(40, 40, 15, 15)
    b = TileSet.t_shape(40, 40, 12, 12).translated(20, 10)
    result = benchmark(a.overlap_area, b)
    assert result >= 0


def test_expanded_shape_kernel(benchmark, placed_state):
    state, _ = placed_state
    world = state._world_shape(0)
    result = benchmark(state._expanded_shape, 0, world)
    assert result.area >= world.area


def test_move_cell_kernel(benchmark, placed_state):
    state, _ = placed_state

    def move_and_restore():
        delta, snap = state.move_cell(0, center=(10.0, 10.0))
        state.restore(snap)
        return delta

    benchmark(move_and_restore)


def test_generate_step_kernel(benchmark, placed_state):
    state, plan = placed_state
    limiter = RangeLimiter(plan.core.width, plan.core.height, 1e5)
    gen = MoveGenerator(state, limiter)
    rng = random.Random(1)
    benchmark(gen.step, 1e3, rng)


def test_dijkstra_kernel(benchmark):
    n = 30
    adj = {}

    def node(x, y):
        return y * n + x

    for y in range(n):
        for x in range(n):
            u = node(x, y)
            adj.setdefault(u, [])
            for dx, dy in ((1, 0), (0, 1)):
                if x + dx < n and y + dy < n:
                    v = node(x + dx, y + dy)
                    adj[u].append((v, 1.0))
                    adj.setdefault(v, []).append((u, 1.0))

    result = benchmark(
        dijkstra, SearchGraph(adj), {0: 0.0}, {n * n - 1}
    )
    assert result[0] == 2 * (n - 1)
