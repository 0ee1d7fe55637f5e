"""Stage-2 refinement: channel define -> route -> low-T anneal."""

import pytest

from repro.channels import compute_congestion
from repro.config import TimberWolfConfig
from repro.placement import run_refinement, run_stage1
from repro.placement.legalize import raw_overlap
from repro.placement.refine import channel_boundary, define_and_route

from ..conftest import make_macro_circuit, make_mixed_circuit

SMOKE = TimberWolfConfig.smoke()


@pytest.fixture(scope="module")
def stage1_result():
    return run_stage1(make_macro_circuit(num_cells=6, seed=2), SMOKE)


class TestChannelBoundary:
    def test_covers_core_and_cells(self, stage1_result):
        state = stage1_result.state
        boundary = channel_boundary(state, 1.0)
        assert boundary.contains_rect(state.core)
        for name in state.names:
            assert boundary.contains_rect(state.world_shape(name).bbox)


class TestDefineAndRoute:
    def test_produces_graph_and_routes(self, stage1_result):
        from repro.placement.legalize import remove_overlaps
        import random

        ckt = make_macro_circuit(num_cells=6, seed=2)
        state = stage1_result.state
        remove_overlaps(state, min_gap=1.0)
        graph, routing = define_and_route(ckt, state, SMOKE, random.Random(0))
        assert graph.num_free_nodes > 0
        assert graph.regions  # critical regions extracted
        assert len(graph.pin_nodes) == ckt.num_pins
        assert routing.routes  # at least some nets routed
        assert not routing.unrouted
        assert compute_congestion(graph, routing.routes).max_node_density() >= 1


class TestRunRefinement:
    def test_full_refinement(self):
        ckt = make_macro_circuit(num_cells=6, seed=3)
        s1 = run_stage1(ckt, SMOKE)
        result = run_refinement(ckt, s1, SMOKE)
        assert len(result.passes) == SMOKE.refinement_passes
        assert result.teil > 0
        assert result.chip_area > 0

    def test_passes_expose_move_stats(self):
        ckt = make_macro_circuit(num_cells=6, seed=3)
        s1 = run_stage1(ckt, SMOKE)
        result = run_refinement(ckt, s1, SMOKE)
        for p in result.passes:
            assert p.move_stats, "each pass records its move statistics"
            # Stage 2 issues displacements; attempts >= accepts >= 0.
            att, acc = p.move_stats["displace"]
            assert att >= acc >= 0
            assert att > 0

    def test_placement_legal_after(self):
        ckt = make_macro_circuit(num_cells=6, seed=4)
        s1 = run_stage1(ckt, SMOKE)
        result = run_refinement(ckt, s1, SMOKE)
        shapes = [result.state.world_shape(n) for n in result.state.names]
        assert raw_overlap(shapes) == pytest.approx(0.0, abs=1e-6)

    def test_static_expansions_active_after(self):
        ckt = make_macro_circuit(num_cells=6, seed=5)
        s1 = run_stage1(ckt, SMOKE)
        result = run_refinement(ckt, s1, SMOKE)
        assert not result.state.dynamic_expansion

    def test_multiple_passes(self):
        from dataclasses import replace

        ckt = make_macro_circuit(num_cells=5, seed=6)
        cfg = replace(SMOKE, refinement_passes=3)
        s1 = run_stage1(ckt, cfg)
        result = run_refinement(ckt, s1, cfg)
        assert [p.index for p in result.passes] == [0, 1, 2]
        # Final pass is exposed.
        assert result.final_pass.index == 2

    def test_mixed_circuit_refines(self):
        ckt = make_mixed_circuit()
        s1 = run_stage1(ckt, SMOKE)
        result = run_refinement(ckt, s1, SMOKE)
        assert result.passes

    def test_no_passes_raises_on_final(self):
        from repro.placement.refine import RefinementResult

        ckt = make_macro_circuit(num_cells=4, seed=7)
        s1 = run_stage1(ckt, SMOKE)
        empty = RefinementResult(state=s1.state)
        with pytest.raises(ValueError):
            _ = empty.final_pass

    def test_orientations_frozen_in_stage2(self):
        ckt = make_macro_circuit(num_cells=6, seed=8)
        s1 = run_stage1(ckt, SMOKE)
        orientations = [r.orientation for r in s1.state.records]
        run_refinement(ckt, s1, SMOKE)
        assert [r.orientation for r in s1.state.records] == orientations
