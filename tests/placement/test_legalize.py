"""Overlap removal before channel definition."""

import random

import pytest

from repro.estimator import determine_core
from repro.placement import PlacementState, raw_overlap, remove_overlaps

from ..conftest import make_macro_circuit, make_mixed_circuit


def overlapping_state(seed=0, num_cells=6):
    ckt = make_macro_circuit(num_cells=num_cells, seed=seed)
    state = PlacementState(ckt, determine_core(ckt))
    # Everything starts stacked at the core center: maximal overlap.
    return state


class TestRemoveOverlaps:
    def test_removes_stacked_overlap(self):
        state = overlapping_state()
        assert state.c2_raw() > 0
        residual = remove_overlaps(state)
        assert residual == 0.0
        shapes = [state.world_shape(n) for n in state.names]
        assert raw_overlap(shapes) == 0.0

    def test_random_start(self):
        state = overlapping_state(seed=2)
        state.randomize(random.Random(0))
        assert remove_overlaps(state) == 0.0

    def test_min_gap_respected(self):
        state = overlapping_state(seed=3)
        state.randomize(random.Random(1))
        remove_overlaps(state, min_gap=2.0)
        shapes = [state.world_shape(n) for n in state.names]
        # Shrinking the gap margin must keep shapes disjoint even after
        # expanding each by just under half the gap.
        padded = [s.expanded_uniform(0.99) for s in shapes]
        assert raw_overlap(padded) == pytest.approx(0.0, abs=1e-6)

    def test_idempotent(self):
        state = overlapping_state(seed=4)
        remove_overlaps(state)
        centers = [r.center for r in state.records]
        remove_overlaps(state)
        assert [r.center for r in state.records] == centers

    def test_mixed_circuit(self):
        ckt = make_mixed_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(2))
        assert remove_overlaps(state) == 0.0

    def test_state_rebuilt_after(self):
        state = overlapping_state(seed=5)
        remove_overlaps(state)
        cost = state.cost()
        state.rebuild()
        assert state.cost() == pytest.approx(cost)

    def test_validation(self):
        state = overlapping_state()
        with pytest.raises(ValueError):
            remove_overlaps(state, max_passes=0)


class TestRawOverlap:
    def test_empty(self):
        assert raw_overlap([]) == 0.0

    def test_counts_pairs(self):
        from repro.geometry import TileSet

        a = TileSet.rectangle(4, 4)
        b = TileSet.rectangle(4, 4).translated(2, 0)
        assert raw_overlap([a, b]) == pytest.approx(8.0)


class TestResidualWarnings:
    def test_every_flow_legalize_call_warns_on_a_residual(self, monkeypatch):
        """A legalize call that runs out of passes must not go unseen:
        stage 1's, each pass's, the spacing step's and the final one."""
        import repro.flow.timberwolf as flow
        import repro.placement.refine as refine
        from repro import TimberWolfConfig, place_and_route

        def leaves_overlap(state, **kwargs):
            remove_overlaps(state, **kwargs)
            return 2.5

        monkeypatch.setattr(flow, "remove_overlaps", leaves_overlap)
        monkeypatch.setattr(refine, "remove_overlaps", leaves_overlap)
        with pytest.warns(UserWarning) as caught:
            place_and_route(make_macro_circuit(), TimberWolfConfig.smoke(seed=1))
        messages = [str(w.message) for w in caught]
        for where in (
            "after stage 1",
            "before refinement pass 0",
            "in the spacing step of refinement pass 0",
            "in the final legalization",
        ):
            assert any(
                m.startswith("legalization left 2.5 units^2 of overlap " + where)
                for m in messages
            ), where

    def test_small_residual_keeps_its_significant_digits(self):
        from repro.placement.legalize import warn_residual

        with pytest.warns(UserWarning) as caught:
            warn_residual(0.01, "in the final legalization")
        assert str(caught[0].message).startswith(
            "legalization left 0.01 units^2 of overlap in the final legalization"
        )
