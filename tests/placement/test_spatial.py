"""The uniform-grid broad phase: exactness, re-binning, bookkeeping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect
from repro.placement.spatial import UniformGridIndex


def random_rect(rng, span=100.0, max_size=12.0):
    x = rng.uniform(-span, span)
    y = rng.uniform(-span, span)
    w = rng.uniform(0.1, max_size)
    h = rng.uniform(0.1, max_size)
    return Rect(x, y, x + w, y + h)


class TestConstruction:
    def test_rejects_nonpositive_bin(self):
        with pytest.raises(ValueError):
            UniformGridIndex(0.0)
        with pytest.raises(ValueError):
            UniformGridIndex(-1.0)

    def test_for_bboxes_uses_mean_larger_edge(self):
        boxes = [Rect(0, 0, 4, 2), Rect(0, 0, 2, 8)]
        grid = UniformGridIndex.for_bboxes(boxes)
        assert grid.bin_size == pytest.approx((4 + 8) / 2)

    def test_for_bboxes_empty_is_valid(self):
        grid = UniformGridIndex.for_bboxes([])
        grid.insert("a", Rect(0, 0, 1, 1))
        assert "a" in grid

    def test_double_insert_rejected(self):
        grid = UniformGridIndex(5.0)
        grid.insert("a", Rect(0, 0, 1, 1))
        with pytest.raises(ValueError):
            grid.insert("a", Rect(2, 2, 3, 3))


class TestExactness:
    """The invariant the cost bookkeeping rests on: every pair of
    intersecting bboxes shares at least one bin, so query()/candidates()
    return a superset of the true intersectors."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("bin_size", [0.5, 3.0, 17.0, 1000.0])
    def test_query_superset_of_bruteforce(self, seed, bin_size):
        rng = random.Random(seed)
        boxes = {i: random_rect(rng) for i in range(60)}
        grid = UniformGridIndex(bin_size)
        for i, box in boxes.items():
            grid.insert(i, box)
        probe = random_rect(rng, span=80.0, max_size=40.0)
        hits = grid.query(probe)
        for i, box in boxes.items():
            if probe.intersects(box):
                assert i in hits, f"intersecting box {i} missed by query"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidates_superset_after_updates(self, seed):
        rng = random.Random(seed)
        boxes = {i: random_rect(rng) for i in range(40)}
        grid = UniformGridIndex(4.0)
        for i, box in boxes.items():
            grid.insert(i, box)
        # Churn: move half the items around, including across bins.
        for _ in range(200):
            i = rng.randrange(40)
            boxes[i] = random_rect(rng)
            grid.update(i, boxes[i])
        for i, box in boxes.items():
            cands = grid.candidates(i)
            assert i not in cands
            for j, other in boxes.items():
                if j != i and box.intersects(other):
                    assert j in cands, f"pair ({i},{j}) missed"

    def test_touching_boxes_share_a_bin(self):
        # Boxes meeting exactly on a bin boundary: x = 8.0 with bin 4.0.
        grid = UniformGridIndex(4.0)
        grid.insert("l", Rect(4.0, 0.0, 8.0, 2.0))
        grid.insert("r", Rect(8.0, 0.0, 12.0, 2.0))
        # Inclusive bin ranges put both in the bin at x=8 — the superset
        # may include touching (zero-area) pairs; the narrow phase
        # rejects them, so this is allowed, not required to be filtered.
        assert "r" in grid.candidates("l")


class TestRebinning:
    def test_update_within_bin_keeps_range(self):
        grid = UniformGridIndex(10.0)
        grid.insert("a", Rect(1.0, 1.0, 3.0, 3.0))
        rng_before = grid.stored_range("a")
        grid.update("a", Rect(4.0, 5.0, 6.0, 7.0))  # same 10x10 bin
        assert grid.stored_range("a") == rng_before

    def test_update_across_boundary_moves_bins(self):
        grid = UniformGridIndex(10.0)
        grid.insert("a", Rect(1.0, 1.0, 3.0, 3.0))
        grid.update("a", Rect(11.0, 1.0, 13.0, 3.0))
        assert grid.stored_range("a") == (1, 0, 1, 0)
        assert grid.query(Rect(12.0, 2.0, 12.5, 2.5)) == {"a"}
        # The old bin no longer reports it.
        assert grid.query(Rect(2.0, 2.0, 2.5, 2.5)) == set()

    def test_item_larger_than_one_bin(self):
        grid = UniformGridIndex(2.0)
        big = Rect(-3.0, -3.0, 5.0, 5.0)  # covers a 5x5 block of bins
        grid.insert("big", big)
        bx1, by1, bx2, by2 = grid.stored_range("big")
        assert (bx2 - bx1 + 1) * (by2 - by1 + 1) == 25
        # Probing any corner bin finds it.
        assert "big" in grid.query(Rect(-2.9, -2.9, -2.8, -2.8))
        assert "big" in grid.query(Rect(4.8, 4.8, 4.9, 4.9))

    def test_grid_is_unbounded(self):
        grid = UniformGridIndex(1.0)
        far = Rect(1e6, -1e6, 1e6 + 1, -1e6 + 1)
        grid.insert("far", far)
        assert grid.query(far) == {"far"}


class TestBookkeeping:
    def test_remove_clears_everywhere(self):
        grid = UniformGridIndex(2.0)
        grid.insert("a", Rect(0.0, 0.0, 7.0, 7.0))
        grid.remove("a")
        assert "a" not in grid
        assert len(grid) == 0
        assert grid.query(Rect(0.0, 0.0, 7.0, 7.0)) == set()

    def test_empty_bins_are_freed(self):
        grid = UniformGridIndex(2.0)
        grid.insert("a", Rect(0.0, 0.0, 7.0, 7.0))
        grid.insert("b", Rect(0.0, 0.0, 1.0, 1.0))
        grid.remove("a")
        # Only the single bin holding "b" survives.
        assert len(grid._bins) == 1
        grid.remove("b")
        assert grid._bins == {}

    def test_update_inserts_unknown_item(self):
        grid = UniformGridIndex(2.0)
        grid.update("a", Rect(0.0, 0.0, 1.0, 1.0))
        assert "a" in grid

    def test_len_and_contains(self):
        grid = UniformGridIndex(2.0)
        assert len(grid) == 0 and "a" not in grid
        grid.insert("a", Rect(0, 0, 1, 1))
        grid.insert("b", Rect(5, 5, 6, 6))
        assert len(grid) == 2 and "a" in grid and "b" in grid

    def test_repr_mentions_counts(self):
        grid = UniformGridIndex(2.0)
        grid.insert("a", Rect(0, 0, 1, 1))
        assert "1 items" in repr(grid)


class TestNeighbourhoodMemo:
    """The memoized sorted neighbourhood never goes stale: after any
    insert / update / remove sequence it equals a fresh sorted query."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        bin_size=st.sampled_from([2.0, 5.0, 20.0]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "nudge", "jump", "remove"]),
                st.integers(0, 15),
            ),
            max_size=80,
        ),
    )
    def test_memo_matches_fresh_query(self, seed, bin_size, ops):
        rng = random.Random(seed)
        grid = UniformGridIndex(bin_size)
        boxes = {}
        for kind, item in ops:
            if kind == "insert" and item not in boxes:
                boxes[item] = random_rect(rng, span=20.0)
                grid.insert(item, boxes[item])
            elif kind == "nudge" and item in boxes:
                # Small shifts usually stay inside the bin range.
                dx, dy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
                x1, y1, x2, y2 = boxes[item]
                boxes[item] = Rect(x1 + dx, y1 + dy, x2 + dx, y2 + dy)
                grid.update_coords(item, x1 + dx, y1 + dy, x2 + dx, y2 + dy)
            elif kind == "jump" and item in boxes:
                boxes[item] = random_rect(rng, span=20.0)
                grid.update(item, boxes[item])
            elif kind == "remove" and item in boxes:
                del boxes[item]
                grid.remove(item)
            for i in boxes:
                assert grid.neighbourhood(i) == tuple(sorted(grid.candidates(i)))

    def test_memo_survives_moves_inside_the_bin_range(self):
        grid = UniformGridIndex(10.0)
        grid.insert(0, Rect(1.0, 1.0, 3.0, 3.0))
        grid.insert(1, Rect(2.0, 2.0, 4.0, 4.0))
        first = grid.neighbourhood(0)
        grid.update(1, Rect(2.5, 2.5, 4.5, 4.5))
        assert grid.neighbourhood(0) is first
        grid.update(1, Rect(12.0, 12.0, 14.0, 14.0))
        assert grid.neighbourhood(0) == ()
