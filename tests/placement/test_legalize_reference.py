"""``remove_overlaps`` against the TileSet-based shove loop it replaced.

The legalizer shoves flat float tuples and reads each cell's grid
neighbourhood from a memo; the loop below is the previous
implementation, which rebuilt ``TileSet``/``Rect`` objects on every
shift and re-queried the grid for every cell of every pass.  Both must
leave every record and the returned residual identical — ``==``, not
approx — on placements with multi-tile macros, custom cells, pre-placed
cells, a minimum gap, and the §4.3 expanded shapes under static
expansions.  Small ``max_passes`` values make some runs stop with a
non-zero residual, so the residual is compared when it matters too.
"""

import random
from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.bench import CircuitSpec, generate_circuit
from repro.estimator import determine_core
from repro.geometry import BOTTOM, LEFT, RIGHT, TOP, Rect, TileSet
from repro.netlist import Circuit, FixedPlacement, MacroCell
from repro.placement import make_placement_state, remove_overlaps
from repro.placement.spatial import UniformGridIndex


def _penetration(a: Rect, b: Rect) -> Tuple[float, float]:
    dx = min(a.x2, b.x2) - max(a.x1, b.x1)
    dy = min(a.y2, b.y2) - max(a.y1, b.y1)
    return (dx, dy)


def reference_remove_overlaps(
    state, max_passes=400, min_gap=0.0, tolerance=1e-9, use_expanded=False
) -> float:
    n = len(state.names)
    if use_expanded:
        shapes: List[TileSet] = [
            state._expanded_shape(i, state._world_shape(i)) for i in range(n)
        ]
    else:
        shapes = [state._world_shape(i) for i in range(n)]
    movable = state.movable
    gap = min_gap / 2.0
    padded = shapes if gap == 0 else [s.expanded_uniform(gap) for s in shapes]
    grid = UniformGridIndex.for_bboxes([s.bbox for s in shapes])
    for i in range(n):
        grid.insert(i, shapes[i].bbox.expanded_uniform(gap))

    for _ in range(max_passes):
        moved = False
        for i in range(n):
            for j in sorted(grid.candidates(i)):
                if j < i:
                    continue
                pad_i = padded[i]
                pad_j = padded[j]
                if not pad_i.bbox.intersects(pad_j.bbox):
                    continue
                if pad_i.overlap_area(pad_j) <= tolerance:
                    continue
                if not movable[i] and not movable[j]:
                    continue
                dx, dy = _penetration(pad_i.bbox, pad_j.bbox)
                share_i = 0.0 if not movable[i] else (1.0 if movable[j] else 2.0)
                share_j = 0.0 if not movable[j] else (1.0 if movable[i] else 2.0)
                if dx <= dy:
                    shift = dx / 2.0 + tolerance
                    sign = 1.0 if shapes[i].bbox.center.x <= shapes[j].bbox.center.x else -1.0
                    _shift_cell(state, shapes, padded, grid, gap, i, -sign * shift * share_i, 0.0)
                    _shift_cell(state, shapes, padded, grid, gap, j, sign * shift * share_j, 0.0)
                else:
                    shift = dy / 2.0 + tolerance
                    sign = 1.0 if shapes[i].bbox.center.y <= shapes[j].bbox.center.y else -1.0
                    _shift_cell(state, shapes, padded, grid, gap, i, 0.0, -sign * shift * share_i)
                    _shift_cell(state, shapes, padded, grid, gap, j, 0.0, sign * shift * share_j)
                moved = True
        if not moved:
            break

    state.rebuild()
    return reference_raw_overlap(shapes, tolerance)


def _shift_cell(state, shapes, padded, grid, gap, idx, dx, dy) -> None:
    record = state.records[idx]
    record.center = (record.center[0] + dx, record.center[1] + dy)
    shapes[idx] = shapes[idx].translated(dx, dy)
    if gap:
        padded[idx] = shapes[idx].expanded_uniform(gap)
    grid.update(idx, shapes[idx].bbox.expanded_uniform(gap))


def reference_raw_overlap(shapes: List[TileSet], tolerance: float = 1e-9) -> float:
    total = 0.0
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            if shapes[i].bbox.intersects(shapes[j].bbox):
                area = shapes[i].overlap_area(shapes[j])
                if area > tolerance:
                    total += area
    return total


def _circuit(seed: int, n: int, custom: float, fixed: int) -> Circuit:
    """A generated circuit (L/T macros, custom cells) whose first
    ``fixed`` macros are pre-placed near the core center."""
    base = generate_circuit(
        CircuitSpec(
            name="legal", num_cells=n, num_nets=2 * n, num_pins=5 * n,
            seed=seed, custom_fraction=custom, rectilinear_fraction=0.6,
        )
    )
    rng = random.Random(seed)
    cells = []
    for cell in base.cells.values():
        if fixed and cell.is_macro:
            fixed -= 1
            cell = MacroCell(
                cell.name,
                list(cell.pins.values()),
                cell.instances,
                fixed=FixedPlacement(
                    rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0),
                    orientation=rng.randrange(8),
                ),
            )
        cells.append(cell)
    return Circuit("legal", cells)


def _state(circuit, seed, core, squeeze, margins):
    """A random placement pulled toward the core center (so cells
    overlap), optionally in static-expansion mode."""
    state = make_placement_state(core, circuit, determine_core(circuit))
    state.randomize(random.Random(seed))
    cx = state.core.center.x
    cy = state.core.center.y
    for i, record in enumerate(state.records):
        if state.movable[i]:
            x, y = record.center
            record.center = (cx + (x - cx) * squeeze, cy + (y - cy) * squeeze)
    state.rebuild()
    if margins is not None:
        rng = random.Random(seed + 1)
        state.set_static_expansions(
            {
                name: {side: rng.choice(margins) for side in (LEFT, BOTTOM, RIGHT, TOP)}
                for name in state.names
            }
        )
    return state


class TestAgainstTileSetLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 16),
        custom=st.sampled_from([0.0, 0.3]),
        fixed=st.integers(0, 2),
        squeeze=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
        min_gap=st.sampled_from([0.0, 1.0, 2.5]),
        expanded=st.sampled_from([None, (0.0, 1.5), (0.5, 2.0, 4.25)]),
        max_passes=st.sampled_from([1, 3, 400]),
        core=st.sampled_from(["object", "array"]),
    )
    def test_records_and_residual_identical(
        self, seed, n, custom, fixed, squeeze, min_gap, expanded, max_passes, core
    ):
        circuit = _circuit(seed, n, custom, fixed)
        new = _state(circuit, seed, core, squeeze, expanded)
        old = _state(circuit, seed, core, squeeze, expanded)
        use_expanded = expanded is not None
        got = remove_overlaps(
            new, max_passes=max_passes, min_gap=min_gap, use_expanded=use_expanded
        )
        want = reference_remove_overlaps(
            old, max_passes=max_passes, min_gap=min_gap, use_expanded=use_expanded
        )
        assert got == want
        assert [r.center for r in new.records] == [r.center for r in old.records]
        assert new._c1 == old._c1
        assert new._c2_raw == old._c2_raw

    def test_a_cut_short_run_reports_the_same_residual(self):
        """A stacked start that one pass cannot separate."""
        circuit = _circuit(3, 10, 0.3, 1)
        new = _state(circuit, 3, "array", 0.0, None)
        old = _state(circuit, 3, "array", 0.0, None)
        got = remove_overlaps(new, max_passes=1, min_gap=1.0)
        assert got > 0.0
        assert got == reference_remove_overlaps(old, max_passes=1, min_gap=1.0)
        assert [r.center for r in new.records] == [r.center for r in old.records]
