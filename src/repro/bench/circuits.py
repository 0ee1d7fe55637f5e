"""Synthetic macro/custom cell circuit generation.

The paper's nine test circuits are proprietary (AMD, Intel, HP,
Gould-AMI); this module generates deterministic synthetic circuits with
matching *published statistics* — cell, net, and pin counts — plus the
structural features the algorithms must handle: a spread of cell sizes,
a fraction of rectilinear (L/T-shaped) cells, custom cells with movable
pins and aspect-ratio freedom, multi-instance macros, and electrically
equivalent pins.

Determinism: every generator decision flows from the spec's seed, so a
given spec always yields byte-identical circuits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..geometry import BOTTOM, LEFT, RIGHT, TOP, TileSet
from ..netlist import (
    Circuit,
    ContinuousAspectRatio,
    CustomCell,
    MacroCell,
    MacroInstance,
    Pin,
    PinKind,
)

_SIDES = (LEFT, RIGHT, BOTTOM, TOP)


@dataclass(frozen=True)
class CircuitSpec:
    """Parameters of a synthetic circuit."""

    name: str
    num_cells: int
    num_nets: int
    num_pins: int
    seed: int = 0
    #: Fraction of cells that are custom (movable pins, free aspect ratio).
    custom_fraction: float = 0.0
    #: Fraction of *macro* cells with a rectilinear (L/T) outline.
    rectilinear_fraction: float = 0.25
    #: Fraction of macro cells offered with a second instance.
    multi_instance_fraction: float = 0.1
    #: Mean cell edge, in grid units (edges are log-normal around this).
    mean_cell_edge: float = 40.0
    track_spacing: float = 1.0

    def __post_init__(self) -> None:
        if self.num_cells < 1:
            raise ValueError("need at least one cell")
        if self.num_pins < 2 * self.num_nets:
            raise ValueError("every net needs at least two pins")
        if self.num_pins < self.num_cells:
            raise ValueError("every cell needs at least one pin")
        for frac in (
            self.custom_fraction,
            self.rectilinear_fraction,
            self.multi_instance_fraction,
        ):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")


def generate_circuit(spec: CircuitSpec) -> Circuit:
    """Build the synthetic circuit for a spec (deterministic)."""
    rng = random.Random(spec.seed)

    # 1. Cell dimensions: log-normal edges around the mean.
    dims = []
    for _ in range(spec.num_cells):
        w = _lognormal_edge(rng, spec.mean_cell_edge)
        h = _lognormal_edge(rng, spec.mean_cell_edge)
        dims.append((w, h))

    # 2. Distribute pins over cells proportionally to perimeter.
    pin_counts = _distribute_pins(spec, dims, rng)

    # 3. Partition pin slots into nets.
    net_sizes = _net_sizes(spec, rng)
    net_of_slot = _assign_slots_to_nets(spec, pin_counts, net_sizes, rng)

    # 4. Materialize the cells.
    num_custom = int(round(spec.custom_fraction * spec.num_cells))
    custom_ids = set(rng.sample(range(spec.num_cells), num_custom))
    cells = []
    slot = 0
    for ci in range(spec.num_cells):
        w, h = dims[ci]
        nets = [net_of_slot[slot + k] for k in range(pin_counts[ci])]
        slot += pin_counts[ci]
        if ci in custom_ids:
            cells.append(_make_custom(spec, ci, w, h, nets, rng))
        else:
            cells.append(_make_macro(spec, ci, w, h, nets, rng))
    return Circuit(spec.name, cells, track_spacing=spec.track_spacing)


def crowded_circuit(spec: CircuitSpec) -> Circuit:
    """``generate_circuit(spec)`` with scarce custom-cell pin sites: two
    sites per edge, at a pin pitch that makes a site of a square cell
    hold one pin (edge / pitch / sites = 1.9).  Past an aspect ratio of
    about 1.11, or below 0.9, the long sides' sites hold two.  So the
    site capacities of Eqn 10 are 1 on some sides and 2 on others, and
    a three-pin sequence overfills any side of capacity 1."""
    base = generate_circuit(spec)
    cells = []
    for cell in base.cells.values():
        if isinstance(cell, CustomCell):
            cell = CustomCell(
                cell.name,
                list(cell.pins.values()),
                area=cell.area,
                aspect=cell.aspect,
                sites_per_edge=2,
                pin_pitch=math.sqrt(cell.area) / (1.9 * 2),
            )
        cells.append(cell)
    return Circuit(base.name, cells, track_spacing=base.track_spacing)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _lognormal_edge(rng: random.Random, mean_edge: float) -> float:
    edge = rng.lognormvariate(math.log(mean_edge), 0.35)
    return float(max(4, round(edge)))


def _distribute_pins(
    spec: CircuitSpec, dims: List[Tuple[float, float]], rng: random.Random
) -> List[int]:
    weights = [2.0 * (w + h) for w, h in dims]
    total_w = sum(weights)
    counts = [max(1, int(spec.num_pins * w / total_w)) for w in weights]
    # Fix rounding drift while keeping at least one pin per cell.
    diff = spec.num_pins - sum(counts)
    order = list(range(spec.num_cells))
    rng.shuffle(order)
    i = 0
    while diff != 0 and order:
        ci = order[i % len(order)]
        if diff > 0:
            counts[ci] += 1
            diff -= 1
        elif counts[ci] > 1:
            counts[ci] -= 1
            diff += 1
        i += 1
    return counts


def _net_sizes(spec: CircuitSpec, rng: random.Random) -> List[int]:
    """Net degrees: mostly 2-3 pins with a geometric tail, summing to
    num_pins across num_nets nets."""
    sizes = [2] * spec.num_nets
    extra = spec.num_pins - 2 * spec.num_nets
    while extra > 0:
        net = rng.randrange(spec.num_nets)
        # Favor small increments; occasionally grow a big net.
        bump = 1 if rng.random() < 0.8 else rng.randint(2, 5)
        bump = min(bump, extra)
        sizes[net] += bump
        extra -= bump
    return sizes


def _assign_slots_to_nets(
    spec: CircuitSpec,
    pin_counts: List[int],
    net_sizes: List[int],
    rng: random.Random,
) -> List[str]:
    """Assign each pin slot a net name so every net spans >= 2 cells.

    Nets draw their member cells weighted by each cell's remaining slot
    budget, forcing the first two members onto distinct cells; an endgame
    repair pass fixes any net that the final slots squeezed onto a single
    cell by trading one member with a multi-cell net.
    """
    num_cells = len(pin_counts)
    remaining = list(pin_counts)
    # Larger nets first so the endgame only has to place small ones.
    order = sorted(range(len(net_sizes)), key=lambda ni: -net_sizes[ni])
    members: List[List[int]] = [[] for _ in net_sizes]

    def draw(exclude: Optional[int]) -> int:
        population = [
            ci
            for ci in range(num_cells)
            if remaining[ci] > 0 and ci != exclude
        ]
        if not population:
            population = [ci for ci in range(num_cells) if remaining[ci] > 0]
        weights = [remaining[ci] for ci in population]
        return rng.choices(population, weights=weights, k=1)[0]

    for ni in order:
        for k in range(net_sizes[ni]):
            exclude = members[ni][0] if k == 1 else None
            cell = draw(exclude)
            members[ni].append(cell)
            remaining[cell] -= 1

    # Repair single-cell nets by trading a member with a net that spans
    # three or more distinct cells (or loses nothing by giving one up).
    for ni, cells in enumerate(members):
        if len(set(cells)) >= 2:
            continue
        lonely = cells[0]
        for nj, other in enumerate(members):
            if ni == nj:
                continue
            distinct = set(other)
            donors = [c for c in distinct if c != lonely]
            if not donors:
                continue
            donor = donors[0]
            # Swap only if the donor net keeps >= 2 distinct cells after
            # giving up one occurrence of `donor` and gaining `lonely`.
            after = list(other)
            after.remove(donor)
            after.append(lonely)
            if len(set(after)) < 2:
                continue
            members[nj] = after
            cells[0] = donor
            break
        else:
            raise RuntimeError(
                f"could not build a connected net assignment for {spec.name!r}"
            )

    # Materialize per-cell slot lists in cell order.
    per_cell: List[List[str]] = [[] for _ in range(num_cells)]
    for ni, cells in enumerate(members):
        for cell in cells:
            per_cell[cell].append(f"n{ni}")
    for ci in range(num_cells):
        rng.shuffle(per_cell[ci])
        assert len(per_cell[ci]) == pin_counts[ci]
    out: List[str] = []
    for ci in range(num_cells):
        out.extend(per_cell[ci])
    return out


def _perimeter_position(
    rng: random.Random, w: float, h: float
) -> Tuple[str, Tuple[float, float]]:
    """A random (side, cell-local offset) on a w x h rectangle boundary."""
    side = rng.choice(_SIDES)
    if side in (LEFT, RIGHT):
        x = -w / 2.0 if side == LEFT else w / 2.0
        y = rng.uniform(-h / 2.0, h / 2.0)
    else:
        y = -h / 2.0 if side == BOTTOM else h / 2.0
        x = rng.uniform(-w / 2.0, w / 2.0)
    return side, (round(x, 1), round(y, 1))


def _make_macro(
    spec: CircuitSpec,
    ci: int,
    w: float,
    h: float,
    nets: List[str],
    rng: random.Random,
) -> MacroCell:
    name = f"{spec.name}_c{ci}"
    # When a cell carries several pins of the same net they are marked as
    # one electrically-equivalent class — the router may use any of them
    # (exactly the P3A/P3B situation of Figure 10).
    equiv_class: Dict[str, str] = {}
    for net in nets:
        if nets.count(net) > 1 and net not in equiv_class:
            equiv_class[net] = f"eq_{net}"
    shape = _macro_shape(spec, w, h, rng)
    pins: List[Pin] = []
    for k, net in enumerate(nets):
        _, offset = _perimeter_position(rng, w, h)
        pins.append(
            Pin(
                f"p{k}",
                net,
                PinKind.FIXED,
                offset=_snap_to_boundary(shape, offset),
                equiv_class=equiv_class.get(net),
            )
        )
    # Clamp pin offsets onto the (possibly rectilinear) shape's bbox edge.
    instances = [MacroInstance("default", shape)]
    if rng.random() < spec.multi_instance_fraction:
        # A second instance: same area, different aspect ratio.
        alt = TileSet.rectangle(round(w * 1.3), max(4, round(h / 1.3)))
        offsets = {
            p.name: _clamp_to_bbox(p.offset, alt.bbox) for p in pins
        }
        instances.append(MacroInstance("alt", alt, offsets))
    return MacroCell(name, pins, instances)


def _macro_shape(
    spec: CircuitSpec, w: float, h: float, rng: random.Random
) -> TileSet:
    if rng.random() >= spec.rectilinear_fraction or w < 8 or h < 8:
        return TileSet.rectangle(w, h)
    notch_w = max(2, round(w * rng.uniform(0.25, 0.45)))
    notch_h = max(2, round(h * rng.uniform(0.25, 0.45)))
    if rng.random() < 0.5:
        return TileSet.l_shape(w, h, notch_w, notch_h)
    stem = max(2, round(w * rng.uniform(0.3, 0.5)))
    return TileSet.t_shape(w, h, stem, notch_h)


def _snap_to_boundary(shape: TileSet, offset: Tuple[float, float]) -> Tuple[float, float]:
    """Project a point onto the nearest boundary edge of a tile union, so
    pins of rectilinear cells sit on the actual outline (not in a notch)."""
    x, y = offset
    best = None
    best_d = None
    for e in shape.boundary_edges():
        if e.is_vertical:
            px, py = e.position, min(max(y, e.lo), e.hi)
        else:
            px, py = min(max(x, e.lo), e.hi), e.position
        d = abs(px - x) + abs(py - y)
        if best_d is None or d < best_d:
            best_d = d
            best = (px, py)
    assert best is not None
    return best


def _clamp_to_bbox(offset, bbox) -> Tuple[float, float]:
    x = min(max(offset[0], bbox.x1), bbox.x2)
    y = min(max(offset[1], bbox.y1), bbox.y2)
    return (x, y)


def _make_custom(
    spec: CircuitSpec,
    ci: int,
    w: float,
    h: float,
    nets: List[str],
    rng: random.Random,
) -> CustomCell:
    name = f"{spec.name}_c{ci}"
    pins: List[Pin] = []
    group_counter = 0
    k = 0
    while k < len(nets):
        roll = rng.random()
        if roll < 0.15 and k + 1 < len(nets):
            # A two-pin group restricted to a pair of opposite edges.
            sides = frozenset(rng.choice(((LEFT, RIGHT), (BOTTOM, TOP))))
            gname = f"g{group_counter}"
            group_counter += 1
            for j in range(2):
                pins.append(
                    Pin(f"p{k}", nets[k], PinKind.GROUP, group=gname, sides=sides)
                )
                k += 1
        elif roll < 0.25 and k + 2 < len(nets):
            # A three-pin ordered sequence on one edge.
            side = frozenset({rng.choice(_SIDES)})
            gname = f"s{group_counter}"
            group_counter += 1
            for j in range(3):
                pins.append(
                    Pin(
                        f"p{k}",
                        nets[k],
                        PinKind.SEQUENCE,
                        group=gname,
                        sequence_index=j,
                        sides=side,
                    )
                )
                k += 1
        elif roll < 0.35:
            # A fixed pin (committed during custom-cell design).
            _, offset = _perimeter_position(rng, w, h)
            pins.append(Pin(f"p{k}", nets[k], PinKind.FIXED, offset=offset))
            k += 1
        else:
            # A loose uncommitted pin allowed on any edge.
            pins.append(Pin(f"p{k}", nets[k], PinKind.EDGE))
            k += 1
    area = float(w * h)
    return CustomCell(
        name,
        pins,
        area=area,
        aspect=ContinuousAspectRatio(0.5, 2.0),
        sites_per_edge=8,
        pin_pitch=spec.track_spacing,
    )
