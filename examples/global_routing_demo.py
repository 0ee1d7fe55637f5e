#!/usr/bin/env python
"""Global routing on a hand-placed floorplan.

The global router is independent of the layout style (§4.2): its inputs
are just a net list and a channel graph.  This example builds a fixed
2 x 3 floorplan, extracts the critical regions and the free-space routing
graph, routes the nets with the M-shortest-route + random-interchange
algorithm, and then *validates* the w = (d + 2) * t_s width rule by
running the left-edge channel router on each channel's segments.

Run:  python examples/global_routing_demo.py
"""

from repro.channels import (
    ChannelGraph,
    ChannelSegment,
    channel_density,
    decompose_free_space,
    extract_critical_regions,
    left_edge_route,
    region_densities,
    required_channel_width,
    tracks_used,
)
from repro.geometry import Rect, TileSet
from repro.netlist import Circuit, MacroCell, Pin, PinKind
from repro.routing import GlobalRouter

GAP = 8.0
CELL = 30.0


def build_floorplan():
    """Six 30x30 macros on a 2-row, 3-column grid with 8-unit channels."""
    cells = []
    shapes = {}
    positions = {}
    nets = [
        ("bus", [(0, "e"), (1, "w"), (2, "w"), (4, "n")]),
        ("clk", [(0, "s"), (3, "n"), (4, "n"), (5, "n")]),
        ("d0", [(1, "s"), (4, "e")]),
        ("d1", [(2, "s"), (5, "w")]),
        ("x0", [(0, "n"), (2, "n")]),
        ("x1", [(3, "e"), (5, "s")]),
    ]
    side_offset = {
        "e": (CELL / 2, 0.0),
        "w": (-CELL / 2, 0.0),
        "n": (0.0, CELL / 2),
        "s": (0.0, -CELL / 2),
    }
    pins_per_cell = {i: [] for i in range(6)}
    for net, members in nets:
        for cell_idx, side in members:
            pins_per_cell[cell_idx].append((net, side_offset[side]))

    for i in range(6):
        col, row = i % 3, i // 3
        cx = col * (CELL + GAP)
        cy = row * (CELL + GAP)
        pins = [
            Pin(f"p{k}", net, PinKind.FIXED, offset=off)
            for k, (net, off) in enumerate(pins_per_cell[i])
        ]
        name = f"u{i}"
        cells.append(MacroCell.rectangular(name, CELL, CELL, pins))
        shapes[name] = TileSet.rectangle(CELL, CELL).translated(cx, cy)
        for pin in pins:
            positions[(name, pin.name)] = (cx + pin.offset[0], cy + pin.offset[1])
    return Circuit("floorplan", cells), shapes, positions


def main() -> None:
    circuit, shapes, positions = build_floorplan()
    boundary = Rect.bounding(s.bbox for s in shapes.values()).expanded_uniform(GAP)

    regions = extract_critical_regions(shapes, boundary)
    free = decompose_free_space(shapes.values(), boundary)
    graph = ChannelGraph(free, circuit.track_spacing, regions=regions)
    for key, pos in positions.items():
        graph.attach_pin(*key, pos)
    print(f"channel definition: {graph}")

    router = GlobalRouter(graph, m_routes=10, seed=0)
    result = router.route(circuit)
    print(f"\nglobal routing of {len(result.routes)} nets:")
    for net in sorted(result.routes):
        k = result.interchange.selection[net]
        n_alts = len(result.alternatives[net])
        print(f"  {net:4s} route #{k + 1} of {n_alts}, length {result.lengths[net]:6.1f}")
    print(f"total length {result.total_length:.1f}, overflow X = {result.overflow}")

    densities = region_densities(graph, result.routes)
    print("\nchannel widths from Eqn 22, w = (d + 2) * t_s:")
    busiest = sorted(densities.items(), key=lambda kv: -kv[1])[:6]
    for idx, d in busiest:
        region = graph.regions[idx]
        w = required_channel_width(d, circuit.track_spacing)
        a, b = region.cells()
        print(f"  channel {a:8s}|{b:8s} density {d}  -> required width {w:.0f} "
              f"(available {region.width:.0f})")

    # Validate the premise of Eqn 22: a left-edge router achieves t = d on
    # each channel's interval set.
    print("\nleft-edge validation on the densest channel:")
    idx, d = busiest[0]
    region = graph.regions[idx]
    horizontal = region.axis == "horizontal"
    segments = []
    for net, edges in result.routes.items():
        span = []
        for u, v in edges:
            for node in (u, v):
                host = node if node < graph.num_free_nodes else graph.pin_host(node)
                rect = graph.node_rects[host]
                if rect.touches_or_intersects(region.rect):
                    x, y = graph.positions[node]
                    span.append(x if horizontal else y)
        if len(span) >= 2 and min(span) < max(span):
            segments.append(ChannelSegment(net, min(span), max(span)))
    if segments:
        assignment = left_edge_route(segments)
        t = tracks_used(assignment)
        d_seg = channel_density(segments)
        print(f"  {len(segments)} segments, density {d_seg}, left-edge tracks {t} "
              f"(t <= d + 1: {t <= d_seg + 1})")
    else:
        print("  (densest channel carries only through-traffic)")


if __name__ == "__main__":
    main()
