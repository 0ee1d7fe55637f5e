"""End-to-end global routing over a channel graph."""

import pytest

from repro.channels import ChannelGraph, compute_congestion, decompose_free_space
from repro.geometry import Rect, TileSet
from repro.netlist import Circuit, MacroCell, Pin, PinKind
from repro.routing import GlobalRouter


def routed_setup(seed=0, m=6):
    """Four cells in a 2x2 arrangement with nets between them."""
    def cell(name, nets_and_offsets):
        pins = [
            Pin(f"p{k}", net, PinKind.FIXED, offset=off)
            for k, (net, off) in enumerate(nets_and_offsets)
        ]
        return MacroCell.rectangular(name, 10, 10, pins)

    cells = [
        cell("tl", [("n1", (5, 0)), ("nv", (0, -5))]),
        cell("tr", [("n1", (-5, 0)), ("n2", (0, -5))]),
        cell("bl", [("nv", (0, 5)), ("n3", (5, 0))]),
        cell("br", [("n2", (0, 5)), ("n3", (-5, 0))]),
    ]
    circuit = Circuit("quad", cells)

    centers = {"tl": (0, 14), "tr": (14, 14), "bl": (0, 0), "br": (14, 0)}
    shapes = {}
    positions = {}
    for name in centers:
        cx, cy = centers[name]
        shapes[name] = TileSet.rectangle(10, 10).translated(cx, cy)
        for pin in circuit.cells[name].pins.values():
            positions[(name, pin.name)] = (cx + pin.offset[0], cy + pin.offset[1])

    boundary = Rect(-10, -10, 24, 24)
    strips = decompose_free_space(shapes.values(), boundary)
    graph = ChannelGraph(strips, 1.0)
    for (cell_name, pin_name), pos in positions.items():
        graph.attach_pin(cell_name, pin_name, pos)
    return circuit, graph


class TestGlobalRouter:
    def test_routes_all_nets(self):
        circuit, graph = routed_setup()
        router = GlobalRouter(graph, m_routes=6, seed=0)
        result = router.route(circuit)
        assert set(result.routes) == {"n1", "n2", "n3", "nv"}
        assert result.unrouted == []
        assert result.total_length > 0

    def test_lengths_match_selected_alternatives(self):
        circuit, graph = routed_setup()
        result = GlobalRouter(graph, m_routes=6, seed=0).route(circuit)
        for net, k in result.interchange.selection.items():
            assert result.lengths[net] == result.alternatives[net][k].length

    def test_alternatives_sorted(self):
        circuit, graph = routed_setup()
        result = GlobalRouter(graph, m_routes=6, seed=0).route(circuit)
        for alts in result.alternatives.values():
            lengths = [a.length for a in alts]
            assert lengths == sorted(lengths)

    def test_congestion_report(self):
        circuit, graph = routed_setup()
        result = GlobalRouter(graph, m_routes=6, seed=0).route(circuit)
        report = compute_congestion(graph, result.routes)
        assert report.max_node_density() >= 1
        assert result.overflow == report.overflow(graph)

    def test_deterministic(self):
        circuit, graph = routed_setup()
        a = GlobalRouter(graph, m_routes=6, seed=3).route(circuit)
        circuit2, graph2 = routed_setup()
        b = GlobalRouter(graph2, m_routes=6, seed=3).route(circuit2)
        assert a.total_length == b.total_length
        assert a.interchange.selection == b.interchange.selection

    def test_m_validation(self):
        _, graph = routed_setup()
        with pytest.raises(ValueError):
            GlobalRouter(graph, m_routes=0)


class TestPinGroups:
    def test_equivalent_pins_grouped(self):
        pins = [
            Pin("pa", "n1", PinKind.FIXED, offset=(5, 0), equiv_class="E"),
            Pin("pb", "n1", PinKind.FIXED, offset=(-5, 0), equiv_class="E"),
            Pin("pc", "n2", PinKind.FIXED, offset=(0, 5)),
        ]
        a = MacroCell.rectangular("a", 10, 10, pins)
        b = MacroCell.rectangular(
            "b",
            10,
            10,
            [
                Pin("q1", "n1", PinKind.FIXED, offset=(0, -5)),
                Pin("q2", "n2", PinKind.FIXED, offset=(0, 5)),
            ],
        )
        circuit = Circuit("eq", [a, b])
        shapes = {
            "a": TileSet.rectangle(10, 10),
            "b": TileSet.rectangle(10, 10).translated(14, 0),
        }
        strips = decompose_free_space(shapes.values(), Rect(-10, -10, 24, 10))
        graph = ChannelGraph(strips, 1.0)
        for name, shape in shapes.items():
            c = shape.bbox.center
            for pin in circuit.cells[name].pins.values():
                graph.attach_pin(
                    name, pin.name, (c.x + pin.offset[0], c.y + pin.offset[1])
                )
        router = GlobalRouter(graph, m_routes=4, seed=0)
        groups = router.build_pin_groups(circuit)
        # Net n1: cell a's two equivalent pins form ONE group of 2 nodes.
        n1_groups = groups["n1"]
        assert sorted(len(g) for g in n1_groups) == [1, 2]

    def test_single_cell_net_skipped(self):
        pins = [
            Pin("pa", "loop", PinKind.FIXED, offset=(5, 0)),
            Pin("pb", "loop", PinKind.FIXED, offset=(-5, 0)),
            Pin("px", "real", PinKind.FIXED, offset=(0, 5)),
        ]
        a = MacroCell.rectangular("a", 10, 10, pins)
        b = MacroCell.rectangular(
            "b", 10, 10, [Pin("q", "real", PinKind.FIXED, offset=(0, -5))]
        )
        circuit = Circuit("loopnet", [a, b])
        shapes = {
            "a": TileSet.rectangle(10, 10),
            "b": TileSet.rectangle(10, 10).translated(14, 0),
        }
        strips = decompose_free_space(shapes.values(), Rect(-10, -10, 24, 10))
        graph = ChannelGraph(strips, 1.0)
        for name, shape in shapes.items():
            c = shape.bbox.center
            for pin in circuit.cells[name].pins.values():
                graph.attach_pin(
                    name, pin.name, (c.x + pin.offset[0], c.y + pin.offset[1])
                )
        result = GlobalRouter(graph, m_routes=4, seed=0).route(circuit)
        # "loop" spans two pins of one cell -> two singleton groups is
        # correct and routable; "real" must be routed.
        assert "real" in result.routes
