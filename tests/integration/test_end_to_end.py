"""End-to-end integration: a suite circuit through the full flow."""

import hashlib
from dataclasses import replace

import pytest

from repro import TimberWolfConfig, place_and_route
from repro.baselines import RandomPlacer
from repro.bench import load_circuit
from repro.channels import region_densities
from repro.placement.legalize import raw_overlap

SMOKE = TimberWolfConfig.smoke(seed=11)


@pytest.fixture(scope="module")
def i3_result():
    return place_and_route(load_circuit("i3"), SMOKE)


@pytest.fixture(scope="module")
def p1_result():
    return place_and_route(load_circuit("p1"), SMOKE)


@pytest.fixture(scope="module")
def batched_result():
    return place_and_route(load_circuit("i1"), replace(SMOKE, mover="batched"))


@pytest.fixture(scope="module")
def batched_p1_result():
    return place_and_route(load_circuit("p1"), replace(SMOKE, mover="batched"))


class TestSuiteCircuitFlow:
    def test_runs_to_completion(self, i3_result):
        assert i3_result.teil > 0
        assert i3_result.refinement is not None

    def test_beats_random_baseline(self, i3_result):
        baseline = RandomPlacer(seed=0).place(load_circuit("i3"))
        assert i3_result.teil < baseline.teil

    def test_final_placement_legal(self, i3_result):
        state = i3_result.state
        shapes = [state.world_shape(n) for n in state.names]
        assert raw_overlap(shapes) == pytest.approx(0.0, abs=1e-6)

    def test_all_nets_routed(self, i3_result):
        routing = i3_result.refinement.final_pass.routing
        assert not routing.unrouted

    def test_channels_extracted(self, i3_result):
        final = i3_result.refinement.final_pass
        assert final.graph.regions
        assert final.graph.num_free_nodes > 0

    def test_every_pin_attached(self, i3_result):
        circuit = i3_result.circuit
        graph = i3_result.refinement.final_pass.graph
        assert len(graph.pin_nodes) == circuit.num_pins


def routing_fingerprint(result) -> str:
    """sha256 over the routing trajectory of every stage-2 pass (region
    densities, stored alternatives, interchange selection, selected
    routes) and the final TEIL and chip area."""
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())

    for p in result.refinement.passes:
        routing = p.routing
        put("pass", p.index, sorted(region_densities(p.graph, routing.routes).items()))
        for net in sorted(routing.alternatives):
            put(net, [(a.length, sorted(a.edges)) for a in routing.alternatives[net]])
        put(sorted(routing.interchange.selection.items()))
        put(sorted((net, sorted(edges)) for net, edges in routing.routes.items()))
    put(result.teil, result.chip_area)
    return h.hexdigest()


#: The routing trajectory of ``i3_result``.  Speed work on the router or
#: the density accounting must leave it unchanged; a deliberate change
#: of routing behaviour updates it and says why.
GOLDEN_ROUTING_SHA256 = (
    "eb4446483792e4d4c047e55e70ecac173ef0cafb1eff24da3a4ea51795b84d13"
)

#: The routing trajectories of ``batched_result`` (i1: 560-node channel
#: graphs, long enough paths for Yen's spur bound to prune) and of
#: ``batched_p1_result`` (p1: multi-member pin groups).
GOLDEN_ROUTING_I1_SHA256 = (
    "b8153c13848ea5a5bfffb63f1a6fcb411cb5954aa16cb911513bfc82a018a4dd"
)
GOLDEN_ROUTING_P1_SHA256 = (
    "402293b0462b6f1a0b4b608abd18abf090369be4c9decb01d718e9257e27cdc8"
)


class TestGoldenRouting:
    def test_routing_fingerprint(self, i3_result):
        assert routing_fingerprint(i3_result) == GOLDEN_ROUTING_SHA256

    def test_i1_routing_fingerprint(self, batched_result):
        assert routing_fingerprint(batched_result) == GOLDEN_ROUTING_I1_SHA256

    def test_p1_routing_fingerprint(self, batched_p1_result):
        assert routing_fingerprint(batched_p1_result) == GOLDEN_ROUTING_P1_SHA256


class TestReproducibility:
    def test_same_seed_same_result(self):
        a = place_and_route(load_circuit("i3"), SMOKE)
        b = place_and_route(load_circuit("i3"), SMOKE)
        assert a.teil == b.teil
        assert a.chip_area == b.chip_area
        assert a.placement() == b.placement()


class TestMixedSuiteCircuit:
    def test_chip_planning_circuit(self, p1_result):
        """p1 carries custom cells: the chip-planning capability."""
        circuit = p1_result.circuit
        assert circuit.custom_cells()
        assert p1_result.teil > 0
        # Custom cells must have settled on valid aspect ratios.
        state = p1_result.state
        for cell in circuit.custom_cells():
            record = state.records[state.index[cell.name]]
            assert cell.aspect.contains(record.aspect_ratio)


def placement_fingerprint(result) -> str:
    """sha256 over the legalized stage-1 placement, every final cell
    record (center, orientation, instance, aspect ratio, pin sites), the
    history-exact C1/C2/C3 accumulators, and the final TEIL and chip
    area."""
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())

    put(sorted(result.stage1_placement.items()))
    state = result.state
    for name, rec in zip(state.names, state.records):
        put(
            name,
            rec.center,
            rec.orientation,
            rec.instance,
            rec.aspect_ratio,
            sorted(rec.pin_sites.items()),
        )
    put(state._c1, state._c2_raw, state._c3_total)
    put(result.teil, result.chip_area)
    return h.hexdigest()


#: The placement trajectory of ``p1_result``: its custom cells drive the
#: pin-group, aspect-ratio and custom pin-offset paths of both anneals.
#: Speed work on the move kernel must leave it unchanged.
GOLDEN_PLACEMENT_SHA256 = (
    "89888a6f62aed81c87d63ead4d86c48f5ef562c144274349a159f608399760c7"
)


class TestGoldenCustomPlacement:
    def test_placement_fingerprint(self, p1_result):
        assert placement_fingerprint(p1_result) == GOLDEN_PLACEMENT_SHA256


def stage1_fingerprint(result) -> str:
    """sha256 over the legalized stage-1 placement and every stage-1
    temperature's (attempts, accepts, cost_after)."""
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())

    put(sorted(result.stage1_placement.items()))
    for step in result.stage1.anneal.steps:
        put(step.attempts, step.accepts, step.cost_after)
    return h.hexdigest()


#: The batched stage-1 trajectory of i1 smoke with ``mover="batched"``
#: (``SMOKE`` runs the serial mover, so neither hash above pins the
#: batched kernel).  Work on the refine anneal must leave it unchanged.
GOLDEN_BATCHED_STAGE1_SHA256 = (
    "2f23672711268606da2a7c25f19dbc3ca35323371a9eec5409d2821d3847f3b4"
)

#: The same run's final placement, then routing fingerprint.  Moved
#: when the refine anneal of ``mover="batched"`` went onto the batch
#: kernel: its displacements are now synchronous batches drawn from a
#: numpy stream seeded from the flow RNG.  Stage 1 (above) did not
#: move, nor did the routes of this one-pass flow, which precede the
#: refine anneal: the routing fingerprint moved only through the final
#: TEIL and chip area it ends with.
GOLDEN_BATCHED_SHA256 = (
    "76dc287b801174fe96086e9f1e6f9c52b3cd0ea6a7488a1407ca884724e43bd8",
    GOLDEN_ROUTING_I1_SHA256,
)


#: Both fingerprints of p1 smoke with ``mover="batched"``.  i1 above is
#: macro-only; p1's two custom cells run the batched refine's pin round
#: (1,216 pin-group attempts) on the serial kernel, inside the open
#: kernel session.
GOLDEN_BATCHED_P1_SHA256 = (
    "6f07bfb653125dfed2369a4a1ca99d9f7c4eb3bc6ab07842e8ef53213528be47",
    GOLDEN_ROUTING_P1_SHA256,
)


class TestGoldenBatchedPlacement:
    def test_stage1_fingerprint(self, batched_result):
        assert stage1_fingerprint(batched_result) == GOLDEN_BATCHED_STAGE1_SHA256

    def test_batched_fingerprints(self, batched_result):
        assert (
            placement_fingerprint(batched_result),
            routing_fingerprint(batched_result),
        ) == GOLDEN_BATCHED_SHA256

    def test_batched_pin_round_fingerprints(self, batched_p1_result):
        stats = batched_p1_result.refinement.final_pass.move_stats
        assert stats["pin_group"][0] == 1216
        assert (
            placement_fingerprint(batched_p1_result),
            routing_fingerprint(batched_p1_result),
        ) == GOLDEN_BATCHED_P1_SHA256


class TestMediumCircuit:
    """i1 is the paper's headline circuit (33 cells, resistive-network
    comparator); one smoke-effort pass keeps the bigger code paths hot."""

    def test_i1_full_flow(self):
        circuit = load_circuit("i1")
        result = place_and_route(circuit, SMOKE)
        assert result.teil > 0
        assert not result.refinement.final_pass.routing.unrouted
        state = result.state
        shapes = [state.world_shape(n) for n in state.names]
        assert raw_overlap(shapes) == pytest.approx(0.0, abs=1e-6)


#: The move counters of ``i3_result`` (serial) and ``batched_p1_result``:
#: the ``stage1.move_metrics`` payload and every pass's ``move_stats``.
#: Work on where the movers keep their counts must leave the names and
#: the numbers unchanged.
PINNED_SERIAL_STAGE1_COUNTERS = {
    "moves.aspect.accepts": 0,
    "moves.aspect.attempts": 0,
    "moves.displace.accepts": 4394,
    "moves.displace.attempts": 5638,
    "moves.displace_inverted.accepts": 172,
    "moves.displace_inverted.attempts": 1244,
    "moves.interchange.accepts": 287,
    "moves.interchange.attempts": 554,
    "moves.interchange_inverted.accepts": 35,
    "moves.interchange_inverted.attempts": 267,
    "moves.orientation.accepts": 82,
    "moves.orientation.attempts": 1072,
    "moves.pin_group.accepts": 0,
    "moves.pin_group.attempts": 0,
}
PINNED_SERIAL_MOVE_STATS = [
    {
        "displace": [2520, 789],
        "displace_inverted": [0, 0],
        "orientation": [0, 0],
        "pin_group": [0, 0],
        "aspect": [0, 0],
        "interchange": [0, 0],
        "interchange_inverted": [0, 0],
    },
]
PINNED_BATCHED_STAGE1_COUNTERS = {
    "moves.displace_batch.accepts": 2767,
    "moves.displace_batch.attempts": 3487,
    "moves.interchange_batch.accepts": 76,
    "moves.interchange_batch.attempts": 135,
}
PINNED_BATCHED_MOVE_STATS = [
    {
        "displace_batch": [1672, 706],
        "interchange_batch": [0, 0],
        "pin_group": [1216, 651],
    },
]


def move_metrics_event(result):
    (event,) = [
        e for e in result.trace_events if e.get("name") == "stage1.move_metrics"
    ]
    return event


class TestPinnedMoveCounters:
    @pytest.mark.parametrize(
        "fixture, counters",
        [
            ("i3_result", PINNED_SERIAL_STAGE1_COUNTERS),
            ("batched_p1_result", PINNED_BATCHED_STAGE1_COUNTERS),
        ],
    )
    def test_stage1_move_metrics_event(self, request, fixture, counters):
        event = move_metrics_event(request.getfixturevalue(fixture))
        assert event["ev"] == "event"
        assert set(event) == {"ev", "name", "t", "span", "counters"}
        assert event["counters"] == counters
        # The names go out sorted.
        assert list(event["counters"]) == sorted(counters)

    @pytest.mark.parametrize(
        "fixture, stats",
        [
            ("i3_result", PINNED_SERIAL_MOVE_STATS),
            ("batched_p1_result", PINNED_BATCHED_MOVE_STATS),
        ],
    )
    def test_refine_move_stats(self, request, fixture, stats):
        passes = request.getfixturevalue(fixture).refinement.passes
        assert [p.move_stats for p in passes] == stats
        # Each pass keeps the mover's kinds in the mover's order.
        assert [list(p.move_stats) for p in passes] == [list(s) for s in stats]

    def test_qor_metrics_entry(self, i3_result):
        from repro.qor.recorder import QorSink, qor_from_result

        sink = QorSink()
        for event in i3_result.trace_events:
            sink.emit(event)
        assert qor_from_result(i3_result, sink)["metrics"] == {
            "stage1.move_metrics": {"counters": PINNED_SERIAL_STAGE1_COUNTERS}
        }
