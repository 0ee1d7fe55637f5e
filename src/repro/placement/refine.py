"""Stage 2 of TimberWolfMC (§4): channel-driven placement refinement.

Each refinement pass executes three steps:

1. *channel definition* — extract every critical region of the current
   (legalized) placement (§4.1),
2. *global routing* — route all nets over the channel graph (§4.2); the
   routed densities give each channel's required width w = (d+2) * t_s,
3. *placement refinement* — a low-temperature anneal in which every cell
   edge carries a *static* outward expansion of half its channels'
   required width; only single-cell displacements and pin moves are
   generated (orientations, instances, and aspect ratios are frozen —
   changing them would invalidate the per-edge widths, §4.3).

The initial stage-2 window is the fraction mu = 0.03 of the core span;
Eqn 28 converts that into the starting temperature T' for the Table-2
schedule.  Three passes suffice for the TEIL and chip area to converge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..annealing import (
    Annealer,
    AnnealResult,
    AnyOf,
    FloorStop,
    FrozenStop,
    WindowStop,
    stage2_schedule,
)
from ..channels import (
    ChannelGraph,
    cell_edge_expansions,
    decompose_free_space,
    extract_critical_regions,
)
from ..config import TimberWolfConfig
from ..geometry import Rect
from ..netlist import Circuit
from ..resilience.drift import drift_observers
from ..resilience.faults import fault_point
from ..routing import GlobalRouter, RoutingResult
from ..telemetry import current_tracer
from .compact import compact
from .legalize import remove_overlaps, warn_residual
from .stage1 import Stage1Result, make_mover, mover_session
from .state import PlacementState

#: Margin (in track spacings) added around the placement when defining the
#: channel-extraction boundary, so boundary channels have somewhere to live.
BOUNDARY_MARGIN_TRACKS = 4.0

#: Stage-2 safety floor in units of S_T.
STAGE2_T_FLOOR = 0.01


@dataclass
class RefinementPass:
    """Artifacts of one (channel define -> route -> refine) execution."""

    index: int
    graph: ChannelGraph
    routing: RoutingResult
    anneal: Optional[AnnealResult]
    teil_after: float
    chip_area_after: float
    #: move kind -> [attempts, accepts] from the pass's anneal, so the
    #: acceptance profile of every stage-2 move class is inspectable.
    move_stats: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def overflow(self) -> int:
        return self.routing.overflow


@dataclass
class RefinementResult:
    """Outcome of the whole stage 2."""

    state: PlacementState
    passes: List[RefinementPass] = field(default_factory=list)
    #: True when a run budget cut refinement short (remaining passes or
    #: the tail of an anneal were skipped).
    truncated: bool = False
    #: First pass index this run executed (> 0 after a stage-2 resume;
    #: earlier passes ran in the original process).
    resumed_at_pass: int = 0

    @property
    def final_pass(self) -> RefinementPass:
        if not self.passes:
            raise ValueError("no refinement passes were run")
        return self.passes[-1]

    @property
    def teil(self) -> float:
        return self.state.teil()

    @property
    def chip_area(self) -> float:
        return self.state.chip_area()


def channel_boundary(state: PlacementState, track_spacing: float) -> Rect:
    """The outer boundary used for channel extraction: the target core
    grown to cover any spilled cells, plus a routing margin."""
    margin = BOUNDARY_MARGIN_TRACKS * track_spacing
    bbox = Rect.bounding(
        [state.core] + [state.world_shape(name).bbox for name in state.names]
    )
    return bbox.expanded_uniform(margin)


def define_and_route(
    circuit: Circuit,
    state: PlacementState,
    config: TimberWolfConfig,
    rng: random.Random,
):
    """Steps 1-2 of a refinement pass; returns (graph, routing)."""
    tracer = current_tracer()
    t_s = circuit.track_spacing
    with tracer.span("channels.define"):
        shapes = {name: state.world_shape(name) for name in state.names}
        boundary = channel_boundary(state, t_s)
        # Critical regions give the channels whose widths feed refinement;
        # the complete free-space decomposition gives the routing substrate.
        regions = extract_critical_regions(shapes, boundary)
        free = decompose_free_space(shapes.values(), boundary)
        graph = ChannelGraph(free, t_s, regions=regions)
        for name in state.names:
            cell = circuit.cells[name]
            for pin_name in cell.pins:
                graph.attach_pin(name, pin_name, state.pin_position(name, pin_name))
        if tracer.enabled:
            tracer.event(
                "channels.defined",
                critical_regions=len(regions),
                free_rects=len(free),
                attached_pins=len(graph.pin_nodes),
            )
    router = GlobalRouter(
        graph,
        m_routes=config.m_routes,
        rng=rng,
        workers=config.parallel.workers,
    )
    return graph, router.route(circuit)


def run_refinement(
    circuit: Circuit,
    stage1: Stage1Result,
    config: Optional[TimberWolfConfig] = None,
    rng: Optional[random.Random] = None,
    control=None,
    start_pass: int = 0,
) -> RefinementResult:
    """Run the configured number of refinement passes on a stage-1 result.

    ``control`` carries the budget / checkpoint / interrupt context; a
    checkpoint is written at every pass boundary.  ``start_pass`` skips
    completed passes when resuming from a stage-2 checkpoint (the state
    and RNG must already be restored to that boundary).
    """
    config = config if config is not None else TimberWolfConfig()
    rng = rng if rng is not None else random.Random(config.seed + 1)
    state = stage1.state
    t_s = circuit.track_spacing
    result = RefinementResult(state=state, resumed_at_pass=start_pass)
    tracer = current_tracer()

    for pass_index in range(start_pass, config.refinement_passes):
        if control is not None:
            reason = control.budget_exhausted()
            if reason is not None:
                result.truncated = True
                if tracer.enabled:
                    tracer.event(
                        "stage2.budget_exhausted",
                        pass_index=pass_index,
                        reason=reason,
                    )
                break
            control.pass_boundary(pass_index, rng, state)
        with tracer.span("stage2.pass", index=pass_index):
            # Channel definition needs disjoint cells; keep one track of gap
            # so every adjacency still admits a channel.
            with tracer.span("stage2.legalize"):
                residual = remove_overlaps(state, min_gap=t_s)
            warn_residual(residual, f"before refinement pass {pass_index}")

            routed = _define_route_expand(
                circuit, state, config, rng, t_s, pass_index, control
            )
            if routed is None:
                # Channel definition / routing failed beyond recovery for
                # this pass (recorded by the supervisor): keep the current
                # placement and try the next pass from scratch.
                continue
            graph, routing, expansions = routed
            state.set_static_expansions(expansions)
            # The §4.3 spacing step: separate the margin-carrying shapes so
            # every channel immediately has its required width; the anneal
            # below then re-optimizes wirelength under that constraint.
            with tracer.span("stage2.space"):
                spaced = remove_overlaps(state, use_expanded=True)
            warn_residual(
                spaced, f"in the spacing step of refinement pass {pass_index}"
            )

            is_last = pass_index == config.refinement_passes - 1
            with tracer.span("stage2.refine_anneal", final=is_last):
                anneal, move_stats = _refine_anneal(
                    state, stage1, config, rng, is_last, control
                )
            # "Or, if excessive space was allocated, then the cells are
            # compacted as much as possible" — the anneal's tiny window
            # cannot close large gaps, so a deterministic slide toward the
            # core center finishes the job (channel widths preserved: the
            # compaction operates on the margin-carrying shapes).
            with tracer.span("stage2.compact"):
                compact(state)

            result.passes.append(
                RefinementPass(
                    index=pass_index,
                    graph=graph,
                    routing=routing,
                    anneal=anneal,
                    teil_after=state.teil(),
                    chip_area_after=state.chip_area(),
                    move_stats=move_stats,
                )
            )
            if tracer.enabled:
                tracer.event(
                    "stage2.pass",
                    index=pass_index,
                    teil=round(state.teil(), 2),
                    chip_area=round(state.chip_area(), 2),
                    overflow=routing.overflow,
                    residual_overlap=round(residual, 2),
                )
            if anneal.truncated:
                result.truncated = True
                break

    # Leave the placement legal for downstream consumers — including the
    # reserved channel space (expanded shapes disjoint, §4.3).  When no
    # pass reached set_static_expansions (all supervised away, or the
    # budget ran dry first) the state is still in dynamic-estimator mode
    # and the expanded legalization does not apply.
    with tracer.span("stage2.final_legalize"):
        final = remove_overlaps(state, use_expanded=not state.dynamic_expansion)
        warn_residual(final, "in the final legalization")
        if not state.dynamic_expansion:
            compact(state)
    return result


def _define_route_expand(
    circuit: Circuit,
    state: PlacementState,
    config: TimberWolfConfig,
    rng: random.Random,
    t_s: float,
    pass_index: int,
    control,
):
    """Steps 1-2 of a pass plus the §4.3 edge expansions, supervised:
    a failure is recorded and the pass degrades to a no-op instead of
    aborting the flow."""

    def body():
        fault_point("channels.define", pass_index=pass_index)
        graph, routing = define_and_route(circuit, state, config, rng)
        fault_point("stage2.expansions", pass_index=pass_index)
        with current_tracer().span("stage2.expansions"):
            expansions = cell_edge_expansions(graph, routing.routes, t_s)
        return graph, routing, expansions

    if control is None:
        return body()
    return control.supervisor.run(f"stage2.pass{pass_index}.route", body)


def _refine_anneal(
    state: PlacementState,
    stage1: Stage1Result,
    config: TimberWolfConfig,
    rng: random.Random,
    is_last: bool,
    control=None,
) -> "tuple[AnnealResult, Dict[str, List[int]]]":
    """The §4.3 refinement anneal on the configured mover: serial steps,
    or displacement batches on the batch kernel with the pin-group moves
    in a serial pin round per temperature (see ``BatchMoveGenerator``)."""
    limiter = stage1.limiter
    # Eqn 28: T' makes the window the fraction mu of its full span.
    t_start = limiter.temperature_for_fraction(config.mu)
    schedule = stage2_schedule(
        stage1.plan.average_effective_cell_area, t_start=t_start
    )
    # The batched seed comes from the flow stream, which a stage-2 resume
    # restores at the pass boundary: the resumed anneal replays this one.
    mover = make_mover(
        state, limiter, config, lambda: rng.getrandbits(64), refine=True
    )
    floor = FloorStop(schedule.scale * STAGE2_T_FLOOR)
    if is_last:
        # Final pass: stop when the cost is frozen for 3 inner loops.
        stopping = AnyOf(FrozenStop(3), floor)
    else:
        stopping = AnyOf(WindowStop(limiter), floor)
    annealer = Annealer(
        schedule,
        stopping,
        attempts_per_cell=config.stage2_attempts_per_cell,
        max_temperatures=config.max_temperatures,
        rng=rng,
        eta_floor=schedule.scale * STAGE2_T_FLOOR,
    )
    observers = drift_observers(config)
    if control is not None:
        observers.append(control.interrupt_observer())
    with mover_session(mover):
        result = annealer.run(
            mover,
            budget=control.budget if control is not None else None,
            observers=observers,
        )
    return result, {k: list(v) for k, v in mover.stats.items()}
