"""The complete TimberWolfMC flow: stage 1 plus stage-2 refinement.

``place_and_route`` is the top-level entry point a downstream user calls:

    from repro import place_and_route, TimberWolfConfig
    result = place_and_route(circuit, TimberWolfConfig.fast(seed=1))
    print(result.summary())
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import TimberWolfConfig
from ..netlist import Circuit, dumps
from ..parallel.seeds import spawn_seed
from ..placement.legalize import remove_overlaps, warn_residual
from ..placement.refine import RefinementResult, run_refinement
from ..placement.stage1 import Stage1Result, restore_stage1, run_stage1
from ..placement.state import PlacementState
from ..resilience.budget import Budget
from ..resilience.checkpoint import CheckpointManager, CheckpointPolicy
from ..resilience.control import RunControl
from ..resilience.interrupt import trap_signals
from ..telemetry import MemorySink, Tracer, use_tracer


@dataclass
class TimberWolfResult:
    """Everything produced by one full run of the flow."""

    circuit: Circuit
    config: TimberWolfConfig
    stage1: Stage1Result
    refinement: Optional[RefinementResult]
    stage1_teil: float
    stage1_chip_area: float
    stage1_placement: Dict[str, Tuple[float, float]]
    elapsed_seconds: float
    #: The run's telemetry events (spans, per-temperature snapshots,
    #: router records, ...) when tracing was active; None when telemetry
    #: was disabled.  ``repro.flow.report`` reads stage timings from
    #: here.
    trace_events: Optional[List[Dict[str, Any]]] = field(
        default=None, repr=False, compare=False
    )
    #: True when a run budget cut the flow short (stage 1 or stage 2
    #: ended early; the placement is the best-so-far, not converged).
    truncated: bool = False
    #: The budget's final accounting (``Budget.report()``), when one was
    #: attached to the run.
    budget_report: Optional[Dict[str, Any]] = None
    #: Stage failures the supervisor recovered from (estimator fallback,
    #: skipped refinement passes, ...), as plain dicts.
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: Path of the checkpoint this run resumed from, when it did.
    resumed_from: Optional[str] = None

    @property
    def state(self) -> PlacementState:
        return self.stage1.state

    @property
    def teil(self) -> float:
        """Final total estimated interconnect length."""
        return self.state.teil()

    @property
    def chip_area(self) -> float:
        """Final chip area (bounding box including interconnect area)."""
        return self.state.chip_area()

    @property
    def chip_dimensions(self) -> Tuple[float, float]:
        bbox = self.state.chip_bbox()
        return (bbox.width, bbox.height)

    @property
    def teil_change_pct(self) -> float:
        """Stage-2 TEIL relative to stage 1, as the percentage *reduction*
        reported in Table 3 (positive = stage 2 improved the TEIL)."""
        if self.stage1_teil == 0:
            return 0.0
        return 100.0 * (1.0 - self.teil / self.stage1_teil)

    @property
    def area_change_pct(self) -> float:
        """Stage-2 core-area change versus stage 1 (Table 3 convention:
        positive = stage 2 shrank the area)."""
        if self.stage1_chip_area == 0:
            return 0.0
        return 100.0 * (1.0 - self.chip_area / self.stage1_chip_area)

    @property
    def mean_stage2_displacement(self) -> float:
        """Average distance cells moved between the end of stage 1 and
        the final placement, normalized by the core's side length — the
        direct measure of how much 'placement modification' stage 2 (the
        routing-aware phase) had to perform."""
        state = self.state
        side = max(state.core.width, state.core.height)
        if side == 0 or not self.stage1_placement:
            return 0.0
        total = 0.0
        for name, (x0, y0) in self.stage1_placement.items():
            x1, y1 = state.records[state.index[name]].center
            total += abs(x1 - x0) + abs(y1 - y0)
        return total / len(self.stage1_placement) / side

    @property
    def routed_overflow(self) -> int:
        if self.refinement is None or not self.refinement.passes:
            return 0
        return self.refinement.final_pass.overflow

    def placement(self) -> Dict[str, Tuple[float, float]]:
        """Final cell centers by name."""
        state = self.state
        return {name: state.records[state.index[name]].center for name in state.names}

    def summary(self) -> str:
        w, h = self.chip_dimensions
        lines = [
            f"circuit {self.circuit.name}: {self.circuit.num_cells} cells, "
            f"{self.circuit.num_nets} nets, {self.circuit.num_pins} pins",
            f"  TEIL  {self.teil:12.1f}   (stage 1: {self.stage1_teil:.1f}, "
            f"change {self.teil_change_pct:+.1f}%)",
            f"  area  {self.chip_area:12.1f}   ({w:.0f} x {h:.0f}, "
            f"change {self.area_change_pct:+.1f}%)",
            f"  residual overlap {self.stage1.residual_overlap:10.2f}",
            f"  routing overflow {self.routed_overflow:d}",
            f"  elapsed {self.elapsed_seconds:.1f}s",
        ]
        if self.truncated:
            reason = ""
            if self.budget_report is not None:
                reason = f" ({self.budget_report.get('exhausted')})"
            lines.append(f"  TRUNCATED: run budget exhausted{reason}")
        if self.failures:
            stages = ", ".join(f["stage"] for f in self.failures)
            lines.append(f"  recovered failures: {stages}")
        return "\n".join(lines)


def _build_control(
    circuit: Circuit,
    config: TimberWolfConfig,
    budget: Optional[Budget],
    checkpoint: Optional[CheckpointPolicy],
) -> RunControl:
    manager = None
    if checkpoint is not None:
        manager = CheckpointManager(checkpoint, dumps(circuit), config.to_dict())
    return RunControl(budget=budget, manager=manager)


def _stage1_summary(
    stage1: Stage1Result, stage1_metrics: Tuple
) -> Dict[str, Any]:
    """The plain-data stage-1 record a stage-2 checkpoint carries, so a
    resumed process can rebuild the :class:`Stage1Result` (the placement
    state itself travels in the checkpoint's ``state`` entry)."""
    teil, area, placement = stage1_metrics
    anneal = stage1.anneal
    return {
        "p2": stage1.p2,
        "anneal_steps": [
            (s.temperature, s.attempts, s.accepts, s.cost_after, s.seconds)
            for s in anneal.steps
        ],
        "anneal_final_cost": anneal.final_cost,
        "anneal_truncated": anneal.truncated,
        "anneal_stop_reason": anneal.stop_reason,
        "teil": teil,
        "chip_area": area,
        "placement": {name: tuple(c) for name, c in placement.items()},
    }


def place_and_route(
    circuit: Circuit,
    config: Optional[TimberWolfConfig] = None,
    tracer: Optional[Tracer] = None,
    collect_trace: bool = True,
    budget: Optional[Budget] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
) -> TimberWolfResult:
    """Run the full two-stage TimberWolfMC flow on a circuit.

    ``tracer`` routes the run's telemetry (stage spans, per-temperature
    annealing snapshots, router events) into the caller's sinks — e.g.
    ``Tracer(FileSink(path))`` for a JSONL trace that
    :mod:`repro.telemetry.report` can turn into the paper's diagnostic
    tables.  With ``collect_trace`` (the default) the same events are
    also kept in memory on ``result.trace_events`` so
    :mod:`repro.flow.report` can include stage timings; pass
    ``collect_trace=False`` with no tracer to run with telemetry fully
    disabled.

    ``budget`` bounds the run (wall clock, temperatures, or moves): when
    it runs dry the anneal freezes early and the result is flagged
    ``truncated``.  ``checkpoint`` (a :class:`CheckpointPolicy`) enables
    periodic snapshots plus SIGINT/SIGTERM trapping; an interrupted run
    raises :class:`~repro.resilience.FlowInterrupted` whose
    ``checkpoint_path`` feeds :func:`~repro.flow.resume_place_and_route`.
    """
    config = config if config is not None else TimberWolfConfig()
    control = _build_control(circuit, config, budget, checkpoint)
    return _place_and_route_controlled(circuit, config, tracer, collect_trace, control)


def _place_and_route_controlled(
    circuit: Circuit,
    config: TimberWolfConfig,
    tracer: Optional[Tracer],
    collect_trace: bool,
    control: RunControl,
    resume: Optional[Dict[str, Any]] = None,
    resumed_from: Optional[str] = None,
) -> TimberWolfResult:
    """The shared body behind ``place_and_route`` and resume."""
    start = time.monotonic()
    if control.budget is not None:
        control.budget.start()

    mem = MemorySink() if collect_trace else None
    if tracer is None:
        run_tracer = Tracer(mem) if mem is not None else Tracer()
        borrowed = False
    else:
        run_tracer = tracer
        borrowed = True
        if mem is not None:
            run_tracer.add_sink(mem)

    try:
        with use_tracer(run_tracer):
            if control.manager is not None:
                with trap_signals(control.interrupt):
                    stage1, refinement, stage1_metrics = _run_flow(
                        circuit, config, run_tracer, control, resume
                    )
            else:
                stage1, refinement, stage1_metrics = _run_flow(
                    circuit, config, run_tracer, control, resume
                )
    finally:
        if borrowed and mem is not None:
            run_tracer.remove_sink(mem)

    stage1_teil, stage1_area, stage1_placement = stage1_metrics
    truncated = stage1.anneal.truncated or (
        refinement is not None and refinement.truncated
    )
    return TimberWolfResult(
        circuit=circuit,
        config=config,
        stage1=stage1,
        refinement=refinement,
        stage1_teil=stage1_teil,
        stage1_chip_area=stage1_area,
        stage1_placement=stage1_placement,
        elapsed_seconds=time.monotonic() - start,
        trace_events=mem.events if mem is not None else None,
        truncated=truncated,
        budget_report=(
            dict(control.budget.report()) if control.budget is not None else None
        ),
        failures=[f.to_dict() for f in control.supervisor.failures],
        resumed_from=resumed_from,
    )


def _run_flow(
    circuit: Circuit,
    config: TimberWolfConfig,
    tracer: Tracer,
    control: RunControl,
    resume: Optional[Dict[str, Any]] = None,
) -> Tuple[Stage1Result, Optional[RefinementResult], Tuple]:
    """The instrumented flow body: one span per stage (Table-4 rows).

    ``resume`` is a checkpoint payload; its ``phase`` (``stage1``,
    ``parallel1`` or ``stage2``) says where the run continues.  The
    single-chain flow threads ``rng`` through both stages so a resumed
    run replays the exact RNG stream of the uninterrupted one.  The
    multi-chain flow (``config.parallel.chains > 1``) gives every chain
    its own derived stream and hands the untouched ``rng`` to stage 2.
    """
    # spawn_seed(seed, 0) == seed: the single-chain stream is exactly
    # the historical random.Random(config.seed) one.
    rng = random.Random(spawn_seed(config.seed, 0))
    phase = resume["phase"] if resume is not None else None
    multichain = config.parallel.chains > 1 or phase == "parallel1"
    with tracer.span(
        "flow",
        circuit=circuit.name,
        cells=circuit.num_cells,
        nets=circuit.num_nets,
        pins=circuit.num_pins,
        seed=config.seed,
    ):
        start_pass = 0
        if phase == "stage2":
            stage1, stage1_metrics, start_pass = _restore_stage2(
                circuit, config, control, rng, resume, tracer
            )
        else:
            with tracer.span("stage1", chains=config.parallel.chains):
                if multichain:
                    # Deferred import: multiprocessing machinery, only
                    # touched when K > 1 chains are requested.
                    from ..parallel.multichain import run_multichain_stage1

                    stage1 = run_multichain_stage1(
                        circuit, config, control=control, resume=resume
                    )
                else:
                    stage1 = run_stage1(
                        circuit, config, rng, control=control, resume=resume
                    )

            # Record the stage-1 metrics on a *legal* placement so the
            # Table-3 comparison is apples-to-apples with stage 2.
            with tracer.span("stage1.legalize"):
                residual = remove_overlaps(
                    stage1.state, min_gap=circuit.track_spacing
                )
            warn_residual(residual, "after stage 1")
            stage1_teil = stage1.state.teil()
            stage1_area = stage1.state.chip_area()
            stage1_placement = {
                name: stage1.state.records[stage1.state.index[name]].center
                for name in stage1.state.names
            }
            stage1_metrics = (stage1_teil, stage1_area, stage1_placement)
            if tracer.enabled:
                tracer.event(
                    "stage1.legalized",
                    teil=round(stage1_teil, 2),
                    chip_area=round(stage1_area, 2),
                )

        if control.manager is not None:
            control.manager.stage1_summary = _stage1_summary(
                stage1, stage1_metrics
            )

        refinement = None
        if stage1.anneal.truncated:
            # The budget died inside stage 1: skip stage 2 entirely and
            # hand back the legalized stage-1 placement.
            if tracer.enabled:
                tracer.event("stage2.skipped", reason="budget")
        elif config.refinement_passes > 0:
            with tracer.span("stage2", passes=config.refinement_passes):
                refinement = run_refinement(
                    circuit, stage1, config, rng,
                    control=control, start_pass=start_pass,
                )
    return stage1, refinement, stage1_metrics


def _restore_stage2(
    circuit: Circuit,
    config: TimberWolfConfig,
    control: RunControl,
    rng: random.Random,
    payload: Dict[str, Any],
    tracer: Tracer,
) -> Tuple[Stage1Result, Tuple, int]:
    """Rebuild the stage-1 artifacts from a stage-2 checkpoint payload
    and position ``rng`` at the captured pass boundary."""
    summary = payload["stage1"]
    stage1 = restore_stage1(
        circuit,
        config,
        control,
        payload["state"],
        summary["anneal_steps"],
        summary["anneal_stop_reason"],
        truncated=summary["anneal_truncated"],
        final_cost=summary["anneal_final_cost"],
    )
    rng.setstate(_as_rng_state(payload["rng_state"]))
    if control.manager is not None:
        control.manager.stage1_summary = summary
    if tracer.enabled:
        tracer.event(
            "checkpoint.resumed",
            phase="stage2",
            pass_index=payload["pass_index"],
        )
    metrics = (
        summary["teil"],
        summary["chip_area"],
        {name: tuple(c) for name, c in summary["placement"].items()},
    )
    return stage1, metrics, payload["pass_index"]


def _as_rng_state(value):
    """``random.setstate`` demands the exact nested-tuple shape that
    ``getstate`` produced; pickled payloads preserve it, but payloads
    that round-tripped through JSON arrive as lists."""
    if isinstance(value, list):
        return tuple(_as_rng_state(v) for v in value)
    return value
