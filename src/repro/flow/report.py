"""Detailed textual reports for a completed flow run.

``TimberWolfResult.summary()`` is the one-screen view; this module
produces the longer engineering report a user would archive with a run:
per-net routed lengths, the busiest channels with their Eqn-22 widths,
custom-cell decisions, and the annealing trajectory.
"""

from __future__ import annotations

from typing import List

from ..bench.metrics import format_table
from ..channels import region_densities, required_channel_width
from ..netlist import CustomCell
from ..telemetry.report import TIME_DIGITS, stage_summary
from .timberwolf import TimberWolfResult


def annealing_trace(result: TimberWolfResult, every: int = 10) -> str:
    """The stage-1 temperature trajectory: T, acceptance rate, cost."""
    steps = result.stage1.anneal.steps
    rows = []
    for i, s in enumerate(steps):
        if i % every == 0 or i == len(steps) - 1:
            rows.append(
                [i, f"{s.temperature:.3g}", f"{s.acceptance_rate:.2f}", round(s.cost_after, 1)]
            )
    return format_table(["step", "T", "accept rate", "cost"], rows)


def net_report(result: TimberWolfResult, top: int = 15) -> str:
    """Longest routed nets (or net spans when routing was skipped)."""
    if result.refinement is not None and result.refinement.passes:
        lengths = result.refinement.final_pass.routing.lengths
        rows = sorted(lengths.items(), key=lambda kv: -kv[1])[:top]
        body = [[net, round(length, 1)] for net, length in rows]
        return format_table(["net", "routed length"], body)
    state = result.state
    rows = [
        (name, xs + ys) for name, (xs, ys) in state.net_spans().items()
    ]
    rows.sort(key=lambda kv: -kv[1])
    body = [[net, round(length, 1)] for net, length in rows[:top]]
    return format_table(["net", "span (HPWL)"], body)


def channel_report(result: TimberWolfResult, top: int = 12) -> str:
    """Busiest channels: density, required width, available width."""
    if result.refinement is None or not result.refinement.passes:
        return "(no refinement pass was run; no channels to report)"
    final = result.refinement.final_pass
    graph = final.graph
    densities = region_densities(graph, final.routing.routes)
    t_s = result.circuit.track_spacing
    ranked = sorted(densities.items(), key=lambda kv: -kv[1])[:top]
    rows = []
    for idx, density in ranked:
        region = graph.regions[idx]
        a, b = region.cells()
        rows.append(
            [
                f"{a}|{b}",
                region.axis,
                density,
                round(required_channel_width(density, t_s), 1),
                round(region.width, 1),
            ]
        )
    return format_table(
        ["channel", "axis", "density", "required w", "available w"], rows
    )


def router_report(result: TimberWolfResult) -> str:
    """Global-router and channel-definition statistics, one row per
    refinement pass this run executed, read from the stored passes."""
    if result.refinement is None or not result.refinement.passes:
        return "(no refinement pass was run; no routing to report)"
    rows = [
        [
            p.index,
            len(p.graph.regions),
            p.graph.num_free_nodes,
            len(p.routing.routes),
            len(p.routing.unrouted),
            round(p.routing.total_length, 1),
            p.overflow,
        ]
        for p in result.refinement.passes
    ]
    return format_table(
        ["pass", "regions", "free rects", "nets", "unrouted", "length", "overflow"],
        rows,
    )


def stage_timing_report(result: TimberWolfResult) -> str:
    """Per-stage wall/CPU times from the run's trace (Table 4 analogue)."""
    events = result.trace_events
    if not events:
        return (
            "(telemetry disabled; rerun with tracing for per-stage timings)"
        )
    headers, rows = stage_summary(events)
    if not rows:
        return "(trace contains no completed spans)"
    return format_table(headers, rows, digits=TIME_DIGITS)


def chip_planning_report(result: TimberWolfResult) -> str:
    """Aspect-ratio / instance / pin-site decisions for every cell that
    had freedom (the chip-planning outputs of §1)."""
    state = result.state
    rows: List[List[object]] = []
    for name in state.names:
        cell = result.circuit.cells[name]
        record = state.records[state.index[name]]
        if isinstance(cell, CustomCell):
            w, h = cell.dimensions(record.aspect_ratio)
            rows.append(
                [name, "custom", f"AR {record.aspect_ratio:.2f} ({w:.0f}x{h:.0f})",
                 len(record.pin_sites)]
            )
        elif cell.num_instances > 1:
            inst = cell.instances[record.instance].name
            rows.append([name, "macro", f"instance {inst!r}", ""])
    if not rows:
        return "(no cells with instance or aspect-ratio freedom)"
    return format_table(["cell", "kind", "decision", "pin groups"], rows)


def full_report(result: TimberWolfResult) -> str:
    """The complete multi-section report."""
    sections = [
        result.summary(),
        "",
        "-- chip planning " + "-" * 40,
        chip_planning_report(result),
        "",
        "-- busiest channels " + "-" * 37,
        channel_report(result),
        "",
        "-- longest nets " + "-" * 41,
        net_report(result),
        "",
        "-- router / channel definition " + "-" * 26,
        router_report(result),
        "",
        "-- stage timings " + "-" * 40,
        stage_timing_report(result),
        "",
        "-- stage-1 annealing trace " + "-" * 30,
        annealing_trace(result),
    ]
    return "\n".join(sections) + "\n"
