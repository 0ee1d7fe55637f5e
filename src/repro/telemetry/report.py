"""Turn a telemetry trace into the paper's diagnostic artifacts.

Given a JSONL trace (or an in-memory event list) this module rebuilds:

* the acceptance-ratio-vs-temperature table — the Fig. 3/5 analogue,
  one row per temperature step of each anneal in the trace;
* the cost-vs-iteration table — the Fig. 4/6 analogue, tracking the
  total cost and its C1/C2/C3 components across temperature steps;
* the per-stage time/cost summary — the Table 4 analogue, aggregating
  every span by its path with wall/CPU totals and self times.

Every table that needs the span structure reads it from
:func:`span_tree`, the one join of the trace's begin/end pairs; the
obs server's trace views and ``repro trace`` read the same join.

Each table is available as ``(headers, rows)`` for programmatic use,
as CSV files, and as plain text.  Run as a CLI::

    python -m repro.telemetry.report TRACE.jsonl [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..bench.metrics import format_table
from .tracer import JsonlTailer

Event = Dict[str, Any]
Table = Tuple[List[str], List[List[Any]]]


def load_events(source: Union[str, Path, Iterable[Event]]) -> List[Event]:
    """Events from a JSONL path or an already-parsed iterable.

    A trace from a crashed or killed run can end in a partial line (the
    FileSink is line-buffered, so at most the *final* line is cut off):
    a torn or malformed final line is silently skipped.  A malformed line
    with valid JSON after it is real corruption and still raises.
    """
    if isinstance(source, (str, Path)):
        return JsonlTailer(source, strict=True).poll()
    return list(source)


#: Begin-event bookkeeping fields excluded from a span's ``fields``.
_SPAN_META = {
    "ev", "name", "t", "span", "parent", "t_origin", "trace_id", "trace_span",
    "chain",
}


def span_tree(events: Sequence[Event]) -> List[Dict[str, Any]]:
    """Join begin/end pairs into nested span nodes (roots returned).

    This is the one begin/end join every trace reader uses.  Each node
    carries its ``path`` (the slash-joined names from its root) and its
    ``self_s``: its ``wall_s`` minus the summed ``wall_s`` of its closed
    direct children, floored at 0 — chain spans ingested from parallel
    workers ran at the same time, so their walls can sum past their
    parent's.  Events with an unknown parent become roots; spans without
    an end (the process died inside them) keep ``end``, ``ok`` and
    ``self_s`` None.
    """
    nodes: Dict[Any, Dict[str, Any]] = {}
    every: List[Dict[str, Any]] = []
    roots: List[Dict[str, Any]] = []
    for ev in events:
        kind = ev.get("ev")
        if kind == "span_begin":
            parent = nodes.get(ev.get("parent"))
            name = ev.get("name")
            node = {
                "span": ev.get("span"),
                "name": name,
                "path": name if parent is None else f"{parent['path']}/{name}",
                "start": ev.get("t"),
                "end": None,
                "wall_s": None,
                "cpu_s": None,
                "self_s": None,
                "ok": None,
                "chain": ev.get("chain"),
                "trace_id": ev.get("trace_id"),
                "fields": {
                    k: v for k, v in ev.items() if k not in _SPAN_META
                },
                "events": 0,
                "children": [],
            }
            nodes[ev.get("span")] = node
            every.append(node)
            (roots if parent is None else parent["children"]).append(node)
        elif kind == "span_end":
            node = nodes.get(ev.get("span"))
            if node is not None:
                node["end"] = ev.get("t")
                node["wall_s"] = ev.get("wall_s")
                node["cpu_s"] = ev.get("cpu_s")
                node["ok"] = ev.get("ok")
                if "error" in ev:
                    node["error"] = ev["error"]
        elif kind == "event":
            node = nodes.get(ev.get("span"))
            if node is not None:
                node["events"] += 1
    for node in every:
        if node["wall_s"] is not None:
            children = sum(
                c["wall_s"] for c in node["children"] if c["wall_s"] is not None
            )
            node["self_s"] = max(node["wall_s"] - children, 0.0)
    return roots


def walk_spans(
    nodes: Sequence[Dict[str, Any]], depth: int = 0
) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """``(depth, node)`` for every node of a span tree, depth first,
    siblings in start order."""
    for node in sorted(nodes, key=lambda n: (n["start"] is None, n["start"])):
        yield depth, node
        yield from walk_spans(node["children"], depth + 1)


def span_paths(events: Sequence[Event]) -> Dict[int, str]:
    """Map each span id to its path in :func:`span_tree`."""
    return {
        node["span"]: node["path"] for _, node in walk_spans(span_tree(events))
    }


def _temperature_events(events: Sequence[Event]) -> List[Tuple[str, Event]]:
    paths = span_paths(events)
    out = []
    for ev in events:
        if ev.get("ev") == "event" and ev.get("name") == "anneal.temperature":
            out.append((paths.get(ev.get("span", -1), ""), ev))
    return out


def acceptance_table(events: Sequence[Event]) -> Table:
    """Acceptance ratio vs. temperature, one row per temperature step.

    Multi-chain traces tag each per-temperature event with its chain id
    (the ``chain`` column; blank for single-chain runs).
    """
    headers = [
        "phase",
        "step",
        "T",
        "attempts",
        "accepts",
        "acceptance",
        "window_x",
        "window_y",
        "moves_per_sec",
        "chain",
    ]
    rows: List[List[Any]] = []
    for phase, ev in _temperature_events(events):
        rows.append(
            [
                phase,
                ev.get("step"),
                ev.get("T"),
                ev.get("attempts"),
                ev.get("accepts"),
                ev.get("acceptance"),
                ev.get("window_x"),
                ev.get("window_y"),
                ev.get("moves_per_sec"),
                ev.get("chain", ""),
            ]
        )
    return headers, rows


def cost_table(events: Sequence[Event]) -> Table:
    """Cost (and its C1/C2/C3 components) vs. temperature step."""
    headers = ["phase", "step", "T", "cost", "c1", "c2", "c3", "chain"]
    rows: List[List[Any]] = []
    for phase, ev in _temperature_events(events):
        rows.append(
            [
                phase,
                ev.get("step"),
                ev.get("T"),
                ev.get("cost"),
                ev.get("c1"),
                ev.get("c2"),
                ev.get("c3"),
                ev.get("chain", ""),
            ]
        )
    return headers, rows


def chain_summary(events: Sequence[Event]) -> Table:
    """Per-chain roll-up of a multi-chain (``parallel1``) anneal.

    One row per chain: temperature steps run, move totals, the chain's
    last reported cost, how many times the exchange step restarted it
    from the best state, and whether it won.  Empty for single-chain
    traces (no ``chain``-tagged events).
    """
    headers = [
        "chain",
        "steps",
        "attempts",
        "accepts",
        "acceptance",
        "final_cost",
        "exchanges_in",
        "winner",
    ]
    per_chain: Dict[Any, Dict[str, Any]] = {}
    exchanges: Dict[Any, int] = {}
    winner = None
    for ev in events:
        if ev.get("ev") != "event":
            continue
        name = ev.get("name")
        if name == "anneal.temperature" and "chain" in ev:
            entry = per_chain.setdefault(
                ev["chain"], {"steps": 0, "attempts": 0, "accepts": 0, "cost": None}
            )
            entry["steps"] += 1
            entry["attempts"] += ev.get("attempts") or 0
            entry["accepts"] += ev.get("accepts") or 0
            entry["cost"] = ev.get("cost")
        elif name == "parallel.exchange":
            for target in ev.get("targets", ()):
                exchanges[target] = exchanges.get(target, 0) + 1
        elif name == "parallel.winner":
            winner = ev.get("chain")
    rows: List[List[Any]] = []
    for chain in sorted(per_chain):
        entry = per_chain[chain]
        acceptance = (
            round(entry["accepts"] / entry["attempts"], 4)
            if entry["attempts"]
            else 0.0
        )
        rows.append(
            [
                chain,
                entry["steps"],
                entry["attempts"],
                entry["accepts"],
                acceptance,
                entry["cost"],
                exchanges.get(chain, 0),
                "yes" if chain == winner else "",
            ]
        )
    return headers, rows


#: Decimals of the time columns in text tables: 0.1 ms, the stage
#: summary's rounding, so a text table shows where the time went below
#: 100 ms too.
TIME_DIGITS = {"wall_s": 4, "cpu_s": 4, "self_s": 4}


def stage_summary(events: Sequence[Event]) -> Table:
    """Per-stage wall/CPU totals and self times of the closed spans,
    aggregated by path (the Table 4 analogue)."""
    agg: Dict[str, List[float]] = {}  # path -> [calls, wall, cpu, failed, self]
    for _, node in walk_spans(span_tree(events)):
        if node["wall_s"] is None:
            continue
        entry = agg.setdefault(node["path"], [0, 0.0, 0.0, 0, 0.0])
        entry[0] += 1
        entry[1] += node["wall_s"]
        entry[2] += node["cpu_s"] or 0.0
        entry[3] += node["ok"] is False
        entry[4] += node["self_s"]
    headers = ["stage", "calls", "wall_s", "cpu_s", "failed", "self_s"]
    rows = [
        [path, int(calls), round(wall, 4), round(cpu, 4), int(failed),
         round(self_s, 4)]
        for path, (calls, wall, cpu, failed, self_s) in sorted(agg.items())
    ]
    return headers, rows


def stage_cost_table(events: Sequence[Event]) -> Table:
    """Per-stage cost checkpoints (TEIL / chip area / overflow events)."""
    headers = ["stage", "teil", "chip_area", "overflow"]
    rows: List[List[Any]] = []
    for ev in events:
        if ev.get("ev") != "event":
            continue
        if ev.get("name") in ("stage1.result", "stage2.pass"):
            label = ev["name"]
            if ev.get("name") == "stage2.pass" and "index" in ev:
                label = f"stage2.pass[{ev['index']}]"
            rows.append(
                [label, ev.get("teil"), ev.get("chip_area"), ev.get("overflow", "")]
            )
    return headers, rows


def write_csv(table: Table, path: Union[str, Path]) -> None:
    headers, rows = table
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def render_text(events: Sequence[Event]) -> str:
    """All tables as one plain-text report.

    A trace with no annealing events (a routing-only run, or one cut
    off before the first temperature step) still renders: the
    annealing tables are replaced by a note and the stage summaries
    are emitted from whatever spans the trace does contain.
    """
    sections = []
    if not _temperature_events(events):
        sections.append(
            "note: no annealing events in this trace "
            "(acceptance/cost tables omitted)"
        )
        tables = [
            ("per-stage cost checkpoints (Table 3 analogue)", stage_cost_table(events)),
            ("per-stage time summary (Table 4 analogue)", stage_summary(events)),
        ]
    else:
        chains = chain_summary(events)
        tables = [
            ("acceptance ratio vs temperature (Fig. 3/5 analogue)", acceptance_table(events)),
            ("cost vs iteration (Fig. 4/6 analogue)", cost_table(events)),
            ("per-stage cost checkpoints (Table 3 analogue)", stage_cost_table(events)),
            ("per-stage time summary (Table 4 analogue)", stage_summary(events)),
        ]
        if chains[1]:
            tables.insert(2, ("multi-chain summary (best-of-K exchange)", chains))
    for title, table in tables:
        headers, rows = table
        body = (
            format_table(headers, rows, digits=TIME_DIGITS)
            if rows
            else "(no matching events)"
        )
        sections.append(f"== {title} ==\n{body}")
    return "\n\n".join(sections) + "\n"


def write_report(
    events: Sequence[Event], out_dir: Union[str, Path]
) -> Dict[str, Path]:
    """Write every artifact into ``out_dir``; returns name -> path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "acceptance_vs_temperature.csv": acceptance_table(events),
        "cost_vs_iteration.csv": cost_table(events),
        "stage_costs.csv": stage_cost_table(events),
        "stage_summary.csv": stage_summary(events),
        "chains.csv": chain_summary(events),
    }
    written: Dict[str, Path] = {}
    for name, table in artifacts.items():
        path = out / name
        write_csv(table, path)
        written[name] = path
    text_path = out / "report.txt"
    text_path.write_text(render_text(events), encoding="utf-8")
    written["report.txt"] = text_path
    return written


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's diagnostic tables from a trace."
    )
    parser.add_argument("trace", type=Path, help="JSONL trace file")
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="also write CSV + text artifacts into this directory",
    )
    args = parser.parse_args(argv)

    events = load_events(args.trace)
    if not events:
        print(f"no events in {args.trace}")
        return 1
    print(render_text(events), end="")
    if args.out_dir is not None:
        written = write_report(events, args.out_dir)
        print(f"\nwrote {len(written)} artifacts to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
