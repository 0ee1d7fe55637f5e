"""CLI handler for ``python -m repro trace``.

Offline access to the same trace views the obs server serves: ``show``
prints a span tree (with per-span wall and self time and event counts)
straight from a rundir or a single trace JSONL, folding each run of
repeated leaf siblings into one ``name ×N`` row; ``export`` writes the merged
trace document as JSON or as the standalone HTML waterfall.  Kept in
its own module so ``repro.__main__`` registers the command without
importing the obs view code until it actually runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List


def add_trace_command(subparsers: argparse._SubParsersAction) -> None:
    """Register ``trace`` (with ``show`` / ``export``) on the parser."""
    trace_p = subparsers.add_parser(
        "trace",
        help="inspect recorded trace files: span trees, waterfalls, "
        "HTML/JSON export",
    )
    verbs = trace_p.add_subparsers(dest="trace_command", required=True)

    show_p = verbs.add_parser(
        "show", help="print the span tree of a rundir or trace JSONL"
    )
    show_p.add_argument(
        "path", help="rundir holding trace*.jsonl, or one trace file"
    )
    show_p.add_argument(
        "--waterfall",
        action="store_true",
        help="flat Gantt rows (offset/width bars) instead of the tree",
    )
    show_p.set_defaults(func=cmd_trace_show)

    export_p = verbs.add_parser(
        "export", help="write the merged trace document (JSON or HTML)"
    )
    export_p.add_argument(
        "path", help="rundir holding trace*.jsonl, or one trace file"
    )
    export_p.add_argument(
        "--out", default=None, help="output file (default: stdout)"
    )
    export_p.add_argument(
        "--html",
        action="store_true",
        help="render the standalone HTML waterfall instead of JSON",
    )
    export_p.set_defaults(func=cmd_trace_export)


def _fold_leaves(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The tree view's rows (depth first, as ``waterfall`` orders them)
    with each run of consecutive closed sibling spans of one name and
    chain that have no child spans folded into one row: ``count``
    spans, their wall and self times and events summed, failed if any
    failed.  A span with children never folds."""
    out: List[Dict[str, Any]] = []
    for k, row in enumerate(rows):
        leaf = k + 1 == len(rows) or rows[k + 1]["depth"] <= row["depth"]
        last = out[-1] if out else None
        if (
            leaf
            and last is not None
            and last["leaf"]
            and row["wall_s"] is not None
            and last["wall_s"] is not None
            and (last["depth"], last["name"], last["chain"])
            == (row["depth"], row["name"], row["chain"])
        ):
            last["count"] += 1
            last["wall_s"] += row["wall_s"]
            last["self_s"] += row["self_s"]
            last["events"] += row["events"]
            if row["ok"] is False:
                last["ok"] = False
            continue
        out.append(dict(row, count=1, leaf=leaf))
    return out


def _format_span(row: Dict[str, Any]) -> str:
    name = row["name"] if row["count"] == 1 else f"{row['name']} ×{row['count']}"
    dur = f"{row['wall_s']:.3f}s" if row["wall_s"] is not None else "open"
    own = f"  self {row['self_s']:.3f}s" if row["self_s"] is not None else ""
    status = ""
    if row["ok"] is False:
        status = " FAILED"
    elif row.get("open"):
        status = " (unclosed)"
    chain = f" chain={row['chain']}" if row["chain"] is not None else ""
    events = f" events={row['events']}" if row["events"] else ""
    return f"{'  ' * row['depth']}{name}  {dur}{own}{chain}{events}{status}"


def _format_waterfall(rows: List[Dict[str, Any]]) -> List[str]:
    starts = [r["start"] for r in rows if r["start"] is not None]
    ends = [r["end"] for r in rows if r["end"] is not None]
    if not starts:
        return ["(no spans)"]
    t0 = min(starts)
    total = max((max(ends) if ends else t0) - t0, 1e-9)
    width = 40
    lines: List[str] = []
    for row in rows:
        if row["start"] is None:
            continue
        left = int(width * (row["start"] - t0) / total)
        right = int(width * ((row["end"] or row["start"]) - t0) / total)
        bar = " " * left + "#" * max(right - left, 1)
        dur = f"{row['wall_s']:.3f}s" if row.get("wall_s") is not None else "open"
        name = ("  " * row["depth"] + str(row["name"]))[:30]
        lines.append(f"{name:<30} |{bar:<{width}}| {dur}")
    return lines


def cmd_trace_show(args: argparse.Namespace) -> int:
    from ..obs.trace import trace_document

    doc = trace_document(args.path)
    if doc is None:
        print(f"no trace files under {args.path}", file=sys.stderr)
        return 1
    lines: List[str] = []
    if doc.get("trace_ids"):
        lines.append("trace " + ", ".join(doc["trace_ids"]))
    for proc in doc["processes"]:
        lines.append(f"-- {proc['file']} ({proc['events']} events)")
        if args.waterfall:
            lines.extend(_format_waterfall(proc["waterfall"]))
        else:
            lines.extend(_format_span(row) for row in _fold_leaves(proc["waterfall"]))
    print("\n".join(lines))
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    from ..obs.trace import render_trace_html, trace_document

    doc = trace_document(args.path)
    if doc is None:
        print(f"no trace files under {args.path}", file=sys.stderr)
        return 1
    if args.html:
        text = render_trace_html(doc)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0
