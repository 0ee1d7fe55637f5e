"""Trace views: span trees, waterfalls, and profiles from recorded runs.

Every recorded run leaves its log — one trace JSONL per attempt,
``trace.jsonl`` (its ``--trace`` name) or ``trace-attempt-NN.jsonl`` —
in its rundir.  This module turns them into the documents the obs
server and the ``repro trace`` CLI serve:

* :func:`span_tree` — nested spans with their paths and self times,
  re-exported from :mod:`repro.telemetry.report`, which holds the one
  begin/end join (unclosed spans are kept with ``end: null`` so a
  crashed attempt is still legible);
* :func:`waterfall` — the flat Gantt rows (start/end offsets against
  the trace origin, depth, path, self time) a renderer draws directly;
* :func:`trace_document` — one rundir's (or one trace file's) merged
  view: one *process section* per trace file (a retried job has one
  file per attempt), plus the trace ids found in them;
* :func:`render_trace_html` — a dependency-free HTML waterfall;
* :func:`profile_document` — the sampling profiler's collapsed stacks
  re-aggregated into the per-stage attribution summary.

Everything reads files tolerantly (torn tails, missing files) — these
are live runs being observed, not archives.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..qor.recorder import run_logs
from ..telemetry.profile import attribution_from_collapsed
from ..telemetry.report import load_events, span_tree, walk_spans

#: The sampling profiler's output in a rundir.
PROFILE_NAME = "profile.collapsed"


def waterfall(roots: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten a span tree into ordered Gantt rows.

    ``start``/``end`` are seconds from the trace origin; an unclosed
    span's end is extended to the latest end seen anywhere (so the bar
    shows "still open when the trace stopped", not zero width).
    """
    rows = [
        {
            "name": node["name"],
            "path": node["path"],
            "depth": depth,
            "start": node["start"],
            "end": node["end"],
            "wall_s": node["wall_s"],
            "self_s": node["self_s"],
            "ok": node["ok"],
            "chain": node.get("chain"),
            "events": node["events"],
        }
        for depth, node in walk_spans(roots)
    ]
    horizon = max(
        (r["end"] for r in rows if r["end"] is not None), default=None
    )
    for row in rows:
        if row["end"] is None and row["start"] is not None:
            row["end"] = horizon if horizon is not None else row["start"]
            row["open"] = True
    return rows


def trace_ids_of(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Distinct ``trace_id`` stamps in one event stream (normally one)."""
    seen: List[str] = []
    for ev in events:
        tid = ev.get("trace_id")
        if tid and tid not in seen:
            seen.append(tid)
    return seen


def trace_document(
    path: Union[str, Path], run_id: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """The merged trace view of a rundir or of one trace file, or None
    when there is no trace.

    One *process section* per run log, oldest attempt first: a run
    resumed in the same rundir (or a service job retried after a
    SIGKILL) leaves ``trace-attempt-01.jsonl`` and
    ``trace-attempt-02.jsonl``, and both attempts appear here under the
    same trace id.  A single file gives a one-section document.
    """
    path = Path(path)
    files = [path] if path.is_file() else run_logs(path)
    if not files:
        return None
    processes: List[Dict[str, Any]] = []
    all_trace_ids: List[str] = []
    for log in files:
        events = load_events(log)
        roots = span_tree(events)
        tids = trace_ids_of(events)
        for tid in tids:
            if tid not in all_trace_ids:
                all_trace_ids.append(tid)
        processes.append(
            {
                "file": log.name,
                "events": len(events),
                "trace_ids": tids,
                "spans": roots,
                "waterfall": waterfall(roots),
            }
        )
    return {
        "run_id": run_id,
        "rundir": str(path.parent if path.is_file() else path),
        "trace_id": all_trace_ids[0] if len(all_trace_ids) == 1 else None,
        "trace_ids": all_trace_ids,
        "processes": processes,
        "span_count": sum(
            len(p["waterfall"]) for p in processes
        ),
    }


def profile_document(rundir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The rundir's sampling profile: raw collapsed stacks plus the
    recomputed per-stage attribution (None when never profiled)."""
    path = Path(rundir) / PROFILE_NAME
    if not path.is_file():
        return None
    text = path.read_text(encoding="utf-8")
    doc = attribution_from_collapsed(text)
    doc["file"] = str(path)
    doc["collapsed"] = text
    return doc


# -- HTML rendering ---------------------------------------------------------

_HTML_HEAD = """<!doctype html>
<html><head><meta charset="utf-8"><title>{title}</title><style>
body {{ font: 13px/1.5 system-ui, sans-serif; margin: 2em; color: #222; }}
h1, h2 {{ font-weight: 600; }} h1 {{ font-size: 1.3em; }} h2 {{ font-size: 1.05em; }}
.meta {{ color: #666; margin-bottom: 1em; }}
.lane {{ position: relative; height: 22px; margin: 1px 0; }}
.label {{ position: absolute; left: 0; width: 28em; overflow: hidden;
  white-space: nowrap; text-overflow: ellipsis; color: #333; }}
.track {{ position: absolute; left: 29em; right: 0; top: 3px; height: 16px;
  background: #f3f3f3; border-radius: 3px; }}
.bar {{ position: absolute; top: 0; height: 16px; border-radius: 3px;
  background: #4c82c3; min-width: 2px; }}
.bar.failed {{ background: #c0392b; }} .bar.open {{ background: #e6a23c; }}
.dur {{ color: #888; font-size: 11px; margin-left: 4px; }}
table {{ border-collapse: collapse; margin: 0.5em 0 1.5em; }}
td, th {{ padding: 2px 10px; text-align: left; border-bottom: 1px solid #eee; }}
</style></head><body>
"""


def _render_waterfall(rows: List[Dict[str, Any]]) -> str:
    starts = [r["start"] for r in rows if r["start"] is not None]
    ends = [r["end"] for r in rows if r["end"] is not None]
    if not starts:
        return "<p class=meta>no spans</p>"
    t0, t1 = min(starts), max(ends) if ends else min(starts)
    total = max(t1 - t0, 1e-9)
    out: List[str] = []
    for row in rows:
        if row["start"] is None:
            continue
        left = 100.0 * (row["start"] - t0) / total
        width = max(100.0 * ((row["end"] or row["start"]) - row["start"]) / total, 0.15)
        classes = "bar"
        if row.get("ok") is False:
            classes += " failed"
        if row.get("open"):
            classes += " open"
        indent = "&nbsp;" * (2 * row["depth"])
        label = html.escape(str(row["name"]))
        if row.get("chain") is not None:
            label += f" <span class=dur>chain {row['chain']}</span>"
        dur = (
            f"{row['wall_s']:.3f}s" if row.get("wall_s") is not None else "open"
        )
        out.append(
            f'<div class=lane><span class=label>{indent}{label}'
            f'<span class=dur>{dur}</span></span>'
            f'<span class=track><span class="{classes}" '
            f'style="left:{left:.2f}%;width:{width:.2f}%"></span></span></div>'
        )
    return "\n".join(out)


def render_trace_html(doc: Dict[str, Any]) -> str:
    """The whole trace document as a standalone HTML waterfall page."""
    title = f"trace {doc.get('trace_id') or doc.get('run_id') or ''}".strip()
    parts = [_HTML_HEAD.format(title=html.escape(title or "trace"))]
    parts.append(f"<h1>{html.escape(title or 'trace')}</h1>")
    meta = []
    if doc.get("run_id"):
        meta.append(f"run {html.escape(str(doc['run_id']))}")
    if doc.get("trace_ids"):
        meta.append(
            "trace " + ", ".join(html.escape(t) for t in doc["trace_ids"])
        )
    parts.append(f"<p class=meta>{' · '.join(meta)}</p>")
    journal = doc.get("journal")
    if journal:
        parts.append("<h2>service journal</h2><table>")
        parts.append("<tr><th>ts</th><th>event</th><th>job</th><th>detail</th></tr>")
        for ev in journal:
            detail = {
                k: v
                for k, v in ev.items()
                if k not in ("ts", "event", "job_id", "trace_id")
            }
            parts.append(
                "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>"
                % (
                    html.escape(f"{ev.get('ts', 0):.3f}"),
                    html.escape(str(ev.get("event"))),
                    html.escape(str(ev.get("job_id") or "")),
                    html.escape(json.dumps(detail, sort_keys=True, default=str)),
                )
            )
        parts.append("</table>")
    sections = doc.get("runs") or [doc]
    for run in sections:
        for proc in run.get("processes", ()):
            head = proc["file"]
            if run is not doc and run.get("run_id"):
                head = f"{run['run_id']} · {head}"
            parts.append(f"<h2>{html.escape(head)}</h2>")
            parts.append(_render_waterfall(proc["waterfall"]))
    parts.append("</body></html>\n")
    return "\n".join(parts)
