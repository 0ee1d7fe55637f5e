"""Prometheus text-format rendering of heartbeat documents.

The output follows the textfile-collector contract (one ``# TYPE`` line
per metric, ``metric{labels} value`` samples, trailing newline) so an
external node-exporter — or any scraper that understands the Prometheus
exposition format — can watch a fleet of runs by globbing their
``--metrics-textfile`` outputs.  Only numeric heartbeat fields become
samples; strings (phase, stage, run id) travel as labels on
``repro_run_info``.

:func:`render_prometheus_fleet` renders documents into one scrape page:
a single beat for the ``--metrics-textfile``, every live run for the
observability server's ``/metrics`` endpoint.  Every sample is labelled
by ``run_id``, and per-chain heartbeat entries are broken out under a
``chain`` label instead of being flattened into distinct metric names.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Tuple

#: Metric-name prefix for every exported sample.
PREFIX = "repro"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(field: str) -> str:
    return f"{PREFIX}_{_NAME_OK.sub('_', field)}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: Dict[str, str]) -> str:
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(pairs.items())
    )
    return "{" + inner + "}" if inner else ""


def _flatten(doc: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Split a heartbeat doc into numeric samples and string labels.

    Nested dicts flatten with ``_``-joined keys (``chains.0.cost`` →
    ``chains_0_cost``); booleans become 0/1 gauges.
    """
    numbers: Dict[str, float] = {}
    strings: Dict[str, str] = {}

    def visit(prefix: str, value: Any) -> None:
        if isinstance(value, bool):
            numbers[prefix] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            numbers[prefix] = float(value)
        elif isinstance(value, str):
            strings[prefix] = value
        elif isinstance(value, dict):
            for k, v in value.items():
                visit(f"{prefix}_{k}" if prefix else str(k), v)
        # lists and None are dropped: no stable Prometheus shape.

    for key, value in doc.items():
        visit(str(key), value)
    return numbers, strings


#: Heartbeat bookkeeping fields that never become samples.
_SKIP_FIELDS = ("v", "seq")

#: Per-chain numeric fields broken out under a ``chain`` label.
_CHAIN_FIELDS = ("cost", "done")


def _doc_samples(
    doc: Dict[str, Any], base_labels: Dict[str, str]
) -> List[Tuple[str, Dict[str, str], float]]:
    """One document's ``(metric, labels, value)`` samples plus its
    ``run_info`` sample.  The ``chains`` sub-document of a ``parallel``
    beat becomes ``repro_chain_*{chain="..."}`` series rather than one
    flattened metric name per chain id; a chain count (the stage-1
    ``flow`` beat's ``chains``) stays a plain gauge."""
    chains = doc.get("chains")
    if not isinstance(chains, dict):
        chains = None
    body = {k: v for k, v in doc.items() if chains is None or k != "chains"}
    numbers, strings = _flatten(body)
    samples: List[Tuple[str, Dict[str, str], float]] = []

    info_labels = dict(base_labels)
    for key in ("phase", "stage", "circuit"):
        if key in strings:
            info_labels[key] = strings[key]
    samples.append((f"{PREFIX}_run_info", info_labels, 1.0))

    for field in sorted(numbers):
        if field in _SKIP_FIELDS:
            continue
        samples.append((_metric_name(field), dict(base_labels), numbers[field]))

    if chains is not None:
        for cid in sorted(chains, key=str):
            entry = chains[cid]
            if not isinstance(entry, dict):
                continue
            labels = dict(base_labels)
            labels["chain"] = str(cid)
            for field in _CHAIN_FIELDS:
                value = entry.get(field)
                if isinstance(value, bool):
                    value = 1.0 if value else 0.0
                if isinstance(value, (int, float)):
                    samples.append(
                        (f"{PREFIX}_chain_{field}", labels, float(value))
                    )
    return samples


def render_prometheus_fleet(docs: Iterable[Dict[str, Any]]) -> str:
    """Many heartbeat documents as one Prometheus scrape page.

    Samples are grouped by metric name (a single ``# TYPE`` line per
    metric, as the exposition format requires) and labelled with each
    document's ``run_id`` — the shape a real ``/metrics`` endpoint must
    produce when several runs are live at once.
    """
    by_metric: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    order: List[str] = []
    for doc in docs:
        base_labels: Dict[str, str] = {}
        if doc.get("run_id"):
            base_labels["run_id"] = str(doc["run_id"])
        for name, labels, value in _doc_samples(doc, base_labels):
            if name not in by_metric:
                by_metric[name] = []
                order.append(name)
            by_metric[name].append((labels, value))

    lines: List[str] = []
    # run_info first (it anchors the page), then the rest sorted.
    for name in [PREFIX + "_run_info"] + sorted(
        n for n in order if n != PREFIX + "_run_info"
    ):
        if name not in by_metric:
            continue
        lines.append(f"# TYPE {name} gauge")
        for labels, value in by_metric[name]:
            lines.append(f"{name}{_labels(labels)} {value:g}")
    return "\n".join(lines) + "\n" if lines else "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{name{labels}: value}``.

    A strict little parser used by tests and the CI gate to prove the
    textfile is well-formed; raises ``ValueError`` on any malformed line.
    """
    samples: Dict[str, float] = {}
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(-?[0-9.eE+-]+|NaN|[+-]Inf)$"
    )
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = sample_re.match(line)
        if match is None:
            raise ValueError(f"malformed Prometheus sample line: {line!r}")
        name, labels, value = match.groups()
        samples[name + (labels or "")] = float(value)
    return samples
