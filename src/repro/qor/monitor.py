"""Live flow monitoring: render a rundir's manifest + heartbeat.

``python -m repro status <rundir>`` prints one snapshot; ``watch``
follows the run (line-mode refresh: one compact progress line per beat,
a full header when the phase changes) until the run's final beat lands.
``status`` reads the atomic heartbeat snapshot; ``watch`` — like every
reader of the beat stream — folds the run's log with a
:class:`BeatReader`.  Neither ever touches the run's process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from ..telemetry import JsonlTailer, follow
from .heartbeat import BeatFold, read_heartbeat
from .recorder import RunRecorder, run_logs

#: Heartbeats older than this (seconds) are flagged as stale in renders.
STALE_AFTER = 30.0

#: Terminal phases: a watch stops once one of these lands.
FINAL_PHASES = ("done", "failed", "interrupted")


def classify_state(
    beat: Optional[Dict[str, Any]],
    now: Optional[float] = None,
    stale_after: float = STALE_AFTER,
) -> str:
    """The run state implied by a heartbeat document (None = pending).

    ``running`` / ``stale`` for live beats (staleness from the beat's
    age; a final beat never goes stale), ``done`` / ``failed`` /
    ``interrupted`` once a terminal beat lands.  This is the single
    classifier shared by ``status``/``watch``, the ``status`` exit
    codes, and the observability server's fleet view.
    """
    if beat is None:
        return "pending"
    phase = beat.get("phase")
    if is_final(beat):
        return phase if phase in FINAL_PHASES else "done"
    now = now if now is not None else time.time()
    age = max(0.0, now - float(beat.get("updated", now)))
    return "stale" if age > stale_after else "running"


def beat_age(
    beat: Optional[Dict[str, Any]], now: Optional[float] = None
) -> Optional[float]:
    """Seconds since the beat was written (None when there is no beat)."""
    if beat is None or "updated" not in beat:
        return None
    now = now if now is not None else time.time()
    return round(max(0.0, now - float(beat["updated"])), 3)


def is_final(beat: Dict[str, Any]) -> bool:
    """Whether a beat is its run's last."""
    return bool(beat.get("final") or beat.get("phase") in FINAL_PHASES)


class BeatReader:
    """Folds a rundir's newest run log into beats, one poll at a time.

    The log is resolved on the first poll that finds one, then tailed
    (a torn last line waits for the next poll); each :meth:`poll`
    returns the beats completed since the previous one, exactly as the
    run's heartbeat writer folded them.
    """

    def __init__(self, rundir: Union[str, Path]) -> None:
        self.rundir = Path(rundir)
        self._tailer: Optional[JsonlTailer] = None
        self._fold = BeatFold()

    def poll(self) -> List[Dict[str, Any]]:
        if self._tailer is None:
            logs = run_logs(self.rundir)
            if not logs:
                return []
            self._tailer = JsonlTailer(logs[-1])
        return [
            beat for beat in map(self._fold, self._tailer.poll()) if beat is not None
        ]


def load_rundir(rundir: Union[str, Path]) -> Dict[str, Any]:
    """Everything a monitor can know about a rundir (missing parts None)."""
    rundir = Path(rundir)
    manifest = None
    manifest_path = rundir / RunRecorder.MANIFEST_NAME
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    qor = None
    qor_path = rundir / RunRecorder.QOR_NAME
    if qor_path.is_file():
        qor = json.loads(qor_path.read_text(encoding="utf-8"))
    return {
        "rundir": str(rundir),
        "manifest": manifest,
        "heartbeat": read_heartbeat(rundir / RunRecorder.HEARTBEAT_NAME),
        "qor": qor,
    }


def _fmt(value: Any, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def progress_line(beat: Dict[str, Any]) -> str:
    """One compact live-progress line from a heartbeat document."""
    parts = [f"[{beat.get('phase', '?')}]"]
    for key, label in (
        ("stage", "stage"),
        ("step", "step"),
        ("T", "T"),
        ("acceptance", "acc"),
        ("cost", "cost"),
        ("c1", "c1"),
        ("c2", "c2"),
        ("c3", "c3"),
        ("round", "round"),
        ("nets_done", "nets"),
        ("eta_steps", "eta_steps"),
        ("eta_seconds", "eta_s"),
        ("status", "status"),
    ):
        if key in beat and beat[key] is not None:
            parts.append(f"{label}={_fmt(beat[key])}")
    if isinstance(beat.get("chains"), dict) and beat["chains"]:
        chains = beat["chains"]
        summary = " ".join(
            f"{cid}:{_fmt(chains[cid].get('cost'))}"
            f"{'*' if chains[cid].get('done') else ''}"
            for cid in sorted(chains, key=str)
        )
        parts.append(f"chains[{summary}]")
    return " ".join(parts)


def render_status(info: Dict[str, Any], now: Optional[float] = None) -> str:
    """The full status block for one rundir."""
    now = now if now is not None else time.time()
    lines = [f"rundir   {info['rundir']}"]
    manifest = info.get("manifest")
    if manifest is not None:
        circuit = manifest.get("circuit", {})
        config = manifest.get("config", {})
        parallel = config.get("values", {}).get("parallel", {})
        lines.append(f"run      {manifest.get('run_id')}")
        lines.append(
            f"circuit  {circuit.get('name')} ({circuit.get('cells')} cells, "
            f"{circuit.get('nets')} nets)  sha {str(circuit.get('sha256'))[:12]}"
        )
        lines.append(
            f"config   sha {str(config.get('sha256'))[:12]}  "
            f"seed {config.get('values', {}).get('seed')}  "
            f"chains {parallel.get('chains', 1)}  "
            f"workers {parallel.get('workers', 1)}"
        )
        if manifest.get("resumed_from"):
            lines.append(f"resumed  {manifest['resumed_from']}")
    else:
        lines.append("run      (no manifest yet)")
    beat = info.get("heartbeat")
    if beat is not None:
        age = max(0.0, now - float(beat.get("updated", now)))
        stale = "  [STALE]" if classify_state(beat, now) == "stale" else ""
        lines.append(f"beat     #{beat.get('seq')}  {age:.1f}s ago{stale}")
        lines.append("live     " + progress_line(beat))
    else:
        lines.append("beat     (no heartbeat yet)")
    qor = info.get("qor")
    if qor is not None:
        lines.append(
            "qor      "
            f"teil {_fmt(qor.get('teil'), 6)}  "
            f"area {_fmt(qor.get('chip_area'), 6)}  "
            f"overflow {_fmt(qor.get('overflow'))}  "
            f"wall {_fmt(qor.get('wall_seconds'))}s"
            + ("  TRUNCATED" if qor.get("truncated") else "")
        )
    return "\n".join(lines)


def watch(
    rundir: Union[str, Path],
    interval: float = 1.0,
    max_updates: Optional[int] = None,
    stream: Optional[TextIO] = None,
) -> int:
    """Line-mode watch: print the run's current beat, then every later
    one, until a final beat (exit 0) or ``max_updates`` renders (exit 0)
    — or exit 1 once ``max_updates`` polls found no beat at all.
    """
    stream = stream if stream is not None else sys.stdout
    reader = BeatReader(rundir)
    started = False

    def poll() -> List[Dict[str, Any]]:
        nonlocal started
        beats = reader.poll()
        if not started and beats:
            started = True
            return beats[-1:]  # start at the current beat
        return beats

    last_phase: Optional[str] = None
    updates = 0
    idle = 0
    for beat in follow(poll, until=is_final, interval=interval, max_items=max_updates):
        if beat is None:
            # Silent polls count toward max_updates while no beat has
            # come, so a rundir that never beats cannot hang a bounded
            # watch.
            idle += 1
            if max_updates is not None and not updates and idle >= max_updates:
                return 1
            continue
        if beat.get("phase") != last_phase:
            last_phase = beat.get("phase")
            run_id = beat.get("run_id") or "?"
            print(f"-- {run_id} entered phase {last_phase}", file=stream)
        age = max(0.0, time.time() - float(beat.get("updated", 0.0)))
        print(f"{progress_line(beat)}  ({age:.1f}s ago)", file=stream, flush=True)
        updates += 1
    return 0
