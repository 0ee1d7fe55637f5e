"""The fleet model: every run the observability server can see.

A :class:`Fleet` watches a *runs root* (a directory whose children are
rundirs — each holding ``manifest.json`` / ``heartbeat.json`` / its run
logs ``trace*.jsonl`` / ``qor.json``) and, optionally, a SQLite run
registry.  It joins the two read-only sources into one live view:

* the **registry** contributes identity and lifecycle (circuit, config
  hash, seed, recorded status) for every run ever registered;
* the **heartbeat** contributes liveness — the freshest beat, its age,
  and the derived state.

States:

``running``
    a non-final beat younger than ``stale_after`` seconds;
``stale``
    a non-final beat older than that — the process is hung, killed
    without trapping, or starved;
``done`` / ``failed`` / ``interrupted``
    a final beat landed (or, for registry-only rows, the recorded
    status);
``pending``
    a rundir (or registry row) with no beat yet.

Everything here reads atomic files and never blocks on — or mutates —
the runs it observes, the same contract ``status``/``watch`` honour.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..qor.heartbeat import read_heartbeat
from ..qor.monitor import (  # noqa: F401  (classifier shared with status/watch)
    STALE_AFTER,
    BeatReader,
    beat_age,
    classify_state,
    load_rundir,
    progress_line,
)
from ..qor.recorder import RunRecorder

#: Registry statuses mapped to fleet states (for rows with no rundir).
REGISTRY_STATES = {
    "ok": "done",
    "truncated": "done",
    "failed": "failed",
    "interrupted": "interrupted",
    "running": "pending",
}


class Fleet:
    """A read-only join of a runs root and an optional registry."""

    def __init__(
        self,
        root: Union[str, Path],
        registry: Optional[Union[str, Path]] = None,
        stale_after: float = STALE_AFTER,
    ) -> None:
        self.root = Path(root)
        self.registry_path = Path(registry) if registry is not None else None
        self.stale_after = stale_after

    # -- discovery ----------------------------------------------------------

    def rundirs(self) -> List[Path]:
        """Every rundir under the root (a child directory holding a
        manifest or heartbeat; the root itself when it is one)."""
        found: List[Path] = []
        if self._is_rundir(self.root):
            found.append(self.root)
        if self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if child.is_dir() and self._is_rundir(child):
                    found.append(child)
        return found

    @staticmethod
    def _is_rundir(path: Path) -> bool:
        return (path / RunRecorder.MANIFEST_NAME).is_file() or (
            path / RunRecorder.HEARTBEAT_NAME
        ).is_file()

    def find_rundir(self, run_id: str) -> Optional[Path]:
        """The rundir for a run id (exact or unique prefix), matching
        the manifest/heartbeat run id first and the directory name as a
        fallback."""
        exact: Optional[Path] = None
        prefixed: List[Path] = []
        for rundir in self.rundirs():
            rid = self._rundir_run_id(rundir)
            candidates = [c for c in (rid, rundir.name) if c]
            if run_id in candidates:
                exact = rundir
                break
            if any(c.startswith(run_id) for c in candidates):
                prefixed.append(rundir)
        if exact is not None:
            return exact
        if len(prefixed) == 1:
            return prefixed[0]
        return None

    @staticmethod
    def _rundir_run_id(rundir: Path) -> Optional[str]:
        info = load_rundir(rundir)
        manifest = info.get("manifest")
        if manifest and manifest.get("run_id"):
            return str(manifest["run_id"])
        beat = info.get("heartbeat")
        if beat and beat.get("run_id"):
            return str(beat["run_id"])
        return None

    @staticmethod
    def _rundir_trace_id(rundir: Path) -> Optional[str]:
        """The distributed-trace id a rundir was recorded under
        (manifest first, live heartbeat as fallback)."""
        info = load_rundir(rundir)
        manifest = info.get("manifest")
        if manifest and manifest.get("trace_id"):
            return str(manifest["trace_id"])
        beat = info.get("heartbeat")
        if beat and beat.get("trace_id"):
            return str(beat["trace_id"])
        return None

    def find_by_trace(self, trace_id: str) -> List[Path]:
        """Every rundir recorded under a trace id (exact or unique-ish
        prefix, minimum 8 chars to keep prefixes meaningful)."""
        if len(trace_id) < 8:
            return []
        out: List[Path] = []
        for rundir in self.rundirs():
            tid = self._rundir_trace_id(rundir)
            if tid is not None and tid.startswith(trace_id):
                out.append(rundir)
        return out

    # -- registry join ------------------------------------------------------

    def _registry_rows(self) -> Dict[str, Dict[str, Any]]:
        """Registry run rows keyed by run id (empty without a registry)."""
        if self.registry_path is None or not self.registry_path.is_file():
            return {}
        from ..qor.registry import RunRegistry

        try:
            with RunRegistry(self.registry_path, readonly=True) as registry:
                rows = registry.runs(limit=1000)
        except sqlite3.Error:
            # A registry mid-creation (or unreadable) degrades the view
            # to heartbeats only; it must not take the server down.
            return {}
        return {row["run_id"]: row for row in rows}

    # -- views --------------------------------------------------------------

    def summarize(
        self, rundir: Path, registry_row: Optional[Dict[str, Any]] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """The compact ``/runs`` entry for one rundir."""
        now = now if now is not None else time.time()
        info = load_rundir(rundir)
        beat = info.get("heartbeat")
        manifest = info.get("manifest") or {}
        run_id = manifest.get("run_id") or (beat or {}).get("run_id") or rundir.name
        summary: Dict[str, Any] = {
            "run_id": run_id,
            "rundir": str(rundir),
            "state": classify_state(beat, now, self.stale_after),
            "phase": (beat or {}).get("phase"),
            "stage": (beat or {}).get("stage"),
            "seq": (beat or {}).get("seq"),
            "age_seconds": beat_age(beat, now),
            "circuit": (manifest.get("circuit") or {}).get("name")
            or (beat or {}).get("circuit"),
            "trace_id": manifest.get("trace_id") or (beat or {}).get("trace_id"),
            "progress": progress_line(beat) if beat else None,
        }
        for key in ("T", "acceptance", "cost", "eta_seconds", "round",
                    "nets_done", "nets_total", "status"):
            if beat and key in beat:
                summary[key] = beat[key]
        if registry_row is not None:
            summary["registry_status"] = registry_row.get("status")
            summary["seed"] = registry_row.get("seed")
        qor = info.get("qor")
        if qor is not None:
            summary["qor"] = {
                k: qor.get(k)
                for k in ("teil", "chip_area", "overflow", "wall_seconds")
            }
        return summary

    def runs(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """The fleet listing: one summary per rundir, plus registry-only
        rows (runs recorded without a rundir under this root)."""
        now = now if now is not None else time.time()
        registry_rows = self._registry_rows()
        out: List[Dict[str, Any]] = []
        seen: set = set()
        for rundir in self.rundirs():
            row = self.summarize(rundir, now=now)
            rid = row["run_id"]
            row_registry = registry_rows.get(rid)
            if row_registry is not None:
                row["registry_status"] = row_registry.get("status")
                row["seed"] = row_registry.get("seed")
            seen.add(rid)
            out.append(row)
        for rid, reg in registry_rows.items():
            if rid in seen:
                continue
            out.append(
                {
                    "run_id": rid,
                    "rundir": None,
                    "state": REGISTRY_STATES.get(
                        str(reg.get("status")), "pending"
                    ),
                    "phase": None,
                    "stage": None,
                    "seq": None,
                    "age_seconds": None,
                    "circuit": reg.get("circuit"),
                    "progress": None,
                    "registry_status": reg.get("status"),
                    "seed": reg.get("seed"),
                }
            )
        out.sort(key=lambda r: (r["run_id"] or ""))
        return out

    def detail(self, run_id: str) -> Optional[Dict[str, Any]]:
        """The full ``/runs/<id>`` document: manifest + heartbeat + QoR
        + registry row + summary, or None for an unknown id."""
        rundir = self.find_rundir(run_id)
        registry_rows = self._registry_rows()
        if rundir is None:
            # Registry-only run (exact or unique-prefix match).
            matches = [
                rid for rid in registry_rows if rid == run_id
            ] or [rid for rid in registry_rows if rid.startswith(run_id)]
            if len(matches) != 1:
                return None
            reg = registry_rows[matches[0]]
            return {
                "run_id": matches[0],
                "rundir": None,
                "state": REGISTRY_STATES.get(str(reg.get("status")), "pending"),
                "registry": reg,
                "manifest": None,
                "heartbeat": None,
                "qor": None,
            }
        info = load_rundir(rundir)
        summary = self.summarize(rundir)
        doc: Dict[str, Any] = {
            "run_id": summary["run_id"],
            "rundir": str(rundir),
            "state": summary["state"],
            "age_seconds": summary["age_seconds"],
            "manifest": info.get("manifest"),
            "heartbeat": info.get("heartbeat"),
            "qor": info.get("qor"),
            "registry": registry_rows.get(summary["run_id"]),
        }
        return doc

    def history(self, run_id: str, since_seq: Optional[int] = None,
                limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The run's beats, folded from its newest log (empty when the
        run or its log is unknown); ``since_seq`` keeps the beats after
        that seq, ``limit`` the newest N of those."""
        rundir = self.find_rundir(run_id)
        if rundir is None:
            return []
        beats = BeatReader(rundir).poll()
        if since_seq is not None:
            beats = [beat for beat in beats if beat["seq"] > since_seq]
        if limit is not None:
            beats = beats[-limit:]
        return beats

    def heartbeats(self) -> List[Dict[str, Any]]:
        """The freshest beat of every rundir (the ``/metrics`` feed)."""
        beats: List[Dict[str, Any]] = []
        for rundir in self.rundirs():
            beat = read_heartbeat(rundir / RunRecorder.HEARTBEAT_NAME)
            if beat is not None:
                if not beat.get("run_id"):
                    beat = dict(beat, run_id=rundir.name)
                beats.append(beat)
        return beats
