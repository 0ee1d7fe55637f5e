"""Anneal-health analytics from a run's beat history.

Sechen's own diagnostics for a healthy anneal are the acceptance-ratio
trajectory (Fig. 3: ~1 at T∞, a smooth sigmoid decline through the
productive mid-range, ~0 in the quench) and the cost-vs-iteration curve
(Fig. 5: monotone-ish descent flattening into the freeze).  This module
recomputes those signals live from the run's beats — folded from the
``anneal.temperature`` events of its log, the paper's per-temperature
diagnostics — and turns them into operator-facing verdicts:

* **acceptance trajectory** vs. the Fig.-3 ideal — a logistic decline
  in annealing progress — with *too-hot* (still accepting nearly
  everything deep into the run) and *quenched* (acceptance collapsed
  almost immediately) anomaly flags;
* **cost plateau / stall detection** — the trailing cost window is
  flat: expected during the freeze (low acceptance), suspicious while
  uphill moves are still routinely taken;
* **ETA** — the schedule-derived ``eta_steps``/``eta_seconds`` from the
  latest beat plus a measured estimate (median wall time per observed
  temperature step × steps left);
* **divergence** — the heartbeat's C1/C2/C3 cost components no longer
  sum to the cost accumulator the annealer is optimizing, i.e. the
  incremental bookkeeping drifted from the checkpointed truth the
  :class:`~repro.resilience.drift.DriftGuard` reconciles against.

All heuristics are advisory: the output labels each flag and leaves the
kill decision to the operator (or the future job API).
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional

from ..qor.monitor import STALE_AFTER
from .fleet import beat_age, classify_state

#: Trailing anneal beats examined for a cost plateau.
PLATEAU_WINDOW = 10

#: Relative cost span below which the trailing window counts as flat.
PLATEAU_REL_TOLERANCE = 1e-3

#: Acceptance above this after half the run means the schedule never cooled.
TOO_HOT_ACCEPTANCE = 0.9

#: Acceptance below this in the first quarter of the run means a quench.
QUENCHED_ACCEPTANCE = 0.05

#: Relative |cost - (C1+C2+C3)| beyond which the run counts as diverged
#: (the components are rounded to 4 decimals in the heartbeat, so a
#: healthy run sits orders of magnitude below this).
DIVERGENCE_REL_TOLERANCE = 1e-3
DIVERGENCE_ABS_TOLERANCE = 0.05


def fig3_ideal_acceptance(progress: float) -> float:
    """The idealized Fig.-3 acceptance ratio at annealing progress
    ``progress`` in [0, 1]: a logistic decline from ~1 to ~0 centred on
    the productive mid-range."""
    progress = min(1.0, max(0.0, progress))
    return 1.0 / (1.0 + math.exp(10.0 * (progress - 0.5)))


def _anneal_beats(history: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [
        beat
        for beat in history
        if beat.get("phase") == "anneal" and "acceptance" in beat
    ]


def _progress_of(beat: Dict[str, Any], index: int, count: int) -> float:
    """Annealing progress of one beat: completed steps over projected
    total (step + eta_steps) when the beat carries an ETA, positional
    fraction of the observed trajectory otherwise."""
    step = beat.get("step")
    eta = beat.get("eta_steps")
    if isinstance(step, (int, float)) and isinstance(eta, (int, float)):
        total = step + eta
        if total > 0:
            return min(1.0, step / total)
    return index / max(1, count - 1)


def acceptance_health(beats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The acceptance trajectory compared against the Fig.-3 ideal."""
    if not beats:
        return {"samples": 0, "flags": []}
    deviations: List[float] = []
    flags: List[str] = []
    trajectory: List[Dict[str, Any]] = []
    for index, beat in enumerate(beats):
        progress = _progress_of(beat, index, len(beats))
        acceptance = float(beat.get("acceptance", 0.0))
        ideal = fig3_ideal_acceptance(progress)
        deviations.append(abs(acceptance - ideal))
        trajectory.append(
            {
                "step": beat.get("step"),
                "T": beat.get("T"),
                "acceptance": acceptance,
                "ideal": round(ideal, 4),
                "progress": round(progress, 4),
            }
        )
    last = trajectory[-1]
    if last["progress"] >= 0.5 and last["acceptance"] > TOO_HOT_ACCEPTANCE:
        flags.append("too_hot")
    early = [t for t in trajectory if t["progress"] <= 0.25]
    if early and all(t["acceptance"] < QUENCHED_ACCEPTANCE for t in early):
        flags.append("quenched")
    return {
        "samples": len(trajectory),
        "mean_fig3_deviation": round(sum(deviations) / len(deviations), 4),
        "last": last,
        "flags": flags,
        "trajectory": trajectory[-50:],
    }


def cost_health(beats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Plateau detection over the trailing cost window."""
    costs = [float(b["cost"]) for b in beats if "cost" in b]
    if len(costs) < 2:
        return {"samples": len(costs), "plateau": False, "flags": []}
    window = costs[-PLATEAU_WINDOW:]
    span = max(window) - min(window)
    scale = max(1.0, abs(window[-1]))
    plateau = len(window) >= min(PLATEAU_WINDOW, 3) and (
        span / scale
    ) < PLATEAU_REL_TOLERANCE
    acceptance = float(beats[-1].get("acceptance", 0.0))
    flags: List[str] = []
    if plateau:
        # Flat cost is the normal freeze signature once almost nothing
        # is accepted; with uphill moves still flowing it means the
        # accepted moves stopped buying anything — a genuine stall.
        flags.append(
            "frozen" if acceptance < 0.1 else "cost_stall"
        )
    return {
        "samples": len(costs),
        "plateau": plateau,
        "window": [round(c, 4) for c in window],
        "window_rel_span": round(span / scale, 8),
        "best": round(min(costs), 4),
        "last": round(costs[-1], 4),
        "flags": flags,
    }


def eta_health(beats: List[Dict[str, Any]], history: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The schedule ETA from the latest anneal beat, cross-checked with
    a wall-clock estimate measured from heartbeat timestamps."""
    if not beats:
        return {"eta_steps": None, "eta_seconds": None}
    last = beats[-1]
    out: Dict[str, Any] = {
        "eta_steps": last.get("eta_steps"),
        "eta_seconds": last.get("eta_seconds"),
        "eta_estimated": bool(last.get("eta_estimated", False)),
    }
    stamps = [float(b["updated"]) for b in beats if "updated" in b]
    if len(stamps) >= 3 and isinstance(last.get("eta_steps"), (int, float)):
        gaps = sorted(
            b - a for a, b in zip(stamps, stamps[1:]) if b - a > 0
        )
        if gaps:
            median_gap = gaps[len(gaps) // 2]
            out["seconds_per_step_measured"] = round(median_gap, 3)
            out["eta_seconds_measured"] = round(
                median_gap * float(last["eta_steps"]), 1
            )
    return out


def divergence_health(beats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Whether C1 + C2 + C3 still reconstructs the cost accumulator."""
    checked = 0
    worst = 0.0
    diverged = False
    for beat in beats:
        if not all(k in beat for k in ("c1", "c2", "c3", "cost")):
            continue
        checked += 1
        total = float(beat["c1"]) + float(beat["c2"]) + float(beat["c3"])
        cost = float(beat["cost"])
        residual = abs(cost - total)
        rel = residual / max(1.0, abs(cost))
        worst = max(worst, rel)
        if rel > DIVERGENCE_REL_TOLERANCE and residual > DIVERGENCE_ABS_TOLERANCE:
            diverged = True
    return {
        "checked": checked,
        "worst_rel_residual": round(worst, 8),
        "diverged": diverged,
        "flags": ["diverged"] if diverged else [],
    }


def analyze_health(
    history: List[Dict[str, Any]],
    beat: Optional[Dict[str, Any]] = None,
    now: Optional[float] = None,
    stale_after: float = STALE_AFTER,
) -> Dict[str, Any]:
    """The full ``/runs/<id>/health`` document for one run.

    ``history`` is the run's beats folded from its log (oldest first);
    ``beat`` the latest snapshot (defaults to the newest history entry).
    """
    now = now if now is not None else time.time()
    if beat is None and history:
        beat = history[-1]
    beats = _anneal_beats(history)
    state = classify_state(beat, now, stale_after)
    acceptance = acceptance_health(beats)
    cost = cost_health(beats)
    eta = eta_health(beats, history)
    divergence = divergence_health(beats)
    flags = list(acceptance.get("flags", []))
    flags += cost.get("flags", [])
    flags += divergence.get("flags", [])
    if state == "stale":
        flags.append("stalled")
    healthy = state in ("running", "done") and not [
        f for f in flags if f != "frozen"
    ]
    return {
        "state": state,
        "age_seconds": beat_age(beat, now),
        "phase": (beat or {}).get("phase"),
        "stage": (beat or {}).get("stage"),
        "history_beats": len(history),
        "anneal_beats": len(beats),
        "healthy": healthy,
        "flags": sorted(set(flags)),
        "acceptance": acceptance,
        "cost": cost,
        "eta": eta,
        "divergence": divergence,
    }
