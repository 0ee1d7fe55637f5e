#!/usr/bin/env python
"""CI rehearsal of the kill-and-resume guarantee, across real processes.

The drill:

1. Run the flow to completion in a subprocess → the reference JSON.
2. Run it again with checkpointing armed and its trace on disk, tail the
   trace, and SIGTERM the victim in the phase the drill names: after
   the ``--kill-at``-th ``anneal.temperature`` event of the stage-1
   anneal (``--kill-phase stage1``) or of the refine anneal
   (``--kill-phase refine``).  Require exit status 3 (graceful
   interrupt) and that the newest checkpoint belongs to that phase
   (``ckpt-stage1-t*``, or the ``ckpt-stage2-pass*`` boundary the
   refine pass restarts from).
3. Resume from the newest checkpoint with ``python -m repro resume`` and
   require the final JSON to match the reference exactly (all placement
   coordinates, costs, and routing — only wall-clock fields may differ).

Exits non-zero, with a diagnostic, on any deviation.  Artifacts (the
checkpoints, both JSON dumps, the trace) are left in ``--workdir`` for
the CI job to upload.

With ``--chains K --workers W`` the same drill runs the multi-chain
stage-1: the signal follows the ``--kill-at``-th ``parallel.round``
event and the newest checkpoint must be a round boundary
(``ckpt-parallel-r*``); pick a small ``--exchange-period`` so rounds
are short.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.config import MOVERS  # noqa: E402
from repro.telemetry import JsonlTailer  # noqa: E402

#: Fields that legitimately differ between the reference and resumed
#: runs: wall-clock timings and resume provenance.
VOLATILE_KEYS = {"elapsed_seconds", "seconds", "resumed_from", "budget_report"}

EXIT_INTERRUPTED = 3

#: The span enclosing each phase's anneal, and the checkpoint label a
#: kill in that phase must leave newest.
PHASES = {
    "stage1": ("stage1", "ckpt-stage1-t"),
    "refine": ("stage2.refine_anneal", "ckpt-stage2-pass"),
}
PARALLEL_CHECKPOINT = "ckpt-parallel-r"
#: Trace polling period and the longest wait for the named event.
POLL_S = 0.002
DEADLINE_S = 300.0


def scrub(value):
    """Recursively drop wall-clock / provenance fields."""
    if isinstance(value, dict):
        return {k: scrub(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [scrub(v) for v in value]
    return value


def run(cmd, env, **kwargs):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    return subprocess.run([str(c) for c in cmd], env=env, **kwargs)


class PhaseCounter:
    """Counts the trace's ``anneal.temperature`` events inside the span
    named ``phase_span`` (or, with ``phase_span=None``, its
    ``parallel.round`` events)."""

    def __init__(self, phase_span):
        self.phase_span = phase_span
        self.spans = {}
        self.count = 0

    def _inside(self, span) -> bool:
        while span is not None:
            name, parent = self.spans.get(span, (None, None))
            if name == self.phase_span:
                return True
            span = parent
        return False

    def feed(self, doc) -> None:
        if doc.get("ev") == "span_begin":
            self.spans[doc.get("span")] = (doc.get("name"), doc.get("parent"))
        elif doc.get("ev") == "event":
            if self.phase_span is None:
                self.count += doc.get("name") == "parallel.round"
            elif doc.get("name") == "anneal.temperature":
                self.count += self._inside(doc.get("span"))


def kill_in_phase(victim, trace, counter, kill_at) -> bool:
    """SIGTERM ``victim`` once ``counter`` has seen ``kill_at`` events in
    its trace; False if the victim exits (or the deadline passes) first."""
    tailer = JsonlTailer(trace)
    deadline = time.monotonic() + DEADLINE_S
    while victim.poll() is None and time.monotonic() < deadline:
        for doc in tailer.poll():
            counter.feed(doc)
        if counter.count >= kill_at:
            victim.send_signal(signal.SIGTERM)
            return True
        time.sleep(POLL_S)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="/tmp/kill_resume")
    parser.add_argument("--circuit", default="i1", help="suite circuit name")
    parser.add_argument("--preset", default="smoke")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--kill-phase",
        choices=sorted(PHASES),
        default="stage1",
        help="anneal to interrupt (multi-chain drills interrupt stage 1)",
    )
    parser.add_argument(
        "--kill-at",
        type=int,
        default=5,
        help="SIGTERM after this many temperatures of the named anneal "
        "(rounds, for a multi-chain drill)",
    )
    parser.add_argument(
        "--chains",
        type=int,
        default=1,
        help="stage-1 annealing chains (>1 drills the parallel1 "
        "round-boundary checkpoints)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the parallel layer",
    )
    parser.add_argument(
        "--exchange-period",
        type=int,
        default=10,
        help="temperature decrements between chain exchanges (small "
        "values keep rounds, and so the wait for the kill, short)",
    )
    parser.add_argument(
        "--mover",
        choices=MOVERS,
        default="serial",
        help="move engine under drill: the batched sweep kernel must "
        "resume bit-for-bit just like the serial mover",
    )
    args = parser.parse_args()
    parallel = args.chains != 1 or args.workers != 1
    if parallel and args.kill_phase != "stage1":
        parser.error("a multi-chain drill interrupts stage 1")

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    ckpt_dir = work / "checkpoints"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")

    circuit_file = work / f"{args.circuit}.twmc"
    base_json = work / "reference.json"
    resumed_json = work / "resumed.json"

    run(
        ["python", "-m", "repro", "generate", args.circuit, circuit_file],
        env, check=True,
    )
    place = [
        "python", "-m", "repro", "place", circuit_file,
        "--preset", args.preset, "--seed", str(args.seed),
    ]
    if args.mover != "serial":
        place += ["--mover", args.mover]
    if parallel:
        place += [
            "--chains", str(args.chains),
            "--workers", str(args.workers),
            "--exchange-period", str(args.exchange_period),
        ]
    run(place + ["--json", base_json], env, check=True)

    # The victim: checkpoint every temperature, killed in the named
    # phase.  A tight cadence guarantees a checkpoint exists whenever
    # the signal lands; stale checkpoints and traces of an earlier drill
    # in the same workdir must not count.
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    trace = work / "interrupted_trace.jsonl"
    trace.unlink(missing_ok=True)
    victim = subprocess.Popen(
        [str(c) for c in place] + [
            "--json", str(work / "interrupted.json"),
            "--checkpoint-dir", str(ckpt_dir),
            "--checkpoint-every", "1",
            "--trace", str(trace),
        ],
        env=env,
    )
    if parallel:
        what, counter = "parallel.round", PhaseCounter(None)
        expected = PARALLEL_CHECKPOINT
    else:
        span, expected = PHASES[args.kill_phase]
        what, counter = f"{args.kill_phase} temperature", PhaseCounter(span)
    if not kill_in_phase(victim, trace, counter, args.kill_at):
        victim.kill()
        victim.wait()
        print(
            f"victim ended before {what} event {args.kill_at} "
            f"(saw {counter.count}); lower --kill-at",
            file=sys.stderr,
        )
        return 1
    status = victim.wait(timeout=120)
    if status == 0:
        print(
            f"victim finished although the SIGTERM followed {what} event "
            f"{args.kill_at}; lower --kill-at",
            file=sys.stderr,
        )
        return 1
    if status != EXIT_INTERRUPTED:
        print(
            f"victim exited with {status}, expected {EXIT_INTERRUPTED} "
            "(graceful interrupt)",
            file=sys.stderr,
        )
        return 1

    checkpoints = sorted(ckpt_dir.glob("*.ckpt"))
    if not checkpoints:
        print("no checkpoint was written before the kill", file=sys.stderr)
        return 1
    newest = max(checkpoints, key=lambda p: (p.stat().st_mtime, p.name))
    if not newest.name.startswith(expected):
        print(
            f"the kill after {what} event {args.kill_at} left {newest.name} "
            f"newest, not a {expected}* checkpoint",
            file=sys.stderr,
        )
        return 1
    print(f"killed at {newest.name}; resuming")

    run(
        ["python", "-m", "repro", "resume", newest, "--json", resumed_json],
        env, check=True,
    )

    reference = scrub(json.loads(base_json.read_text()))
    resumed = scrub(json.loads(resumed_json.read_text()))
    if reference != resumed:
        for key in sorted(set(reference) | set(resumed)):
            if reference.get(key) != resumed.get(key):
                print(f"MISMATCH in {key!r}", file=sys.stderr)
        print(
            "resumed run does not reproduce the uninterrupted run",
            file=sys.stderr,
        )
        return 1
    print("kill-and-resume OK: resumed run is identical to the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
