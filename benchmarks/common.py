"""Shared infrastructure for the experiment benches.

Every table and figure of the paper's evaluation has a bench module that
regenerates it.  The absolute numbers differ from the 1988 testbed (our
circuits are synthetic and the machine is not a MicroVAX II); the benches
print both the measured rows and the paper's published rows so the
*shape* of each result can be compared directly.

Environment knobs:

* ``REPRO_BENCH_PRESET`` — ``smoke`` (default), ``fast``, or ``paper``:
  annealing effort per data point.
* ``REPRO_BENCH_CIRCUITS`` — comma-separated suite circuit names to use
  instead of the default small subset.
* ``REPRO_BENCH_TRIALS`` — trials per configuration (default 1).

Each bench also writes its table to ``benchmarks/results/<name>.txt`` so
EXPERIMENTS.md can reference stable artifacts.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from pathlib import Path
from typing import List

from repro import TimberWolfConfig
from repro.bench import SMALL_CIRCUITS, format_table

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The bench clock.  Always monotonic (never ``time.time``): wall-clock
#: adjustments must not corrupt a measured rate or duration.
bench_clock = time.perf_counter


class Stopwatch:
    """Tiny monotonic stopwatch for the benches.

    Use as a context manager; ``seconds`` holds the elapsed monotonic
    time after the block (and keeps counting until the block exits)::

        with Stopwatch() as sw:
            run_stage1(...)
        print(sw.seconds)
    """

    def __init__(self) -> None:
        self._start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = bench_clock()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = bench_clock() - self._start


def host_metadata() -> dict:
    """Host facts stamped into every JSON bench artifact.

    Throughput and speedup numbers are meaningless without the machine
    they were measured on — in particular ``cpu_count`` bounds any
    parallel speedup the artifact can honestly claim.
    """
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def bench_config(seed: int = 0) -> TimberWolfConfig:
    """The per-data-point annealing effort, selected by environment."""
    preset = os.environ.get("REPRO_BENCH_PRESET", "smoke").lower()
    if preset == "paper":
        return TimberWolfConfig.paper(seed)
    if preset == "fast":
        return TimberWolfConfig.fast(seed)
    if preset == "smoke":
        # Slightly more effort than the unit-test preset: the experiment
        # shapes need real annealing to show up.
        return replace(
            TimberWolfConfig.smoke(seed),
            attempts_per_cell=10,
            m_routes=6,
        )
    raise ValueError(f"unknown REPRO_BENCH_PRESET {preset!r}")


def bench_circuits() -> List[str]:
    names = os.environ.get("REPRO_BENCH_CIRCUITS")
    if names:
        return [n.strip() for n in names.split(",") if n.strip()]
    return list(SMALL_CIRCUITS)


def bench_trials() -> int:
    return int(os.environ.get("REPRO_BENCH_TRIALS", "1"))


def stage1_metrics(result) -> tuple:
    """(residual overlap, legalized TEIL) of a stage-1 result.

    The residual overlap is recorded first (it is the §3.2.2/3.2.3
    metric); the TEIL is then measured on the *legalized* placement so
    that runs which under-penalized overlap pay their true wirelength
    cost — otherwise stacked cells would report absurdly short nets.
    """
    from repro.placement import remove_overlaps

    residual = result.residual_overlap
    remove_overlaps(result.state, min_gap=result.state.circuit.track_spacing)
    return residual, result.state.teil()


def emit(name: str, title: str, headers, rows, notes: str = "") -> str:
    """Print a result table and persist it under benchmarks/results/."""
    table = format_table(headers, rows)
    text = f"== {title} ==\n{table}\n"
    if notes:
        text += notes.rstrip() + "\n"
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    return text


#: The registry the benches append their results to.  Committed to the
#: repo, so the measured trajectory (including machine and config hash)
#: persists across PRs instead of each run overwriting the last.
BENCH_REGISTRY = Path(__file__).resolve().parent.parent / "BENCH_registry.sqlite"


def bench_registry(output) -> Path:
    """The registry a bench run that writes ``output`` records into: the
    committed one when ``output`` is a committed ``BENCH_*.json`` beside
    it, else a registry next to ``output`` — so a smoke run with
    ``--output`` elsewhere leaves the repository's record alone."""
    output = Path(output).resolve()
    if output.parent == BENCH_REGISTRY.parent:
        return BENCH_REGISTRY
    return output.parent / BENCH_REGISTRY.name


def bench_config_sha() -> str:
    """Content hash of the active bench configuration — two bench rows
    are comparable iff their config hashes match."""
    from repro.qor import config_fingerprint

    return config_fingerprint(bench_config())


def record_bench_result(name: str, payload: dict, registry_path=None) -> list:
    """Append one bench result to the bench registry and return the
    (oldest-first) recorded history for the same bench + config hash.

    The returned history is what the ``BENCH_*.json`` artifacts embed,
    so a stale JSON can always be re-derived from the registry.
    """
    from repro.qor import RunRegistry

    path = Path(registry_path) if registry_path is not None else BENCH_REGISTRY
    sha = bench_config_sha()
    entry = dict(payload)
    entry.setdefault("recorded", time.time())
    entry.setdefault("host", host_metadata())
    with RunRegistry(path) as registry:
        registry.record_bench(name, sha, entry)
        history = registry.bench_history(name, config_sha256=sha)
    return history
