"""Flow benchmark: full ``place_and_route`` time and post-route QoR.

One command runs one workload and prints every metric by name and unit;
the last line of standard output is one JSON object::

    python3 flowbench/run.py --workload flow40_batched --seed 7 --seconds 25 --trace 0

Run model: a batch tool, measured as a closed loop with one client.  A
single process, pinned to one CPU, runs one flow at a time with
BLAS/OpenMP pinned to one thread and the default ``ParallelConfig``
(1 worker, 1 chain).  Every workload uses the ``bench_flow_e2e`` flow
config: ``smoke(seed)``, ``core="array"``, ``attempts_per_cell=10``,
M=4, one refinement pass; workloads differ in circuit and stage-1 mover.

A run places ``INSTANCES`` circuits generated from ``--seed`` (instance
``i`` uses seed ``seed + 1000 * i`` for both the circuit and the flow),
in rounds, until ``--seconds`` have passed and every instance has run
at least twice.  Each flow is checked: it must not raise, be truncated
or record failures; its exact tile-level overlap must be 0; and its QoR
and work counts must repeat exactly across rounds.

Times are seconds at a reference CPU speed (see ``speed.py``); the raw
wall-clock is printed alongside.

``--trace 0`` measures with telemetry off (``collect_trace=False``) and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced
rounds with traced ones, in which ``spans.py`` wraps each layer's public
calls, and reports per-layer self times, work counts and trace health.
Both modes run ``flow.validate`` once on the first instance, outside
the timed flows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".flowbench"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

#: Pinned before numpy is imported, so two cores measure the program
#: and not a BLAS thread pool competing with it.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

DEFAULT_SEED = 7
#: Circuits per run: enough that the QoR means hold steady across seeds,
#: few enough that ``MIN_ROUNDS`` rounds fit the run.
INSTANCES = 3
MIN_ROUNDS = 2
SETUP_SAMPLES = 3
MIN_COVERAGE = 0.95


@dataclass(frozen=True)
class Workload:
    mover: str
    #: A ``repro.bench.suite`` circuit (trial = seed) ...
    suite: Optional[str] = None
    #: ... or a synthetic one with 25% custom cells.
    cells: int = 0
    nets: int = 0
    pins: int = 0


WORKLOADS: Dict[str, Workload] = {
    # Stage-2 geometry with no single layer in charge.
    "flow40_batched": Workload("batched", cells=40, nets=80, pins=200),
    # The one-move-at-a-time stage-1 cascade dominates.
    "flow20_serial": Workload("serial", cells=20, nets=40, pins=100),
    # The paper's i1 statistics (33 macro cells, 121 nets, 452 pins):
    # router phase 1 leads.  Denser net-heavy circuits (x1/d2-like) are
    # left out: some seeds never leave the phase-2 interchange, which
    # keeps accepting zero-delta swaps and so never stagnates.
    "suite_i1": Workload("batched", suite="i1"),
}


def instance_seeds(seed: int) -> List[int]:
    return [seed + 1000 * i for i in range(INSTANCES)]


def build(name: str, seed: int):
    """The circuit and flow config of one workload instance."""
    from repro import TimberWolfConfig
    from repro.bench import CircuitSpec, generate_circuit, load_circuit

    w = WORKLOADS[name]
    if w.suite:
        circuit = load_circuit(w.suite, seed)
    else:
        circuit = generate_circuit(
            CircuitSpec(
                name=f"{name}-{seed}",
                num_cells=w.cells,
                num_nets=w.nets,
                num_pins=w.pins,
                seed=seed,
                custom_fraction=0.25,
            )
        )
    config = replace(
        TimberWolfConfig.smoke(seed),
        core="array",
        mover=w.mover,
        attempts_per_cell=10,
    )
    return circuit, config


# -- per-flow facts ---------------------------------------------------------


def qor(result) -> Dict[str, float]:
    routing = result.refinement.final_pass.routing
    state = result.state
    cell_area = sum(state.world_shape(name).area for name in state.names)
    return {
        "teil": result.teil,
        "chip_area": result.chip_area,
        # Chip area over cell area: unlike the raw area it does not swing
        # with each random circuit's total cell area.
        "area_ratio": result.chip_area / cell_area,
        "routed_length": routing.interchange.total_length,
        "overflow_x": result.routed_overflow,
        "unrouted_nets": len(routing.unrouted),
    }


def work_counts(result) -> Dict[str, int]:
    """Deterministic work done by each layer, read from the result."""
    stage1 = result.stage1.anneal
    passes = result.refinement.passes
    out = {
        "stage1.moves": stage1.total_attempts,
        "stage1.accepts": stage1.total_accepts,
        "stage1.temperatures": stage1.num_temperatures,
        "refine.moves": sum(p.anneal.total_attempts for p in passes),
        "refine.accepts": sum(p.anneal.total_accepts for p in passes),
        "router.nets": 0,
        "router.alternatives": 0,
        "router.retried_nets": 0,
        "router.failed_nets": 0,
        "router.interchange_attempts": 0,
        "router.interchange_accepts": 0,
        "channels.regions": 0,
        "channels.free_rects": 0,
        "channels.graph_edges": 0,
        "density.crossing_tests": 0,
    }
    for p in passes:
        r, g = p.routing, p.graph
        out["router.nets"] += len(r.alternatives) + len(r.unrouted)
        out["router.alternatives"] += sum(len(a) for a in r.alternatives.values())
        out["router.retried_nets"] += len(r.retried)
        out["router.failed_nets"] += len(r.failed)
        out["router.interchange_attempts"] += r.interchange.attempts
        out["router.interchange_accepts"] += r.interchange.accepted
        out["channels.regions"] += len(g.regions)
        out["channels.free_rects"] += g.num_free_nodes
        out["channels.graph_edges"] += len(g.edges())
        # cell_edge_expansions tests every route edge against every region.
        edges = sum(len(e) for e in r.routes.values())
        out["density.crossing_tests"] += len(g.regions) * edges
    return out


def tile_overlap(state) -> float:
    """Exact pairwise overlap of the final cell shapes (tile level)."""
    shapes = [state.world_shape(name) for name in state.names]
    return sum(
        a.overlap_area(b)
        for i, a in enumerate(shapes)
        for b in shapes[i + 1:]
    )


def check(result) -> List[str]:
    """Per-run correctness problems (empty when the flow is correct)."""
    problems = []
    if result.truncated:
        problems.append("truncated")
    if result.failures:
        problems.append(f"failures: {[f['stage'] for f in result.failures]}")
    if result.refinement is None or not result.refinement.passes:
        return problems + ["no refinement pass"]
    if not result.teil > 0:
        problems.append(f"teil {result.teil}")
    overlap = tile_overlap(result.state)
    if overlap != 0:
        problems.append(f"tile overlap {overlap}")
    return problems


# -- measurement ------------------------------------------------------------


class Flow:
    """One workload instance and everything measured on it."""

    def __init__(self, workload: str, seed: int) -> None:
        self.seed = seed
        self.circuit, self.config = build(workload, seed)
        self.fingerprint: Optional[Dict] = None
        self.first_result = None

    def run(self, recorder=None):
        """One flow; returns (``speed.Timing``, problems)."""
        from repro import place_and_route

        call = place_and_route
        if recorder is not None:
            call = recorder.wrap(place_and_route, "flow")
        with speed.stopwatch() as timing:
            try:
                result = call(self.circuit, self.config, collect_trace=False)
            except Exception as exc:  # a failed run is counted, not fatal
                result, problems = None, [f"raised {exc!r}"]
        if result is None:
            return timing, problems
        problems = check(result)
        if not problems:
            fingerprint = {**qor(result), **work_counts(result)}
            if self.fingerprint is None:
                self.fingerprint, self.first_result = fingerprint, result
            elif fingerprint != self.fingerprint:
                diff = sorted(
                    k for k in fingerprint if fingerprint[k] != self.fingerprint[k]
                )
                problems.append(f"not repeatable: {diff}")
        return timing, problems


def setup_probe(workload: str, seed: int) -> float:
    """Import ``repro`` and build every instance: the set-up cost."""
    with speed.stopwatch() as timing:
        sys.path.insert(0, str(SRC))
        import repro  # noqa: F401

        for s in instance_seeds(seed):
            build(workload, s)
    return timing.seconds


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_rounds(flows: List[Flow], seconds: float, trace: bool, log) -> Dict:
    """Flows in rounds until ``seconds`` pass and every instance ran
    ``MIN_ROUNDS`` times; with ``trace``, odd rounds are traced."""
    import spans

    timings: Dict[bool, List[speed.Timing]] = {False: [], True: []}
    layer_runs: List[Dict[str, float]] = []
    records = []
    failed = 0
    start = time.perf_counter()
    n = 0
    while n < MIN_ROUNDS * len(flows) or time.perf_counter() - start < seconds:
        flow = flows[n % len(flows)]
        traced = trace and (n // len(flows)) % 2 == 1
        n += 1
        leftover = spans.installed()
        if leftover:
            failed += 1
            log(f"  wrappers still installed before a run: {leftover}")
            continue
        recorder = spans.Recorder() if traced else None
        if traced:
            with spans.traced(recorder):
                timing, problems = flow.run(recorder)
        else:
            timing, problems = flow.run()
        if traced and not problems:
            layers = {
                name: self_s * timing.scale
                for name, self_s in recorder.layer_self_times().items()
            }
            root = recorder.spans[0].duration * timing.scale
            layers["coverage"] = 1.0 - layers.pop("flow") / root
            layers["legalize.calls"] = recorder.counts().get("legalize", 0)
            if layers["coverage"] < MIN_COVERAGE:
                problems.append(f"trace coverage {layers['coverage']:.3f}")
            layer_runs.append(layers)
            records.append({"seed": flow.seed, "spans": recorder.to_records()})
        failed += bool(problems)
        timings[traced].append(timing)
        log(
            f"  seed {flow.seed:<5} {'traced' if traced else 'timed':<6} "
            f"{timing.seconds:7.3f} s ({timing.wall:.3f} s wall)"
            + (f"  FAILED {problems}" if problems else "")
        )
    return {
        "timings": timings,
        "layers": layer_runs,
        "records": records,
        "attempted": n,
        "failed": failed,
    }


def validate(flow: Flow) -> Dict[str, float]:
    """``flow.validate`` on the final placement, outside the timed flows."""
    from repro.flow.validate import validate_result

    with speed.stopwatch() as timing:
        report = validate_result(flow.first_result, seed=flow.seed)
    return {
        "wall_s": timing.seconds,
        "channel_fit": report.fit_fraction,
        "worst_shortfall": report.worst_shortfall,
        "cyclic_channels": report.cyclic_channels,
    }


def instance_mean(flows: List[Flow], key: str) -> float:
    return statistics.fmean(f.fingerprint[key] for f in flows)


def place_s(measured, traced: bool) -> float:
    return statistics.median(t.seconds for t in measured["timings"][traced])


def end_to_end(flows, measured, setup_s, validation) -> Dict[str, tuple]:
    return {
        "place_s": (place_s(measured, False), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "teil": (instance_mean(flows, "teil"), "units"),
        "area_ratio": (instance_mean(flows, "area_ratio"), "ratio"),
        "routed_length": (instance_mean(flows, "routed_length"), "units"),
        "channel_fit": (validation["channel_fit"], "fraction"),
    }


def per_layer(flows, measured, validation) -> Dict[str, tuple]:
    def counted(key):
        return instance_mean(flows, key)

    def timed(key):
        return statistics.median(run.get(key, 0.0) for run in measured["layers"])

    def ratio(num, den):
        den = counted(den)
        return counted(num) / den if den else 0.0

    traced_place = place_s(measured, True)
    untraced_place = place_s(measured, False)
    stage1_s = timed("stage1")
    every = measured["timings"][False] + measured["timings"][True]
    return {
        "stage1.wall_s": (stage1_s, "s"),
        "stage1.moves": (counted("stage1.moves"), "count"),
        "stage1.accept_ratio": (ratio("stage1.accepts", "stage1.moves"), "fraction"),
        "stage1.moves_per_s": (counted("stage1.moves") / stage1_s, "1/s"),
        "stage1.temperatures": (counted("stage1.temperatures"), "count"),
        "legalize.wall_s": (timed("legalize"), "s"),
        "legalize.calls": (timed("legalize.calls"), "count"),
        "channels.define_s": (timed("channels"), "s"),
        "channels.regions": (counted("channels.regions"), "count"),
        "channels.free_rects": (counted("channels.free_rects"), "count"),
        "channels.graph_edges": (counted("channels.graph_edges"), "count"),
        "router.phase1_s": (timed("router.phase1"), "s"),
        "router.route_s": (timed("router.route"), "s"),
        "router.nets": (counted("router.nets"), "count"),
        "router.alternatives": (counted("router.alternatives"), "count"),
        "router.retried_nets": (counted("router.retried_nets"), "count"),
        "router.failed_nets": (counted("router.failed_nets"), "count"),
        "router.phase2_s": (timed("router.phase2"), "s"),
        "router.interchange_attempts": (
            counted("router.interchange_attempts"), "count"
        ),
        "router.interchange_accept_ratio": (
            ratio("router.interchange_accepts", "router.interchange_attempts"),
            "fraction",
        ),
        "router.overflow_x": (counted("overflow_x"), "tracks"),
        "router.unrouted_nets": (counted("unrouted_nets"), "count"),
        "density.expansions_s": (timed("density"), "s"),
        "density.crossing_tests": (counted("density.crossing_tests"), "count"),
        "refine.anneal_s": (timed("refine.anneal"), "s"),
        "refine.moves": (counted("refine.moves"), "count"),
        "refine.accept_ratio": (ratio("refine.accepts", "refine.moves"), "fraction"),
        "compact.wall_s": (timed("compact"), "s"),
        "stage2.other_s": (timed("stage2"), "s"),
        "validate.wall_s": (validation["wall_s"], "s"),
        "validate.worst_shortfall": (validation["worst_shortfall"], "tracks"),
        "validate.cyclic_channels": (validation["cyclic_channels"], "count"),
        "trace.place_s": (traced_place, "s"),
        "trace.coverage": (timed("coverage"), "fraction"),
        "trace.overhead_pct": (
            100.0 * (traced_place - untraced_place) / untraced_place, "%"
        ),
        "host.place_wall_s": (
            statistics.median(t.wall for t in measured["timings"][False]), "s"
        ),
        "host.slowdown": (statistics.median(1.0 / t.scale for t in every), "ratio"),
    }


def host() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(setup_probe(args.workload, args.seed))
        return 0
    # One CPU for the flows and the set-up probes (which inherit it), so
    # the speed samples see the contention of the code they scale.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import repro
    import spans

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    log(f"flowbench {args.workload} seed={args.seed} trace={args.trace} host={host()}")
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    flows = [Flow(args.workload, s) for s in instance_seeds(args.seed)]
    measured = run_rounds(flows, args.seconds, bool(args.trace), log)
    leftover = spans.installed()
    correct = (
        measured["failed"] == 0
        and not leftover
        and all(f.fingerprint for f in flows)
    )
    metrics = {}
    if not correct:
        log(f"FAILED: a flow failed a check, or wrappers remain: {leftover}")
    else:
        validation = validate(flows[0])
        if args.trace:
            metrics = per_layer(flows, measured, validation)
            OUT_DIR.mkdir(exist_ok=True)
            out = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
            out.write_text(json.dumps(measured["records"]))
            log(f"spans written to {out.relative_to(ROOT)}")
        else:
            metrics = end_to_end(flows, measured, setup_s, validation)
        for name, (value, unit) in metrics.items():
            log(f"  {name:<34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
