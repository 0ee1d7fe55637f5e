"""Moves-per-second benchmark for the placement hot loop.

The paper's wall-clock claims (§6, Table 4) rest on each annealing move
being cheap; this harness measures exactly that.  For synthetic circuits
at N ∈ {20, 50, 100, 200} cells it times every move kind the §3.2.1
generate cascade issues — displace, inverted displace, interchange,
pin-group move, and the move+restore rejection cycle — under BOTH
placement cores (the object graph and the struct-of-arrays kernel),
plus a mixed anneal at a fixed temperature per core.  The array core's
headline number is the *batched* mixed anneal (``BatchMoveGenerator``),
whose speedup over the committed object-core baseline is what the CI
quick gate enforces.  Before any timing, three seeded 500-move walks
(the stage-1 mixed anneal, the stage-2 refine anneal under static
expansions, and the mixed anneal over custom cells whose pins crowd
their sites) are replayed under both cores, and the harness exits
non-zero if a single accept/reject decision, cost or C3 diverges.

Results go to ``BENCH_placement.json`` at the repository root so the
repo's perf trajectory is machine-readable from PR to PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_moves_per_sec.py [--quick]
        [--output PATH] [--sizes 20,50,100,200]

``--quick`` shrinks both the size sweep and the per-kind move counts to
a few seconds total (the CI smoke mode) and enforces the gates: replay
identity, telemetry overhead, and the minimum mixed-anneal speedup.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.annealing import RangeLimiter  # noqa: E402
from repro.bench import CircuitSpec, crowded_circuit, generate_circuit  # noqa: E402
from repro.config import CORES  # noqa: E402
from repro.estimator import determine_core  # noqa: E402
from repro.geometry import BOTTOM, LEFT, RIGHT, TOP  # noqa: E402
from repro.netlist import CustomCell  # noqa: E402
from repro.placement import (  # noqa: E402
    BatchMoveGenerator,
    MoveGenerator,
    PlacementState,
    make_placement_state,
)
from repro.telemetry import (  # noqa: E402
    FileSink,
    NullSink,
    Tracer,
    current_tracer,
    use_tracer,
)

FULL_SIZES = (20, 50, 100, 200)
QUICK_SIZES = (20, 50)

#: Temperature for the mixed anneal: high enough that a realistic
#: fraction of moves is accepted, low enough that some restore.
MIXED_TEMPERATURE = 50.0

#: The committed object-core mixed-anneal rate at N=50 (BENCH_placement
#: .json as of the run-registry PR).  The array kernel's speedup is
#: measured against this constant so the gate cannot drift with the
#: object core's own performance.
BASELINE_MIXED_MOVES_PER_SEC_N50 = 11995.9

#: Minimum batched-array speedup over the committed baseline enforced in
#: --quick (CI) mode; the full bench targets (and records) >= 10x.
MIN_QUICK_SPEEDUP = 5.0

#: The size the gates and the flattened registry metrics are taken at.
GATE_SIZE = 50

#: Length of the cross-core replay walk (mirrors the property tests).
REPLAY_STEPS = 500


def build_state(n: int, seed: int = 0, core: str = "object") -> PlacementState:
    """A randomized placement of a synthetic n-cell circuit (25% custom
    cells so pin-group and aspect moves are exercised)."""
    spec = CircuitSpec(
        name=f"moves{n}",
        num_cells=n,
        num_nets=2 * n,
        num_pins=5 * n,
        seed=seed,
        custom_fraction=0.25,
    )
    circuit = generate_circuit(spec)
    state = make_placement_state(core, circuit, determine_core(circuit))
    state.randomize(random.Random(seed))
    return state


def _make_limiter(state: PlacementState) -> RangeLimiter:
    core = state.core
    return RangeLimiter(
        full_span_x=core.width,
        full_span_y=core.height,
        t_infinity=10.0 * MIXED_TEMPERATURE,
    )


def _movable(state: PlacementState) -> List[int]:
    return [i for i in range(len(state.names)) if state.movable[i]]


def _custom_with_groups(state: PlacementState) -> List[int]:
    return [
        i
        for i in range(len(state.names))
        if isinstance(state.cell(i), CustomCell) and state._groups[i]
    ]


def _random_target(state: PlacementState, rng: random.Random):
    core = state.core
    return (rng.uniform(core.x1, core.x2), rng.uniform(core.y1, core.y2))


def _time_loop(body: Callable[[], None], n_moves: int, repeats: int = 3) -> float:
    """Wall-clock the loop ``repeats`` times and keep the best rate.

    Best-of is the standard defence against scheduler noise: interference
    only ever slows a run down, so the fastest repeat is the closest
    estimate of the code's intrinsic speed.
    """
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n_moves):
            body()
        elapsed = time.perf_counter() - start
        rate = n_moves / elapsed if elapsed > 0 else float("inf")
        if rate > best:
            best = rate
    return best


def bench_kind(
    state: PlacementState,
    kind: str,
    n_moves: int,
    seed: int = 1,
    repeats: int = 3,
) -> Optional[float]:
    """Moves/sec for one move kind (None if the circuit lacks the kind)."""
    rng = random.Random(seed)
    movable = _movable(state)
    if len(movable) < 2:
        return None

    if kind == "displace":

        def body() -> None:
            idx = movable[rng.randrange(len(movable))]
            _, snap = state.move_cell(idx, center=_random_target(state, rng))
            if rng.random() < 0.5:
                state.restore(snap)

    elif kind == "displace_inverted":

        def body() -> None:
            idx = movable[rng.randrange(len(movable))]
            _, snap = state.move_cell_inverted(idx, _random_target(state, rng))
            if rng.random() < 0.5:
                state.restore(snap)

    elif kind == "swap":

        def body() -> None:
            pi = rng.randrange(len(movable))
            pj = rng.randrange(len(movable) - 1)
            if pj >= pi:
                pj += 1
            _, snap = state.swap_cells(movable[pi], movable[pj])
            if rng.random() < 0.5:
                state.restore(snap)

    elif kind == "pin_group":
        customs = _custom_with_groups(state)
        if not customs:
            return None
        sides = ("left", "right", "bottom", "top")

        def body() -> None:
            idx = customs[rng.randrange(len(customs))]
            groups = state._groups[idx]
            key, _ = groups[rng.randrange(len(groups))]
            cell = state.cell(idx)
            _, snap = state.move_pin_group(
                idx,
                key,
                sides[rng.randrange(4)],
                rng.randrange(cell.sites_per_edge),
            )
            if rng.random() < 0.5:
                state.restore(snap)

    elif kind == "reject":
        # The pure rejection cycle: every move is taken back, so this
        # times move + snapshot + restore together.

        def body() -> None:
            idx = movable[rng.randrange(len(movable))]
            _, snap = state.move_cell(idx, center=_random_target(state, rng))
            state.restore(snap)

    else:
        raise ValueError(f"unknown move kind {kind!r}")

    return round(_time_loop(body, n_moves, repeats), 1)


def bench_mixed(
    state: PlacementState, n_steps: int, seed: int = 2, repeats: int = 3
) -> Dict:
    """Drive MoveGenerator.step at a fixed T; returns moves/sec (best of
    ``repeats`` passes) plus the generator's attempt/accept counters."""
    limiter = _make_limiter(state)
    generator = MoveGenerator(state, limiter)
    best = 0.0
    total_attempts = 0
    for _ in range(repeats):
        rng = random.Random(seed)
        start = time.perf_counter()
        attempts = 0
        for _ in range(n_steps):
            a, _ = generator.step(MIXED_TEMPERATURE, rng)
            attempts += a
        elapsed = time.perf_counter() - start
        total_attempts += attempts
        rate = attempts / elapsed if elapsed > 0 else float("inf")
        if rate > best:
            best = rate
    return {
        "moves_per_sec": round(best, 1),
        "attempts": total_attempts,
        "per_kind": {k: list(v) for k, v in sorted(generator.stats.items())},
    }


def bench_mixed_batched(
    state, n_steps: int, seed: int = 2, repeats: int = 3
) -> Dict:
    """The array core's batched mixed anneal: ``BatchMoveGenerator``
    proposing one batch of distinct-cell moves per step.  The batch size
    is the cell count, so each step is one inner-loop sweep; begin() /
    finish() (the object<->array handoff) run outside the timed region,
    as they do once per anneal, not per move."""
    limiter = _make_limiter(state)
    best = 0.0
    total_attempts = 0
    batch = max(2, len(_movable(state)))
    for _ in range(repeats):
        generator = BatchMoveGenerator(
            state, limiter, batch=batch, seed=seed
        )
        # Stage-1 batches draw only from the mover's numpy stream.
        rng = random.Random(seed)
        generator.begin()
        # Untimed warmup: the first few vectorized steps pay numpy's
        # allocator/rng setup, which would dominate a short quick-mode
        # window and make the CI speedup gate flap.
        for _ in range(5):
            generator.step(MIXED_TEMPERATURE, rng)
        start = time.perf_counter()
        attempts = 0
        for _ in range(n_steps):
            a, _ = generator.step(MIXED_TEMPERATURE, rng)
            attempts += a
        elapsed = time.perf_counter() - start
        generator.finish()
        total_attempts += attempts
        rate = attempts / elapsed if elapsed > 0 else float("inf")
        if rate > best:
            best = rate
    return {
        "moves_per_sec": round(best, 1),
        "attempts": total_attempts,
        "batch": batch,
        "per_kind": {k: list(v) for k, v in sorted(generator.stats.items())},
    }


#: The replayed walks: the stage-1 mixed anneal, the refine anneal of
#: stage 2 (static per-side expansions; displacements and pin-group
#: moves only), and the mixed anneal over ``crowded_circuit``, where
#: pins overfill sites of capacity 1 and 2 and C3 is often positive.
REPLAY_WALKS = ("mixed", "refine", "crowded")

#: Kappa (Eqn 10) of the crowded walk: not an integer, so each positive
#: C3 term is a float with a fraction.
CROWDED_KAPPA = 2.37

#: The refine walk runs at the temperature whose window is this fraction
#: of the full span (``TimberWolfConfig.mu``, Eqn 28).
REFINE_MU = 0.03


def _crowded_state(n: int, core: str) -> PlacementState:
    """A randomized placement of an n-cell ``crowded_circuit``, half of
    its cells custom."""
    circuit = crowded_circuit(
        CircuitSpec(
            name=f"crowded{n}",
            num_cells=n,
            num_nets=2 * n,
            num_pins=6 * n,
            custom_fraction=0.5,
        )
    )
    state = make_placement_state(
        core, circuit, determine_core(circuit), kappa=CROWDED_KAPPA
    )
    state.randomize(random.Random(0))
    return state


def _replay_trace(n: int, steps: int, seed: int, core: str, walk: str) -> List:
    """One seeded MoveGenerator walk: its (attempts, accepts, cost, C3)
    per step."""
    if walk == "crowded":
        state = _crowded_state(n, core)
    else:
        state = build_state(n, core=core)
    limiter = _make_limiter(state)
    if walk == "refine":
        state.set_static_expansions(
            {
                name: {
                    LEFT: 1.0 + k % 3,
                    BOTTOM: 0.5,
                    RIGHT: 2.0,
                    TOP: 0.25 * (k + 1),
                }
                for k, name in enumerate(state.names)
            }
        )
        generator = MoveGenerator(state, limiter, refine=True)
        temperature = limiter.temperature_for_fraction(REFINE_MU)
    else:
        generator = MoveGenerator(state, limiter)
        temperature = MIXED_TEMPERATURE
    rng = random.Random(seed)
    trace = []
    for _ in range(steps):
        attempts, accepts = generator.step(temperature, rng)
        trace.append((attempts, accepts, state.cost(), state.c3()))
    return trace


def verify_replay(
    n: int = GATE_SIZE, steps: int = REPLAY_STEPS, seed: int = 4
) -> Dict:
    """Replay each seeded walk of ``REPLAY_WALKS`` under both cores and
    compare every step's (attempts, accepts, cost, C3) bit-for-bit.
    ``c3_positive_steps`` counts the steps, over all walks, after which
    C3 is positive: the replay compares the penalty's positive branch
    only if that count is.

    This is the bench-side mirror of the round-trip property tests: the
    array kernel must make the exact accept/reject decisions the object
    core makes, or every checkpoint and telemetry artifact it produces
    is silently incomparable.
    """
    first_divergence = None
    c3_positive_steps = 0
    for walk in REPLAY_WALKS:
        traces = {
            core: _replay_trace(n, steps, seed, core, walk) for core in CORES
        }
        c3_positive_steps += sum(1 for step in traces["object"] if step[3] > 0)
        for i, (obj, arr) in enumerate(zip(traces["object"], traces["array"])):
            if obj != arr:
                first_divergence = {
                    "walk": walk,
                    "step": i,
                    "object": list(obj),
                    "array": list(arr),
                }
                break
        if first_divergence is not None:
            break
    return {
        "size": n,
        "steps": steps,
        "seed": seed,
        "walks": list(REPLAY_WALKS),
        "identical": first_divergence is None,
        "first_divergence": first_divergence,
        "c3_positive_steps": c3_positive_steps,
    }


#: The engine emits one ``anneal.temperature`` event per inner loop; the
#: overhead bench mirrors that cadence: one event every EVENT_EVERY steps.
EVENT_EVERY = 50

#: CI smoke mode fails when the null-sink mixed-anneal rate falls more
#: than this far below the untraced baseline.
MAX_NULL_OVERHEAD_PCT = 3.0

#: CI budget for the sampling profiler at its default rate (97 Hz): the
#: profiled mixed-anneal rate must stay within this percentage of the
#: unprofiled baseline.  Sampling happens on a separate thread, so the
#: cost is GIL contention during ``sys._current_frames()``, not
#: per-move bookkeeping.
MAX_PROFILER_OVERHEAD_PCT = 5.0

#: Shortest timed pass for the overhead measurement: the step count is
#: scaled until one untraced pass takes at least this long.  Passes are
#: kept short so that the four passes of a round sit close together in
#: time.  On a shared 2-vCPU host the same loop ran anywhere from 0.17
#: to 0.28 s over 20 back-to-back passes, drifting over seconds; an
#: overhead taken as a ratio within one round cancels that drift, and
#: many short rounds estimate it better than a few long ones.
MIN_MEASURE_SECONDS = 0.05

#: Rounds of the overhead measurement (one pass of every variant each).
#: The reported rate is the per-variant MEDIAN, which (unlike best-of)
#: is an unbiased location estimate; an overhead is the median of the
#: per-round ratios to the baseline pass of the same round.
OVERHEAD_REPEATS = 25


def _mixed_rate(state: PlacementState, limiter, n_steps: int, seed: int) -> float:
    """One timed mixed-anneal pass under the ambient tracer, emitting
    engine-cadence events; returns attempts/sec."""
    tracer = current_tracer()
    rng = random.Random(seed)
    generator = MoveGenerator(state, limiter)
    attempts = 0
    start = time.perf_counter()
    for i in range(n_steps):
        a, _ = generator.step(MIXED_TEMPERATURE, rng)
        attempts += a
        if tracer.enabled and (i + 1) % EVENT_EVERY == 0:
            tracer.event(
                "anneal.temperature",
                step=i,
                T=MIXED_TEMPERATURE,
                attempts=attempts,
                cost=state.cost(),
            )
    elapsed = time.perf_counter() - start
    return attempts / elapsed if elapsed > 0 else float("inf")


def bench_telemetry_overhead(
    state: PlacementState,
    n_steps: int,
    seed: int = 3,
    repeats: int = OVERHEAD_REPEATS,
) -> Dict:
    """Mixed-anneal rate with telemetry off, null sink, file sink, and
    the sampling profiler attached at its default rate.

    Statistically honest protocol: the step count is first auto-scaled
    so one untraced pass takes at least ``MIN_MEASURE_SECONDS``; every
    timed pass then starts from the same saved placement, so all
    variants replay the identical move sequence.  The variants run
    interleaved, one pass each per round, with the order rotated each
    round so no variant holds a fixed position in it.  A variant's
    overhead is the median over rounds of its rate relative to the
    baseline pass of the same round: pairing within a round cancels
    host drift slower than one round.  ``null_overhead_pct`` is the
    instrumentation cost of the default (disabled) telemetry path
    versus the untraced hot loop — the number the CI gate bounds at 3 %.
    """
    import contextlib
    import os
    import tempfile

    from repro.telemetry.profile import SamplingProfiler

    repeats = max(repeats, OVERHEAD_REPEATS)
    limiter = _make_limiter(state)
    start_state = state.state_dict()

    # Calibrate the measurement window on the untraced loop.
    start = time.perf_counter()
    _mixed_rate(state, limiter, n_steps, seed)
    elapsed = time.perf_counter() - start
    if 0 < elapsed < MIN_MEASURE_SECONDS:
        n_steps = int(n_steps * MIN_MEASURE_SECONDS / elapsed) + 1

    fd, trace_path = tempfile.mkstemp(suffix=".jsonl", prefix="bench_trace_")
    os.close(fd)
    rates: Dict[str, List[float]] = {
        "baseline": [],
        "null_sink": [],
        "file_sink": [],
        "profiler": [],
    }
    modes = tuple(rates)
    profiler_samples = 0
    try:
        for r in range(repeats):
            for mode in modes[r % len(modes):] + modes[: r % len(modes)]:
                state.load_state_dict(start_state)
                if mode == "baseline":
                    ctx = contextlib.nullcontext()
                elif mode == "null_sink":
                    ctx = use_tracer(Tracer(NullSink()))
                elif mode == "file_sink":
                    sink = FileSink(trace_path)
                    ctx = use_tracer(Tracer(sink))
                else:
                    ctx = SamplingProfiler()  # default rate, this thread
                with ctx:
                    rate = _mixed_rate(state, limiter, n_steps, seed)
                if mode == "file_sink":
                    sink.close()
                elif mode == "profiler":
                    profiler_samples += ctx.sample_count
                rates[mode].append(rate)
        trace_bytes = os.path.getsize(trace_path)
    finally:
        os.unlink(trace_path)

    median = {mode: statistics.median(vals) for mode, vals in rates.items()}

    def overhead(variant: str) -> float:
        ratios = [v / b for v, b in zip(rates[variant], rates["baseline"]) if b > 0]
        if not ratios:
            return 0.0
        return round(100.0 * (1.0 - statistics.median(ratios)), 2)

    return {
        "baseline_moves_per_sec": round(median["baseline"], 1),
        "null_sink_moves_per_sec": round(median["null_sink"], 1),
        "file_sink_moves_per_sec": round(median["file_sink"], 1),
        "profiler_moves_per_sec": round(median["profiler"], 1),
        "null_overhead_pct": overhead("null_sink"),
        "file_overhead_pct": overhead("file_sink"),
        "profiler_overhead_pct": overhead("profiler"),
        "max_null_overhead_pct": MAX_NULL_OVERHEAD_PCT,
        "max_profiler_overhead_pct": MAX_PROFILER_OVERHEAD_PCT,
        "profiler_samples": profiler_samples,
        "trace_bytes": trace_bytes,
        "steps": n_steps,
        "repeats": repeats,
        "estimator": "median of per-round ratios to baseline",
        "min_measure_seconds": MIN_MEASURE_SECONDS,
    }


def run(sizes, moves_per_kind: int, mixed_steps: int, repeats: int = 3) -> Dict:
    from common import host_metadata  # noqa: E402 (needs the path bootstrap)

    kinds = ("displace", "displace_inverted", "swap", "pin_group", "reject")
    out: Dict = {
        "benchmark": "moves_per_sec",
        "host": host_metadata(),
        "baseline_mixed_moves_per_sec_n50": BASELINE_MIXED_MOVES_PER_SEC_N50,
        "sizes": {},
    }

    replay = verify_replay(n=min(GATE_SIZE, max(sizes)))
    out["replay"] = replay
    status = "identical" if replay["identical"] else "DIVERGED"
    print(
        f"  replay: {replay['steps']} seeded moves per walk "
        f"({', '.join(replay['walks'])}) under both cores -> {status}; "
        f"{replay['c3_positive_steps']} steps with C3 > 0"
    )

    for n in sizes:
        row: Dict = {}
        for core in CORES:
            state = build_state(n, core=core)
            crow: Dict = {}
            for kind in kinds:
                rate = bench_kind(state, kind, moves_per_kind, repeats=repeats)
                crow[kind] = rate
                rate_s = f"{rate:>10.0f}" if rate is not None else "       n/a"
                print(
                    f"  N={n:<4} {core:<6} {kind:<18} {rate_s} moves/sec",
                    flush=True,
                )
            crow["mixed_anneal"] = bench_mixed(state, mixed_steps, repeats=repeats)
            print(
                f"  N={n:<4} {core:<6} {'mixed_anneal':<18} "
                f"{crow['mixed_anneal']['moves_per_sec']:>10.0f} moves/sec"
            )
            row[core] = crow
        batched = bench_mixed_batched(
            build_state(n, core="array"), mixed_steps, repeats=repeats
        )
        row["array_batched_mixed"] = batched
        speedup = batched["moves_per_sec"] / BASELINE_MIXED_MOVES_PER_SEC_N50
        row["mixed_speedup_vs_baseline"] = round(speedup, 2)
        print(
            f"  N={n:<4} {'array':<6} {'batched_mixed':<18} "
            f"{batched['moves_per_sec']:>10.0f} moves/sec "
            f"({speedup:.1f}x committed N=50 baseline)"
        )
        out["sizes"][str(n)] = row

    # Telemetry overhead on the largest size (worst case for per-event
    # payloads relative to nothing; the hot loop itself is size-invariant).
    n = sizes[-1]
    overhead = bench_telemetry_overhead(
        build_state(n), max(mixed_steps, 150)
    )
    overhead["size"] = n
    out["telemetry_overhead"] = overhead
    print(
        f"  N={n:<4} telemetry overhead (median of {overhead['repeats']}): "
        f"null {overhead['null_overhead_pct']:+.1f}%  "
        f"file {overhead['file_overhead_pct']:+.1f}%  "
        f"profiler {overhead['profiler_overhead_pct']:+.1f}%  "
        f"({overhead['trace_bytes']} trace bytes, "
        f"{overhead['profiler_samples']} profile samples)"
    )
    return out


def _registry_payload(results: Dict, sizes, quick: bool) -> Dict:
    """Flatten the gate-size row into per-kind, per-core registry
    metrics so ``python -m repro qor gate --bench moves_per_sec`` can
    gate each one against the rolling history."""
    gate_key = str(GATE_SIZE) if str(GATE_SIZE) in results["sizes"] else str(
        sizes[-1]
    )
    row = results["sizes"][gate_key]
    payload: Dict = {
        "quick": quick,
        "sizes": [str(n) for n in sizes],
        "gate_size": gate_key,
        "null_overhead_pct": results["telemetry_overhead"]["null_overhead_pct"],
        "file_overhead_pct": results["telemetry_overhead"]["file_overhead_pct"],
        "profiler_overhead_pct": results["telemetry_overhead"][
            "profiler_overhead_pct"
        ],
        "replay_identical": results["replay"]["identical"],
        "mixed_speedup_vs_baseline": row["mixed_speedup_vs_baseline"],
        "best_mixed_moves_per_sec": max(
            r["array_batched_mixed"]["moves_per_sec"]
            for r in results["sizes"].values()
        ),
        "array_batched_mixed_moves_per_sec": row["array_batched_mixed"][
            "moves_per_sec"
        ],
    }
    for core in CORES:
        payload[f"{core}_mixed_moves_per_sec"] = row[core]["mixed_anneal"][
            "moves_per_sec"
        ]
        for kind in ("displace", "displace_inverted", "swap", "pin_group",
                     "reject"):
            rate = row[core].get(kind)
            if rate is not None:
                payload[f"{core}_{kind}_moves_per_sec"] = rate
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / few moves (CI smoke)"
    )
    parser.add_argument(
        "--sizes", type=str, default=None, help="comma-separated cell counts"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_placement.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed passes per kind; the best is reported (default 3, 1 in --quick)",
    )
    args = parser.parse_args(argv)

    if args.sizes:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    else:
        sizes = QUICK_SIZES if args.quick else FULL_SIZES
    moves_per_kind = 150 if args.quick else 600
    mixed_steps = 150 if args.quick else 300
    repeats = args.repeats if args.repeats else (1 if args.quick else 3)

    print(
        f"moves/sec benchmark: sizes={sizes}, {moves_per_kind} moves/kind, "
        f"best of {repeats}, both cores"
    )
    results = run(sizes, moves_per_kind, mixed_steps, repeats=repeats)
    results["quick"] = args.quick

    # Registry-backed trajectory: append this result, embed the trailing
    # history for the same config hash so the JSON is self-describing
    # and never silently stale.
    from common import (  # noqa: E402
        bench_config_sha,
        bench_registry,
        record_bench_result,
    )

    results["config_sha256"] = bench_config_sha()
    payload = _registry_payload(results, sizes, args.quick)
    history = record_bench_result(
        "moves_per_sec", payload, registry_path=bench_registry(args.output)
    )
    results["history"] = [
        {
            k: h.get(k)
            for k in (
                "recorded",
                "quick",
                "best_mixed_moves_per_sec",
                "array_batched_mixed_moves_per_sec",
                "object_mixed_moves_per_sec",
                "mixed_speedup_vs_baseline",
                "null_overhead_pct",
                "profiler_overhead_pct",
                "replay_identical",
            )
        }
        for h in history
    ]
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output} ({len(history)} recorded runs for this config)")

    failed = False
    if not results["replay"]["identical"]:
        divergence = results["replay"]["first_divergence"]
        print(
            "FAIL: array core diverged from the object core on the seeded "
            f"{divergence['walk']} replay at step {divergence['step']}: "
            f"{divergence}"
        )
        failed = True
    if args.quick:
        # CI smoke gates: the disabled-telemetry hot loop must stay within
        # MAX_NULL_OVERHEAD_PCT of the untraced baseline, and the batched
        # array anneal must hold its speedup over the committed baseline.
        null_pct = results["telemetry_overhead"]["null_overhead_pct"]
        if null_pct > MAX_NULL_OVERHEAD_PCT:
            print(
                f"FAIL: null-sink telemetry overhead {null_pct:.1f}% exceeds "
                f"{MAX_NULL_OVERHEAD_PCT:.0f}% budget"
            )
            failed = True
        else:
            print(f"telemetry overhead gate ok ({null_pct:+.1f}% <= "
                  f"{MAX_NULL_OVERHEAD_PCT:.0f}%)")
        prof_pct = results["telemetry_overhead"]["profiler_overhead_pct"]
        if prof_pct > MAX_PROFILER_OVERHEAD_PCT:
            print(
                f"FAIL: sampling-profiler overhead {prof_pct:.1f}% exceeds "
                f"{MAX_PROFILER_OVERHEAD_PCT:.0f}% budget"
            )
            failed = True
        else:
            print(f"profiler overhead gate ok ({prof_pct:+.1f}% <= "
                  f"{MAX_PROFILER_OVERHEAD_PCT:.0f}%)")
        speedup = payload["mixed_speedup_vs_baseline"]
        if speedup < MIN_QUICK_SPEEDUP:
            print(
                f"FAIL: batched array mixed anneal at N={payload['gate_size']} "
                f"is {speedup:.2f}x the committed baseline "
                f"({BASELINE_MIXED_MOVES_PER_SEC_N50:.0f} moves/sec); "
                f"the gate requires >= {MIN_QUICK_SPEEDUP:.0f}x"
            )
            failed = True
        else:
            print(
                f"speedup gate ok ({speedup:.2f}x >= "
                f"{MIN_QUICK_SPEEDUP:.0f}x committed baseline)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
