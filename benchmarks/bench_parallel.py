"""Parallel execution layer benchmark: multi-chain SA + router fan-out.

Two questions, answered against an N-cell synthetic circuit (default
N=200, the size the ISSUE's speedup criterion names):

1. *Stage-1 wall-clock.*  K chains at 1/K of the serial per-step move
   budget perform the same total number of moves as the serial run;
   with K workers they should finish in a fraction of the serial time.
   The harness times K ∈ {1, 2, 4} (chains == workers) against the
   serial baseline and reports the speedups plus each run's final cost.
   It also re-runs the widest configuration with ``workers=1`` and
   asserts the placement is bit-identical — the determinism contract,
   measured, not assumed.

2. *Routing wall-clock + identity.*  The per-net fan-out routes the
   same channel graph with 1 and 4 workers, ``ROUTING_REPEATS`` times
   each in interleaved order, and reports each count's median; the
   committed routes must be identical and the pooled pass should be
   faster once nets are expensive enough to dominate the process
   overhead.

Results go to ``BENCH_parallel.json`` at the repository root, stamped
with host metadata (CPU count, Python version, platform) — a speedup
claim is only meaningful relative to ``host.cpu_count``.  On a
single-CPU host the expected stage-1 speedup is ~1.0x (there is nothing
to run the extra workers on); the artifact records whatever the host
can actually deliver.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]
        [--cells N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from common import host_metadata  # noqa: E402

from dataclasses import replace  # noqa: E402

from repro import ParallelConfig, TimberWolfConfig  # noqa: E402
from repro.bench import CircuitSpec, generate_circuit  # noqa: E402
from repro.channels import (  # noqa: E402
    ChannelGraph,
    decompose_free_space,
)
from repro.parallel.multichain import run_multichain_stage1  # noqa: E402
from repro.placement import remove_overlaps  # noqa: E402
from repro.placement.refine import channel_boundary  # noqa: E402
from repro.placement.stage1 import run_stage1  # noqa: E402
from repro.routing import GlobalRouter  # noqa: E402

CHAIN_COUNTS = (1, 2, 4)
#: Routing passes per worker count, interleaved (1, 4, 1, 4, ...) so a
#: slow stretch of the host hits both counts; the median is reported.
ROUTING_REPEATS = 5


def build_circuit(n: int, seed: int = 0):
    """The N-cell synthetic (25% custom cells), as in the moves bench."""
    spec = CircuitSpec(
        name=f"par{n}",
        num_cells=n,
        num_nets=2 * n,
        num_pins=5 * n,
        seed=seed,
        custom_fraction=0.25,
    )
    return generate_circuit(spec)


def base_config(attempts_per_cell: int, max_temperatures: int, seed: int = 3):
    return replace(
        TimberWolfConfig.smoke(seed=seed),
        attempts_per_cell=attempts_per_cell,
        max_temperatures=max_temperatures,
    )


def bench_stage1(circuit, attempts: int, max_temperatures: int) -> Dict:
    """Serial stage 1 vs K chains × K workers at attempts/K per chain —
    equal total move budget, so the comparison is work-normalized."""
    config = base_config(attempts, max_temperatures)
    start = time.perf_counter()
    serial = run_stage1(circuit, config, rng=random.Random(config.seed))
    serial_seconds = time.perf_counter() - start
    serial_moves = sum(s.attempts for s in serial.anneal.steps)
    out: Dict = {
        "serial": {
            "seconds": round(serial_seconds, 3),
            "final_cost": round(serial.anneal.final_cost, 4),
            "moves": serial_moves,
        },
        "chains": {},
    }
    print(
        f"  stage1 serial             {serial_seconds:7.2f}s  "
        f"cost {serial.anneal.final_cost:12.2f}  ({serial_moves} moves)"
    )
    for k in CHAIN_COUNTS:
        if k == 1:
            continue
        per_chain = max(1, attempts // k)
        cfg = replace(
            base_config(per_chain, max_temperatures),
            parallel=ParallelConfig(
                workers=k, chains=k, exchange_period=max(2, max_temperatures // 4)
            ),
        )
        start = time.perf_counter()
        result = run_multichain_stage1(circuit, cfg)
        seconds = time.perf_counter() - start
        speedup = serial_seconds / seconds if seconds > 0 else float("inf")
        row = {
            "workers": k,
            "attempts_per_cell_per_chain": per_chain,
            "seconds": round(seconds, 3),
            "speedup_vs_serial": round(speedup, 3),
            "final_cost": round(result.anneal.final_cost, 4),
        }
        # The contract: the same (seed, chains, exchange_period) run
        # serially must land on the identical placement.
        start = time.perf_counter()
        check = run_multichain_stage1(
            circuit, replace(cfg, parallel=replace(cfg.parallel, workers=1))
        )
        row["one_worker_seconds"] = round(time.perf_counter() - start, 3)
        row["deterministic_across_workers"] = (
            check.state.state_dict() == result.state.state_dict()
        )
        out["chains"][str(k)] = row
        print(
            f"  stage1 {k} chains x {k} workers {seconds:7.2f}s  "
            f"cost {result.anneal.final_cost:12.2f}  "
            f"speedup {speedup:5.2f}x  "
            f"identical={row['deterministic_across_workers']}"
        )
    return out


def bench_routing(circuit, config, state) -> Dict:
    """Route the legalized placement's channel graph with 1 vs 4
    workers; the committed routes must match edge-for-edge."""
    remove_overlaps(state, min_gap=circuit.track_spacing)
    shapes = {name: state.world_shape(name) for name in state.names}
    boundary = channel_boundary(state, circuit.track_spacing)
    free = decompose_free_space(shapes.values(), boundary)
    graph = ChannelGraph(free, circuit.track_spacing)
    for name in state.names:
        for pin_name in circuit.cells[name].pins:
            graph.attach_pin(name, pin_name, state.pin_position(name, pin_name))

    counts = (1, 4)
    seconds: Dict[int, list] = {w: [] for w in counts}
    results: Dict[int, list] = {w: [] for w in counts}
    for _ in range(ROUTING_REPEATS):
        for workers in counts:
            start = time.perf_counter()
            result = GlobalRouter(
                graph, m_routes=config.m_routes, seed=0, workers=workers
            ).route(circuit)
            seconds[workers].append(time.perf_counter() - start)
            results[workers].append(result)

    reference = results[1][0]
    serial_s = statistics.median(seconds[1])
    out: Dict = {"nets": len(circuit.nets), "repeats": ROUTING_REPEATS, "workers": {}}
    for workers in counts:
        result = results[workers][0]
        median = statistics.median(seconds[workers])
        row = {
            "seconds": round(median, 3),
            "total_length": round(result.total_length, 3),
            "routed_nets": len(result.routes),
            "overflow": result.overflow,
            "speedup_vs_serial": round(
                serial_s / median if median > 0 else float("inf"), 3
            ),
        }
        if workers != 1:
            # Every pooled repeat against the first serial one.
            row["identical_to_serial"] = all(
                r.routes == reference.routes
                and r.lengths == reference.lengths
                and r.interchange.selection == reference.interchange.selection
                for r in results[workers]
            )
        out["workers"][str(workers)] = row
        print(
            f"  routing {workers} worker(s)       {median:7.2f}s  "
            f"length {result.total_length:12.1f}  "
            f"({len(result.routes)} nets, median of {ROUTING_REPEATS})"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small circuit / few steps (CI smoke)"
    )
    parser.add_argument(
        "--cells", type=int, default=None, help="synthetic circuit size (default 200)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_parallel.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    n = args.cells if args.cells else (40 if args.quick else 200)
    attempts = 4 if args.quick else 8
    max_temperatures = 8 if args.quick else 40

    circuit = build_circuit(n)
    print(
        f"parallel benchmark: N={n}, attempts/cell={attempts}, "
        f"{max_temperatures} temperatures, cpus={host_metadata()['cpu_count']}"
    )
    results: Dict = {
        "benchmark": "parallel",
        "host": host_metadata(),
        "cells": n,
        "quick": args.quick,
        "stage1": bench_stage1(circuit, attempts, max_temperatures),
    }

    config = base_config(attempts, max_temperatures)
    stage1 = run_stage1(circuit, config, rng=random.Random(config.seed))
    results["routing"] = bench_routing(circuit, config, stage1.state)

    # Registry-backed trajectory: append this result and embed the
    # trailing history for the same config hash so the JSON artifact
    # can never go silently stale.
    from common import (  # noqa: E402
        bench_config_sha,
        bench_registry,
        record_bench_result,
    )

    best_chain = max(
        (row["speedup_vs_serial"] for row in results["stage1"]["chains"].values()),
        default=1.0,
    )
    results["config_sha256"] = bench_config_sha()
    history = record_bench_result(
        "parallel",
        {
            "quick": args.quick,
            "cells": n,
            "best_stage1_speedup": best_chain,
            "routing_speedup": results["routing"]["workers"]
            .get("4", {})
            .get("speedup_vs_serial"),
            "serial_stage1_seconds": results["stage1"]["serial"]["seconds"],
        },
        registry_path=bench_registry(args.output),
    )
    results["history"] = [
        {k: h.get(k) for k in ("recorded", "quick", "cells",
                               "best_stage1_speedup", "routing_speedup")}
        for h in history
    ]
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output} ({len(history)} recorded runs for this config)")

    failures = []
    for k, row in results["stage1"]["chains"].items():
        if not row["deterministic_across_workers"]:
            failures.append(f"stage1 K={k}: workers changed the placement")
    pooled = results["routing"]["workers"].get("4", {})
    if pooled and not pooled.get("identical_to_serial", True):
        failures.append("routing: pooled routes differ from serial")
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
