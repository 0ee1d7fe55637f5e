#!/usr/bin/env python
"""Tour of the parallel execution layer (``repro.parallel``).

Runs the same circuit three ways and compares the outcomes:

1. the classic serial flow (one chain, one process);
2. K annealing chains with best-of-K exchange, serial backend
   (``workers=1`` — same answer as any worker count, just slower);
3. the same K chains across real worker processes, plus the per-net
   router fan-out in stage 2.

The key property on display: runs 2 and 3 produce the *identical*
placement — the multi-chain result depends on ``(seed, chains,
exchange_period)`` only, never on ``workers`` — while run 1 differs
(it is a different algorithm: a single chain, no exchange).

Run:  python examples/parallel_flow.py [--chains K] [--workers W]
      [--mover serial|batched]

``--mover batched`` swaps every chain onto the vectorized sweep kernel
(``BatchMoveGenerator``); the worker-count invariance holds there too.
"""

import argparse
import time
from dataclasses import replace

from repro import ParallelConfig, TimberWolfConfig, place_and_route
from repro.config import MOVERS

from quickstart import build_circuit


def run(circuit, config, label):
    t0 = time.perf_counter()
    result = place_and_route(circuit, config)
    elapsed = time.perf_counter() - t0
    print(
        f"  {label:28s}  TEIL {result.teil:10.1f}  "
        f"area {result.chip_area:10.1f}  {elapsed:6.2f}s"
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--exchange-period", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--mover",
        choices=MOVERS,
        default="serial",
        help="move engine for every run: one-at-a-time Metropolis or "
        "the vectorized batched sweep kernel",
    )
    args = parser.parse_args()

    circuit = build_circuit()
    base = TimberWolfConfig.smoke(seed=args.seed)
    if args.mover == "batched":
        base = replace(base, core="array", mover="batched")
    print(f"placing {circuit} (seed {args.seed}, mover {args.mover})")

    serial = run(circuit, base, "serial (1 chain)")

    multi = replace(
        base,
        parallel=ParallelConfig(
            workers=1,
            chains=args.chains,
            exchange_period=args.exchange_period,
        ),
    )
    one_worker = run(circuit, multi, f"{args.chains} chains, 1 worker")

    pooled = replace(
        multi,
        parallel=replace(multi.parallel, workers=args.workers),
    )
    n_workers = run(
        circuit, pooled, f"{args.chains} chains, {args.workers} workers"
    )

    same = one_worker.placement() == n_workers.placement()
    print()
    print(f"multi-chain TEIL vs serial: {one_worker.teil:.1f} vs {serial.teil:.1f}")
    print(
        "worker-count invariance: "
        + ("OK — identical placements" if same else "FAILED — placements differ!")
    )
    if not same:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
