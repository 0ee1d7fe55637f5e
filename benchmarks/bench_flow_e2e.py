"""End-to-end flow benchmark: serial vs batched mover, full ``place``.

``bench_moves_per_sec`` times the inner loop in isolation; this harness
answers the question that actually matters for the flow: how much faster
is a complete ``place`` run when the anneals run on the batched sweep
kernel (``--mover batched``), and how much placement quality does the
coarser move set cost?  For synthetic circuits at N ∈ {50, 100, 200}
cells it runs the full two-stage flow twice per size — once per mover,
same seed, same schedule — and records:

* the stage-1 span wall-clock (from the run's own telemetry) and the
  total flow wall-clock, which also carries the movers' difference in
  the stage-2 refine anneal;
* final TEIL / chip area / stage-1 residual overlap for both movers,
  plus the batched-vs-serial gaps in percent.

The batched mover proposes displacements and interchanges only in stage
1 (no orientation / aspect / pin-group moves) and displacement batches
plus a serial pin round per temperature in the refine, so it is *not*
bit-identical to the serial cascade — parity is a QoR gate, not an
equality check.  The thresholds below were set empirically from
smoke-effort runs and leave headroom over the observed gaps.

``--quick`` (the CI smoke mode) additionally enforces three gates at the
gate size: stage-1 speedup >= 2x, TEIL/area parity within thresholds,
and the scratch-buffer invariant — after a short warmup the batch
kernel's pool must stop allocating (``scratch_misses`` stays flat), i.e.
steady-state sweeps are allocation-free.

Results go to ``BENCH_flow.json`` at the repository root and into the
bench registry (``flow_e2e``), so the flow-level trajectory is
machine-readable from PR to PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_flow_e2e.py [--quick]
        [--output PATH] [--sizes 50,100,200]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro import TimberWolfConfig, place_and_route  # noqa: E402
from repro.annealing import RangeLimiter  # noqa: E402
from repro.bench import CircuitSpec, generate_circuit  # noqa: E402
from repro.config import MOVERS  # noqa: E402
from repro.estimator import determine_core  # noqa: E402
from repro.placement import BatchMoveGenerator, make_placement_state  # noqa: E402
from repro.placement.batch import BATCH_KINDS  # noqa: E402

FULL_SIZES = (50, 100, 200)
QUICK_SIZES = (50,)

#: The size the quick-mode gates and the flattened registry metrics are
#: taken at (the smallest full-sweep size: the batched kernel's edge is
#: *smallest* here, so a gate that passes at N=50 passes everywhere).
GATE_SIZE = 50

#: Minimum batched-over-serial stage-1 wall-clock speedup enforced in
#: --quick mode.  Measured ~4-5x at smoke effort; 2x leaves room for CI
#: host noise.
MIN_STAGE1_SPEEDUP = 2.0

#: QoR parity budgets, batched vs serial, enforced in --quick mode.
#: The batched mover trades the full §3.2.1 cascade (orientation,
#: aspect, pin-group moves) for vectorized displace/interchange sweeps;
#: at smoke effort that costs ~30% TEIL and a few percent area
#: (measured), so the budgets sit above that with margin.  A regression
#: that pushes past them means the batched path stopped annealing, not
#: that it annealed slightly worse.
MAX_TEIL_GAP_PCT = 45.0
MAX_AREA_GAP_PCT = 20.0

#: Scratch-invariant drill: minimum warmup sweeps (warmup actually runs
#: until BOTH move kinds have fired at least once — each kind's buffers
#: allocate on its first batch, and with r_ratio=10 the interchange kind
#: fires only ~1 sweep in 11), then steady-state sweeps during which the
#: kernel's buffer pool must not allocate once.
SCRATCH_WARMUP_SWEEPS = 12
SCRATCH_WARMUP_CAP = 400
SCRATCH_STEADY_SWEEPS = 50


def build_circuit(n: int, seed: int = 0):
    """A synthetic n-cell circuit (25% custom cells, same recipe as the
    moves/sec bench so the two artifacts describe the same workload)."""
    spec = CircuitSpec(
        name=f"flow{n}",
        num_cells=n,
        num_nets=2 * n,
        num_pins=5 * n,
        seed=seed,
        custom_fraction=0.25,
    )
    return generate_circuit(spec)


def flow_config(mover: str, seed: int) -> TimberWolfConfig:
    """Smoke-effort flow config: identical for both movers except the
    mover switch itself (both run the array core so the cost model and
    schedule are the same code)."""
    return replace(
        TimberWolfConfig.smoke(seed),
        core="array",
        mover=mover,
        attempts_per_cell=10,
    )


def _stage_wall(result, name: str) -> Optional[float]:
    """Wall-clock of a named stage span from the run's own trace."""
    for event in result.trace_events or ():
        if event.get("ev") == "span_end" and event.get("name") == name:
            return float(event["wall_s"])
    return None


def run_one(circuit, mover: str, seed: int) -> Dict:
    """One full place run; returns the timing + QoR row."""
    config = flow_config(mover, seed)
    start = time.perf_counter()
    result = place_and_route(circuit, config)
    total = time.perf_counter() - start
    stage1_wall = _stage_wall(result, "stage1")
    stage2_wall = _stage_wall(result, "stage2")
    return {
        "mover": mover,
        "total_seconds": round(total, 3),
        "stage1_seconds": round(stage1_wall, 3) if stage1_wall else None,
        "stage2_seconds": round(stage2_wall, 3) if stage2_wall else None,
        "teil": round(result.teil, 1),
        "chip_area": round(result.chip_area, 1),
        "stage1_teil": round(result.stage1_teil, 1),
        "residual_overlap": round(result.stage1.residual_overlap, 2),
        "temperatures": result.stage1.anneal.num_temperatures,
    }


def _gap_pct(batched: float, serial: float) -> float:
    """How much worse (positive) the batched number is, in percent."""
    if serial == 0:
        return 0.0
    return round(100.0 * (batched - serial) / abs(serial), 2)


def verify_scratch_invariant(n: int = GATE_SIZE, seed: int = 5) -> Dict:
    """Run warmup + steady-state batched sweeps and check the kernel's
    scratch pool allocates only during warmup.

    Every ``_buf`` miss increments ``scratch_misses``; once each
    call-site/shape pair has been seen, steady-state sweeps must reuse
    the pooled arrays.  A nonzero steady-state delta means a per-sweep
    allocation crept back into the kernel — exactly the churn this PR
    removed.
    """
    circuit = build_circuit(n, seed=seed)
    state = make_placement_state("array", circuit, determine_core(circuit))
    state.randomize(random.Random(seed))
    core = state.core
    limiter = RangeLimiter(
        full_span_x=core.width, full_span_y=core.height, t_infinity=500.0
    )
    generator = BatchMoveGenerator(state, limiter, batch=max(2, n), seed=seed)
    # Stage-1 batches draw only from the mover's numpy stream.
    rng = random.Random(seed)
    generator.begin()
    try:
        warmup = 0
        while warmup < SCRATCH_WARMUP_CAP:
            generator.step(50.0, rng)
            warmup += 1
            if warmup >= SCRATCH_WARMUP_SWEEPS and all(
                generator.stats[kind][0] > 0 for kind in BATCH_KINDS
            ):
                break
        after_warmup = generator.kernel.scratch_misses
        for _ in range(SCRATCH_STEADY_SWEEPS):
            generator.step(50.0, rng)
        steady = generator.kernel.scratch_misses
    finally:
        generator.finish()
    return {
        "size": n,
        "warmup_sweeps": warmup,
        "steady_sweeps": SCRATCH_STEADY_SWEEPS,
        "misses_after_warmup": after_warmup,
        "misses_after_steady": steady,
        "steady_state_allocations": steady - after_warmup,
    }


def run(sizes, seed: int) -> Dict:
    from common import host_metadata  # noqa: E402 (needs the path bootstrap)

    out: Dict = {
        "benchmark": "flow_e2e",
        "host": host_metadata(),
        "seed": seed,
        "gates": {
            "min_stage1_speedup": MIN_STAGE1_SPEEDUP,
            "max_teil_gap_pct": MAX_TEIL_GAP_PCT,
            "max_area_gap_pct": MAX_AREA_GAP_PCT,
        },
        "sizes": {},
    }
    for n in sizes:
        circuit = build_circuit(n, seed=seed)
        row: Dict = {}
        for mover in MOVERS:
            row[mover] = run_one(circuit, mover, seed)
            r = row[mover]
            print(
                f"  N={n:<4} {mover:<8} stage1 {r['stage1_seconds']:>7.2f}s  "
                f"total {r['total_seconds']:>7.2f}s  TEIL {r['teil']:>10.1f}  "
                f"area {r['chip_area']:>10.1f}",
                flush=True,
            )
        serial, batched = row["serial"], row["batched"]
        row["stage1_speedup"] = round(
            serial["stage1_seconds"] / batched["stage1_seconds"], 2
        )
        row["total_speedup"] = round(
            serial["total_seconds"] / batched["total_seconds"], 2
        )
        row["teil_gap_pct"] = _gap_pct(batched["teil"], serial["teil"])
        row["area_gap_pct"] = _gap_pct(batched["chip_area"], serial["chip_area"])
        print(
            f"  N={n:<4} {'':8} stage1 speedup {row['stage1_speedup']:.2f}x  "
            f"total {row['total_speedup']:.2f}x  "
            f"TEIL gap {row['teil_gap_pct']:+.1f}%  "
            f"area gap {row['area_gap_pct']:+.1f}%"
        )
        out["sizes"][str(n)] = row

    scratch = verify_scratch_invariant(n=min(GATE_SIZE, max(sizes)))
    out["scratch"] = scratch
    print(
        f"  scratch pool: {scratch['misses_after_warmup']} buffers after "
        f"warmup, {scratch['steady_state_allocations']} allocations across "
        f"{scratch['steady_sweeps']} steady-state sweeps"
    )
    return out


def _registry_payload(results: Dict, sizes, quick: bool) -> Dict:
    gate_key = (
        str(GATE_SIZE)
        if str(GATE_SIZE) in results["sizes"]
        else str(sizes[-1])
    )
    row = results["sizes"][gate_key]
    return {
        "quick": quick,
        "sizes": [str(n) for n in sizes],
        "gate_size": gate_key,
        "stage1_speedup": row["stage1_speedup"],
        "total_speedup": row["total_speedup"],
        "teil_gap_pct": row["teil_gap_pct"],
        "area_gap_pct": row["area_gap_pct"],
        "serial_stage1_seconds": row["serial"]["stage1_seconds"],
        "batched_stage1_seconds": row["batched"]["stage1_seconds"],
        "serial_teil": row["serial"]["teil"],
        "batched_teil": row["batched"]["teil"],
        "serial_chip_area": row["serial"]["chip_area"],
        "batched_chip_area": row["batched"]["chip_area"],
        "scratch_steady_allocations": results["scratch"][
            "steady_state_allocations"
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="gate size only, with the CI gates enforced",
    )
    parser.add_argument(
        "--sizes", type=str, default=None, help="comma-separated cell counts"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_flow.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    if args.sizes:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    else:
        sizes = QUICK_SIZES if args.quick else FULL_SIZES

    print(
        f"flow e2e benchmark: sizes={sizes}, both movers, full place runs"
    )
    results = run(sizes, args.seed)
    results["quick"] = args.quick

    from common import (  # noqa: E402
        bench_config_sha,
        bench_registry,
        record_bench_result,
    )

    results["config_sha256"] = bench_config_sha()
    payload = _registry_payload(results, sizes, args.quick)
    history = record_bench_result(
        "flow_e2e", payload, registry_path=bench_registry(args.output)
    )
    results["history"] = [
        {
            k: h.get(k)
            for k in (
                "recorded",
                "quick",
                "stage1_speedup",
                "total_speedup",
                "teil_gap_pct",
                "area_gap_pct",
                "scratch_steady_allocations",
            )
        }
        for h in history
    ]
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output} ({len(history)} recorded runs for this config)")

    failed = False
    scratch = results["scratch"]["steady_state_allocations"]
    if scratch != 0:
        print(
            f"FAIL: batch kernel allocated {scratch} scratch buffers across "
            f"{results['scratch']['steady_sweeps']} steady-state sweeps; the "
            "pool must stop allocating after warmup"
        )
        failed = True
    else:
        print("scratch gate ok (0 steady-state allocations)")
    if args.quick:
        row = results["sizes"][payload["gate_size"]]
        speedup = row["stage1_speedup"]
        if speedup < MIN_STAGE1_SPEEDUP:
            print(
                f"FAIL: batched stage-1 at N={payload['gate_size']} is only "
                f"{speedup:.2f}x serial; the gate requires "
                f">= {MIN_STAGE1_SPEEDUP:.1f}x"
            )
            failed = True
        else:
            print(
                f"speedup gate ok ({speedup:.2f}x >= "
                f"{MIN_STAGE1_SPEEDUP:.1f}x serial stage-1)"
            )
        teil_gap, area_gap = row["teil_gap_pct"], row["area_gap_pct"]
        if teil_gap > MAX_TEIL_GAP_PCT:
            print(
                f"FAIL: batched TEIL is {teil_gap:+.1f}% vs serial; parity "
                f"budget is {MAX_TEIL_GAP_PCT:.0f}%"
            )
            failed = True
        elif area_gap > MAX_AREA_GAP_PCT:
            print(
                f"FAIL: batched chip area is {area_gap:+.1f}% vs serial; "
                f"parity budget is {MAX_AREA_GAP_PCT:.0f}%"
            )
            failed = True
        else:
            print(
                f"parity gate ok (TEIL {teil_gap:+.1f}% <= "
                f"{MAX_TEIL_GAP_PCT:.0f}%, area {area_gap:+.1f}% <= "
                f"{MAX_AREA_GAP_PCT:.0f}%)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
