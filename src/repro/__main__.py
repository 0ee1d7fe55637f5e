"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats <circuit.twmc>``          — netlist statistics and validation
* ``place <circuit.twmc>``          — run the full flow, print the report
* ``resume <checkpoint.ckpt>``      — continue an interrupted ``place``
* ``generate <suite-name> <out>``   — write a synthetic suite circuit
* ``suite``                         — list the benchmark suite circuits
* ``status <rundir>``               — snapshot of a run's live heartbeat
  (exits 4 when the heartbeat is stale, 5 when the run died)
* ``watch <rundir>``                — follow a run's heartbeat live
* ``qor list|show|compare|gate``    — query the run registry; gate QoR
* ``serve [root]``                  — observability HTTP server: fleet
  status, SSE progress streams, ``/metrics``, anneal-health analytics
* ``service run|submit|status|drain|events`` — fault-tolerant placement
  service: supervised job queue with retry/backoff, timeouts,
  backpressure, and crash recovery via checkpoints (``docs/service.md``)
* ``trace show|export``             — span tree / waterfall / profile of
  a recorded run (``--trace`` JSONL or a rundir), merged across the
  processes that share one distributed trace id

``place`` options: ``--preset smoke|fast|paper`` (default fast),
``--seed N``, ``--svg out.svg`` (render the final placement),
``--json out.json`` (machine-readable result dump), ``--report``
(full engineering report instead of the summary), ``--trace out.jsonl``
(structured telemetry), ``--profile`` (sampling profiler; collapsed
stacks for flamegraphs), ``--checkpoint-dir DIR`` (periodic snapshots +
SIGINT/SIGTERM trapping; an interrupted run exits with status 3 and
prints the checkpoint to resume from), ``--budget-seconds /
--budget-temperatures / --budget-moves`` (graceful early stop), and
``--workers / --chains / --exchange-period`` (the parallel execution
layer: K-chain stage-1 annealing with best-of-K exchange plus the
per-net router fan-out; see ``docs/parallel.md``), and
``--rundir DIR / --registry DB / --metrics-textfile PATH`` (the
observability layer: run manifest, run log and live heartbeat in the
rundir, a QoR row in the SQLite run registry, Prometheus textfile
exposition; see ``docs/qor.md``), and ``--cooling table|adaptive /
--mover serial|batched`` (cooling schedule and move driver; see
``docs/performance.md``).

Setting the ``REPRO_FAULTS`` environment variable (e.g.
``router.route_net@3:error``) arms the fault-injection harness for the
whole process, to rehearse failure recovery in a real subprocess by
hand.  (CI's kill-and-resume job sends a real SIGTERM instead; see
``scripts/ci_kill_resume.py``.)
"""

from __future__ import annotations

import argparse
import os
import sys

from . import TimberWolfConfig, place_and_route, resume_place_and_route
from .bench import CIRCUIT_NAMES, PAPER_STATS, load_circuit, spec_for
from .bench.circuits import generate_circuit
from .config import COOLING_SCHEDULES, MOVERS
from .netlist import dump, load
from .resilience import (
    Budget,
    CheckpointPolicy,
    FaultInjector,
    FlowInterrupted,
    faults_from_env,
    install_injector,
)

#: Exit status of a run stopped by SIGINT/SIGTERM after checkpointing.
EXIT_INTERRUPTED = 3

#: Exit status of ``resume`` when the checkpoint's circuit hash does not
#: match (the file is valid but belongs to a different circuit).  The
#: service supervisor routes this straight to the dead-letter state —
#: retrying a mismatched checkpoint can never succeed.
EXIT_CHECKPOINT_MISMATCH = 6


def _config(preset: str, seed: int) -> TimberWolfConfig:
    factories = {
        "smoke": TimberWolfConfig.smoke,
        "fast": TimberWolfConfig.fast,
        "paper": TimberWolfConfig.paper,
    }
    try:
        return factories[preset](seed)
    except KeyError:
        raise SystemExit(f"unknown preset {preset!r}; choose smoke, fast, or paper")


def cmd_stats(args: argparse.Namespace) -> int:
    circuit = load(args.circuit)
    print(circuit)
    print(f"  total cell area      {circuit.total_cell_area():.1f}")
    print(f"  total cell perimeter {circuit.total_cell_perimeter():.1f}")
    print(f"  average pin density  {circuit.average_pin_density():.4f}")
    print(f"  macro cells          {len(circuit.macro_cells())}")
    print(f"  custom cells         {len(circuit.custom_cells())}")
    problems = circuit.validate()
    if problems:
        print("netlist problems:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("netlist clean")
    return 0


def _budget(args: argparse.Namespace):
    if not (args.budget_seconds or args.budget_temperatures or args.budget_moves):
        return None
    return Budget(
        wall_seconds=args.budget_seconds,
        temperatures=args.budget_temperatures,
        moves=args.budget_moves,
    )


def _checkpoint(args: argparse.Namespace, run_id=None, trace_id=None):
    if not args.checkpoint_dir:
        return None
    return CheckpointPolicy(
        directory=args.checkpoint_dir,
        every_temperatures=args.checkpoint_every,
        run_id=run_id,
        trace_id=trace_id,
    )


def _recorder(args: argparse.Namespace, run_id=None, trace_id=None):
    """A RunRecorder when observability was requested (``--rundir`` or
    ``--registry``); the rundir defaults to ``runs/<run_id>``."""
    if not (getattr(args, "rundir", None) or getattr(args, "registry", None)):
        return None
    from pathlib import Path

    from .qor import RunRecorder, new_run_id

    if run_id is None:
        run_id = new_run_id()
    rundir = args.rundir if args.rundir else Path("runs") / run_id
    return RunRecorder(
        rundir,
        registry=args.registry or None,
        run_id=run_id,
        metrics_textfile=getattr(args, "metrics_textfile", None),
        trace_id=trace_id,
    )


def _tracer(args: argparse.Namespace, recorder, ctx):
    """The run's tracer, stamped with the trace context: the recorder's
    (QoR record, heartbeat and the run log in the rundir, plus any
    ``--trace`` file elsewhere), else the ``--trace`` JSONL file alone;
    None when neither is asked for."""
    from .telemetry import FileSink, Tracer

    trace = getattr(args, "trace", None)
    if recorder is not None:
        tracer = recorder.open_tracer(trace)
    elif trace:
        tracer = Tracer(FileSink(trace))
    else:
        return None
    tracer.set_context(trace_id=ctx.trace_id, trace_span=ctx.span_id)
    return tracer


def _trace_context(existing_trace_id=None):
    """Resolve this process's distributed-trace hop: continue the trace
    recorded in a checkpoint, else the one a parent process propagated
    via the environment, else mint a fresh one."""
    from .telemetry.context import TraceContext, inherit_or_mint, new_span_id

    if existing_trace_id:
        try:
            return TraceContext(str(existing_trace_id), new_span_id())
        except ValueError:
            pass  # malformed id in an old/foreign checkpoint
    return inherit_or_mint()


def _profiling(args: argparse.Namespace, tracer, rundir=None):
    """Context manager running the sampling profiler around the flow
    (``--profile``); writes collapsed stacks on exit — including an
    interrupted exit — and emits the attribution summary as a trace
    event."""
    import contextlib

    if not getattr(args, "profile", False):
        return contextlib.nullcontext()

    from pathlib import Path

    from .telemetry.profile import SamplingProfiler

    @contextlib.contextmanager
    def session():
        profiler = SamplingProfiler(hz=args.profile_hz)
        profiler.start()
        try:
            yield profiler
        finally:
            profiler.stop()
            out = args.profile_out
            if not out:
                out = (
                    Path(rundir) / "profile.collapsed"
                    if rundir is not None
                    else Path("profile.collapsed")
                )
            profiler.write(out)
            summary = profiler.summary()
            if tracer is not None and tracer.enabled:
                tracer.event(
                    "profile.sampling",
                    samples=summary["samples"],
                    hz=summary["hz"],
                    wall_seconds=summary["wall_seconds"],
                    stages=summary["stages"],
                    kernels=summary["kernels"],
                    hot_frames=summary["hot_frames"],
                )
            print(
                f"wrote {out} ({summary['samples']} samples at "
                f"{args.profile_hz:g} Hz)",
                file=sys.stderr,
            )

    return session()


def _emit_result(result, args: argparse.Namespace) -> int:
    if args.report:
        from .flow.report import full_report

        print(full_report(result))
    else:
        print(result.summary())
    if args.json:
        from .flow.export import export_json

        export_json(result, args.json)
        print(f"wrote {args.json}")
    if args.svg:
        from .viz import write_placement_svg

        regions = None
        if result.refinement is not None and result.refinement.passes:
            regions = result.refinement.final_pass.graph.regions
        write_placement_svg(
            result.state, args.svg, show_regions=regions is not None,
            regions=regions,
        )
        print(f"wrote {args.svg}")
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    from dataclasses import replace

    circuit = load(args.circuit)
    config = _config(args.preset, args.seed)
    try:
        config = replace(
            config,
            cooling=args.cooling,
            mover=args.mover,
            batch_moves=args.batch_moves,
        )
    except ValueError as exc:
        # e.g. --batch-moves 0: a clean one-line refusal, not a
        # dataclass traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers != 1 or args.chains != 1 or args.exchange_period != 10:
        from .config import ParallelConfig

        config = replace(
            config,
            parallel=ParallelConfig(
                workers=args.workers,
                chains=args.chains,
                exchange_period=args.exchange_period,
            ),
        )
    ctx = _trace_context()
    recorder = _recorder(args, trace_id=ctx.trace_id)
    tracer = _tracer(args, recorder, ctx)
    rundir = recorder.rundir if recorder is not None else None

    def run():
        with _profiling(args, tracer, rundir):
            return place_and_route(
                circuit,
                config,
                tracer=tracer,
                budget=_budget(args),
                checkpoint=_checkpoint(
                    args,
                    run_id=recorder.run_id if recorder is not None else None,
                    trace_id=ctx.trace_id,
                ),
            )

    try:
        if recorder is not None:
            recorder.begin(circuit, config, command="place")
        result = _run_recorded(recorder, run)
    except FlowInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(
                f"resume with: python -m repro resume {exc.checkpoint_path}",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    finally:
        if tracer is not None:
            tracer.close()
    if recorder is not None:
        print(f"recorded run {recorder.run_id} in {recorder.rundir}")
    return _emit_result(result, args)


def _run_recorded(recorder, run):
    """Run the flow callable and close the run out: QoR on success, the
    interrupted or failed record otherwise."""
    if recorder is None:
        return run()
    try:
        result = run()
    except FlowInterrupted as exc:
        recorder.interrupted(
            str(exc.checkpoint_path) if exc.checkpoint_path else None
        )
        raise
    except BaseException as exc:
        recorder.failed(exc)
        raise
    recorder.finish(result)
    return result


def cmd_resume(args: argparse.Namespace) -> int:
    import json as _json

    from .resilience.checkpoint import CheckpointError, CheckpointMismatch

    expect_sha = None
    if getattr(args, "circuit", None):
        from pathlib import Path as _Path

        from .resilience.checkpoint import circuit_fingerprint

        expect_sha = circuit_fingerprint(
            _Path(args.circuit).read_text(encoding="utf-8")
        )
    try:
        return _resume(args, expect_sha)
    except CheckpointMismatch as exc:
        # Machine-readable reason on stderr so a supervisor can parse it
        # and route the job to the dead-letter state instead of retrying.
        print(
            _json.dumps(
                {
                    "error": "checkpoint_mismatch",
                    "checkpoint": str(args.checkpoint),
                    "reason": str(exc),
                }
            ),
            file=sys.stderr,
        )
        return EXIT_CHECKPOINT_MISMATCH
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1


def _resume(args: argparse.Namespace, expect_sha) -> int:
    from pathlib import Path as _Path

    from .resilience.checkpoint import read_checkpoint

    _, payload = read_checkpoint(args.checkpoint, expect_circuit_sha=expect_sha)
    if getattr(args, "mover", None):
        # The mover is baked into the checkpoint's config (a batched
        # checkpoint resumes batched automatically); an explicit pin
        # that disagrees is refused cleanly rather than silently
        # ignored or crashed on mid-anneal.
        ckpt_mover = payload.get("config", {}).get("mover", "serial")
        if ckpt_mover != args.mover:
            print(
                f"error: checkpoint was taken by a {ckpt_mover!r} run; "
                f"--mover {args.mover} cannot change the mover "
                "mid-anneal (drop the flag to continue the run as "
                "recorded)",
                file=sys.stderr,
            )
            return 2
    # The continued run keeps the original run's identities: the
    # checkpoint payload carries the run id AND the distributed trace
    # id, so a retry/resume extends the same trace instead of forking.
    ctx = _trace_context(payload.get("trace_id"))
    recorder = _recorder(
        args, run_id=payload.get("run_id"), trace_id=ctx.trace_id
    )
    if recorder is not None:
        from .flow.resume import checkpoint_inputs

        circuit, config = checkpoint_inputs(args.checkpoint, payload)
    tracer = _tracer(args, recorder, ctx)
    rundir = recorder.rundir if recorder is not None else None

    def run():
        with _profiling(args, tracer, rundir):
            return resume_place_and_route(
                args.checkpoint,
                tracer=tracer,
                budget=_budget(args),
                checkpoint=CheckpointPolicy(
                    directory=_Path(args.checkpoint).parent,
                    trace_id=ctx.trace_id,
                ),
                expect_circuit_sha=expect_sha,
            )

    try:
        if recorder is not None:
            recorder.begin(
                circuit, config, command="resume",
                resumed_from=str(args.checkpoint),
            )
        result = _run_recorded(recorder, run)
    except FlowInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(
                f"resume with: python -m repro resume {exc.checkpoint_path}",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    finally:
        if tracer is not None:
            tracer.close()
    if recorder is not None:
        print(f"recorded run {recorder.run_id} in {recorder.rundir}")
    print(f"resumed from {result.resumed_from}")
    return _emit_result(result, args)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.name not in CIRCUIT_NAMES:
        raise SystemExit(
            f"unknown suite circuit {args.name!r}; choose from {CIRCUIT_NAMES}"
        )
    circuit = generate_circuit(spec_for(args.name, trial=args.trial))
    dump(circuit, args.out)
    print(f"wrote {args.out}: {circuit}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    print(f"{'name':6s} {'cells':>6s} {'nets':>6s} {'pins':>6s}")
    for name, (cells, nets, pins) in PAPER_STATS.items():
        print(f"{name:6s} {cells:6d} {nets:6d} {pins:6d}")
    return 0


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--svg", help="write the final placement as SVG")
    p.add_argument("--json", help="write the full result as JSON")
    p.add_argument(
        "--report", action="store_true", help="print the full engineering report"
    )
    p.add_argument(
        "--trace",
        help="write a JSONL telemetry trace (inside the --rundir it names "
        "the run log, unless an earlier attempt wrote it)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run the low-overhead sampling profiler alongside the flow "
        "and write collapsed stacks (flamegraph input); see "
        "docs/telemetry.md",
    )
    p.add_argument(
        "--profile-hz",
        type=float,
        default=97.0,
        metavar="HZ",
        help="sampling rate of --profile (default 97)",
    )
    p.add_argument(
        "--profile-out",
        help="where to write the collapsed stacks (default "
        "<rundir>/profile.collapsed, else ./profile.collapsed)",
    )


def _add_observability_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rundir",
        help="write manifest.json / heartbeat.json / qor.json and the "
        "run log (the trace JSONL of each attempt) here "
        "(default runs/<run_id> when --registry is given)",
    )
    p.add_argument(
        "--registry",
        help="record the run in this SQLite run registry "
        "(see python -m repro qor)",
    )
    p.add_argument(
        "--metrics-textfile",
        help="also render each heartbeat as Prometheus text format here "
        "(node-exporter textfile collector)",
    )


def _add_budget_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--budget-seconds", type=float, help="wall-clock budget for the run"
    )
    p.add_argument(
        "--budget-temperatures", type=int, help="temperature-step budget"
    )
    p.add_argument("--budget-moves", type=int, help="move-attempt budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TimberWolfMC reproduction: place and globally route "
        "macro/custom cell circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="netlist statistics and validation")
    p_stats.add_argument("circuit", help="circuit file (.twmc)")
    p_stats.set_defaults(func=cmd_stats)

    p_place = sub.add_parser("place", help="run the full two-stage flow")
    p_place.add_argument("circuit", help="circuit file (.twmc)")
    p_place.add_argument("--preset", default="fast", help="smoke | fast | paper")
    p_place.add_argument("--seed", type=int, default=0)
    p_place.add_argument(
        "--cooling",
        default="table",
        choices=COOLING_SCHEDULES,
        help="cooling schedule: the paper's Tables 1/2 (default) or the "
        "VPR-style acceptance-ratio-driven schedule (see "
        "docs/performance.md)",
    )
    p_place.add_argument(
        "--mover",
        default="serial",
        choices=MOVERS,
        help="move driver of both anneals (stage 1 and the stage-2 "
        "refine): one Metropolis move at a time (default) or "
        "PARSAC-style synchronous batched sweeps on the array core — "
        "QoR-parity-gated, not bit-identical to serial (see "
        "docs/performance.md)",
    )
    p_place.add_argument(
        "--batch-moves",
        type=int,
        default=48,
        metavar="K",
        help="proposals per batched sweep (default 48; ignored by the "
        "serial mover)",
    )
    _add_output_options(p_place)
    _add_budget_options(p_place)
    _add_observability_options(p_place)
    p_place.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for multi-chain annealing and the "
        "router fan-out (default 1 = fully serial)",
    )
    p_place.add_argument(
        "--chains",
        type=int,
        default=1,
        help="independent stage-1 annealing chains with best-of-K "
        "exchange (default 1; the result depends on chains, never "
        "on workers)",
    )
    p_place.add_argument(
        "--exchange-period",
        type=int,
        default=10,
        metavar="E",
        help="temperature decrements between chain exchanges (default 10)",
    )
    p_place.add_argument(
        "--checkpoint-dir",
        help="write periodic checkpoints here and trap SIGINT/SIGTERM",
    )
    p_place.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="N",
        help="stage-1 snapshot cadence in temperature steps (default 10)",
    )
    p_place.set_defaults(func=cmd_place)

    p_resume = sub.add_parser(
        "resume", help="continue an interrupted place run from a checkpoint"
    )
    p_resume.add_argument("checkpoint", help="checkpoint file (.ckpt)")
    p_resume.add_argument(
        "--circuit",
        help="pin the checkpoint to this circuit file: a hash mismatch "
        f"exits {EXIT_CHECKPOINT_MISMATCH} with a machine-readable "
        "reason instead of resuming",
    )
    p_resume.add_argument(
        "--mover",
        choices=MOVERS,
        help="pin the expected mover (it drives both anneals): the "
        "checkpoint's own config decides how the run continues, and a "
        "disagreeing pin is refused with a clean error",
    )
    _add_output_options(p_resume)
    _add_budget_options(p_resume)
    _add_observability_options(p_resume)
    p_resume.set_defaults(func=cmd_resume)

    p_gen = sub.add_parser(
        "generate", help="write a synthetic benchmark-suite circuit"
    )
    p_gen.add_argument("name", help=f"one of {', '.join(CIRCUIT_NAMES)}")
    p_gen.add_argument("out", help="output path (.twmc)")
    p_gen.add_argument("--trial", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)

    p_suite = sub.add_parser("suite", help="list the benchmark suite")
    p_suite.set_defaults(func=cmd_suite)

    from .obs.cli import add_serve_command
    from .qor.cli import add_monitor_commands, add_qor_commands
    from .service.cli import add_service_command
    from .telemetry.trace_cli import add_trace_command

    add_monitor_commands(sub)
    add_qor_commands(sub)
    add_serve_command(sub)
    add_service_command(sub)
    add_trace_command(sub)

    return parser


def main(argv=None) -> int:
    faults = faults_from_env(os.environ)
    if faults:
        install_injector(FaultInjector(faults))
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
