"""CLI handlers for ``python -m repro service <verb>``.

Verbs::

    service run <root>       start the supervisor (blocks; SIGTERM drains)
    service submit <root> <circuit.twmc> [--preset ...]   enqueue a job
    service status <root> [job_id]       queue overview / one job
    service drain <root>                 ask the supervisor to drain
    service events <root> [job_id]       dump the queue-event journal

Registered lazily from ``repro.__main__`` so the service stack only
imports when one of its verbs actually runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..config import COOLING_SCHEDULES

DEFAULT_WORKERS = 2

#: Exit status of ``service submit`` refused by backpressure.
EXIT_QUEUE_FULL = 7

#: Exit status of ``service run`` when another supervisor holds the lease.
EXIT_LEASE_HELD = 8


def add_service_command(subparsers: argparse._SubParsersAction) -> None:
    """Register ``service`` (and its verbs) on the top-level parser."""
    service_p = subparsers.add_parser(
        "service",
        help="fault-tolerant placement service: supervised job queue "
        "with retry, timeouts, backpressure, and checkpoint recovery",
    )
    verbs = service_p.add_subparsers(dest="verb", required=True)

    p_run = verbs.add_parser("run", help="start the supervisor loop")
    p_run.add_argument("root", help="service root directory")
    p_run.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help=f"concurrent worker slots (default {DEFAULT_WORKERS})",
    )
    p_run.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="S",
        help="seconds between scheduler ticks (default 0.2)",
    )
    p_run.add_argument(
        "--grace", type=float, default=10.0, metavar="S",
        help="seconds between SIGTERM and SIGKILL (default 10)",
    )
    p_run.add_argument(
        "--stale-after", type=float, default=30.0, metavar="S",
        help="worker heartbeat age that counts as hung (default 30)",
    )
    p_run.add_argument(
        "--wall-timeout", type=float, default=None, metavar="S",
        help="default per-job wall-clock budget (default: unlimited)",
    )
    p_run.add_argument(
        "--retry-base", type=float, default=2.0, metavar="S",
        help="backoff before the second attempt (default 2)",
    )
    p_run.add_argument(
        "--retry-cap", type=float, default=60.0, metavar="S",
        help="backoff ceiling (default 60)",
    )
    p_run.add_argument(
        "--max-queued", type=int, default=64,
        help="queue high-water mark for backpressure (default 64)",
    )
    p_run.add_argument(
        "--shed", action="store_true",
        help="past the high-water mark, let higher-priority submissions "
        "displace the lowest-priority queued job instead of rejecting",
    )
    p_run.add_argument(
        "--exit-when-idle", action="store_true",
        help="exit once the queue is empty and no worker runs "
        "(batch mode; default: serve forever until drained)",
    )
    p_run.set_defaults(func=cmd_run)

    p_submit = verbs.add_parser("submit", help="enqueue a placement job")
    p_submit.add_argument("root", help="service root directory")
    p_submit.add_argument("circuit", help="circuit file (.twmc)")
    p_submit.add_argument("--preset", default="smoke", help="smoke | fast | paper")
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--cooling", default="table", choices=COOLING_SCHEDULES)
    p_submit.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="N",
        help="stage-1 checkpoint cadence in temperature steps (default 5)",
    )
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument(
        "--wall-timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock budget",
    )
    p_submit.add_argument("--max-attempts", type=int, default=5)
    p_submit.add_argument(
        "--max-queued", type=int, default=64,
        help="backpressure high-water mark to enforce at submit time",
    )
    p_submit.add_argument(
        "--shed", action="store_true",
        help="displace lower-priority queued work when the queue is full",
    )
    p_submit.add_argument(
        "--json", action="store_true", help="print the job as JSON"
    )
    p_submit.set_defaults(func=cmd_submit)

    p_status = verbs.add_parser(
        "status", help="queue overview, or one job's status"
    )
    p_status.add_argument("root", help="service root directory")
    p_status.add_argument(
        "job_id", nargs="?", help="job id (or unique prefix)"
    )
    p_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_status.set_defaults(func=cmd_status)

    p_drain = verbs.add_parser(
        "drain", help="ask the running supervisor to drain and exit"
    )
    p_drain.add_argument("root", help="service root directory")
    p_drain.set_defaults(func=cmd_drain)

    p_events = verbs.add_parser(
        "events", help="dump the queue-event journal"
    )
    p_events.add_argument("root", help="service root directory")
    p_events.add_argument("job_id", nargs="?", help="filter to one job")
    p_events.add_argument(
        "--limit", type=int, default=None, help="only the newest N events"
    )
    p_events.set_defaults(func=cmd_events)


def cmd_run(args: argparse.Namespace) -> int:
    from .policy import BackpressurePolicy, RetryPolicy
    from .supervisor import ServiceBusy, ServiceConfig, Supervisor

    config = ServiceConfig(
        root=args.root,
        workers=args.workers,
        poll_interval=args.poll_interval,
        grace=args.grace,
        stale_after=args.stale_after,
        wall_timeout=args.wall_timeout,
        retry=RetryPolicy(base=args.retry_base, cap=args.retry_cap),
        backpressure=BackpressurePolicy(
            max_queued=args.max_queued, shed=args.shed
        ),
        exit_when_idle=args.exit_when_idle,
    )
    try:
        return Supervisor(config).run()
    except ServiceBusy as exc:
        print(f"service busy: {exc}", file=sys.stderr)
        return EXIT_LEASE_HELD


def cmd_submit(args: argparse.Namespace) -> int:
    from .policy import BackpressurePolicy, QueueFull
    from .view import ServiceView

    with ServiceView(args.root) as view:
        try:
            job = view.submit(
                args.circuit,
                preset=args.preset,
                seed=args.seed,
                cooling=args.cooling,
                checkpoint_every=args.checkpoint_every,
                tenant=args.tenant,
                priority=args.priority,
                wall_timeout=args.wall_timeout,
                max_attempts=args.max_attempts,
                backpressure=BackpressurePolicy(
                    max_queued=args.max_queued, shed=args.shed
                ),
            )
        except QueueFull as exc:
            print(
                json.dumps({"error": "queue_full", "reason": str(exc)}),
                file=sys.stderr,
            )
            return EXIT_QUEUE_FULL
    if args.json:
        print(json.dumps(job.to_dict(), indent=2, sort_keys=True))
    else:
        print(job.job_id)
    return 0


def _fmt_age(seconds) -> str:
    if seconds is None:
        return "-"
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def cmd_status(args: argparse.Namespace) -> int:
    import time

    from .view import ServiceView

    with ServiceView(args.root, readonly=False) as view:
        if args.job_id:
            doc = view.status(args.job_id)
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                for key in (
                    "job_id", "state", "tenant", "priority", "attempts",
                    "max_attempts", "run_id", "reason", "checkpoint",
                    "has_result",
                ):
                    print(f"{key:14s} {doc[key]}")
            return 0
        overview = view.overview()
        if args.json:
            print(json.dumps(overview, indent=2, sort_keys=True))
            return 0
        counts = overview["counts"]
        summary = "  ".join(f"{state}={n}" for state, n in counts.items())
        drain = "  DRAINING" if overview["draining"] else ""
        lease = overview["lease"]
        holder = (
            f"supervisor pid {lease.get('pid')}" if lease else "no supervisor"
        )
        print(f"{summary}  [{holder}]{drain}")
        now = time.time()
        for job in overview["jobs"]:
            age = _fmt_age(now - job["created"])
            print(
                f"{job['job_id']}  {job['state']:7s} "
                f"t={job['tenant']:10s} p={job['priority']:<3d} "
                f"try {job['attempts']}/{job['max_attempts']}  age {age}"
                + (f"  ({job['reason']})" if job["reason"] else "")
            )
    return 0


def cmd_drain(args: argparse.Namespace) -> int:
    from .view import ServiceView

    with ServiceView(args.root) as view:
        view.drain()
        lease = view.store.lease()
    if lease:
        print(f"drain requested (supervisor pid {lease.get('pid')})")
    else:
        print("drain requested (no supervisor running)")
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    from .events import read_events
    from .worker import ServicePaths

    paths = ServicePaths(args.root)
    for doc in read_events(
        paths.events, job_id=args.job_id, limit=args.limit
    ):
        print(json.dumps(doc, sort_keys=True))
    return 0
