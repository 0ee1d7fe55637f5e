"""Per-net routing fan-out over a process pool.

Phase one of the global router — M-shortest-path enumeration per net —
is embarrassingly parallel: each net's search reads only the router's
(immutable) prepared search graph and node positions.  The pool workers
hold one copy of the router each (shipped once via the pool
initializer), receive a net's pin groups per task, and run the serial
router's own per-net ladder on them
(:func:`~repro.routing.router.phase1_ladder` over
``GlobalRouter.route_net``); the parent commits the returned records in
the original sequential net order and runs phase two (the interchange,
which consumes the router's RNG) serially.  The routing is therefore
*identical* to the serial router's, for any worker count.

Two serial-path features intentionally do not cross the process
boundary:

* fault injection (``fault_point``) — injector visit counters are
  per-process, so firing them inside workers would make results depend
  on worker count; workers run the ladder without its probe, and
  per-net faults apply to the serial router only;
* tracing — workers run untraced; the parent emits the per-net
  ``router.net`` / ``router.net_retried`` / ``router.net_failed``
  events itself, in net order, from the returned records.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
from functools import partial
from typing import Dict, List, Sequence, Tuple

from ..routing.router import GlobalRouter, phase1_ladder
from .workers import reset_worker_signals

#: The worker-global router, installed once per worker by the pool
#: initializer so per-task payloads stay small.
_WORKER_ROUTER = None


def _init_worker(router, sys_path: Sequence[str]) -> None:
    global _WORKER_ROUTER
    reset_worker_signals()
    for entry in sys_path:
        if entry not in sys.path:
            sys.path.insert(0, entry)
    _WORKER_ROUTER = router


def _route_one(groups: Sequence[Sequence[int]]) -> Dict:
    """One net's phase-one record: the serial router's ladder, without
    its fault points."""
    router = _WORKER_ROUTER
    return phase1_ladder(partial(router.route_net, groups), router.m_routes)


def route_nets_parallel(
    router: GlobalRouter,
    tasks: Sequence[Tuple[str, Sequence[Sequence[int]]]],
    workers: int,
) -> List[Dict]:
    """Fan phase one out over ``workers`` processes.

    ``tasks`` is the ordered list of ``(net_name, pin_groups)`` the
    serial loop would visit; the result list preserves that order
    exactly (``pool.map`` keeps input order), so the caller's commit
    sequence — and hence the interchange and every downstream float —
    matches the serial router bit-for-bit.
    """
    if not tasks:
        return []
    start = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    context = mp.get_context(start)
    chunksize = max(1, len(tasks) // (workers * 4))
    with context.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(router, list(sys.path)),
    ) as pool:
        return pool.map(
            _route_one, [groups for _, groups in tasks], chunksize=chunksize
        )
