"""Per-net routing fan-out over a process pool.

Phase one of the global router — M-shortest-path enumeration per net —
is embarrassingly parallel: each net's search reads only the (immutable)
prepared search graph and the node positions.  The pool workers hold
one pickled copy of both each (shipped once via the pool initializer),
receive ``(net, groups)``
tasks, and return the per-net alternatives; the parent commits results
in the original sequential net order and runs phase two (the
interchange, which consumes the router's RNG) serially.  The routing is
therefore *identical* to the serial router's, for any worker count.

Two serial-path features intentionally do not cross the process
boundary:

* fault injection (``fault_point``) — injector visit counters are
  per-process, so firing them inside workers would make results depend
  on worker count; per-net faults apply to the serial router only;
* tracing — workers run untraced; the parent emits the per-net
  ``router.net`` / ``router.net_retried`` / ``router.net_failed``
  events itself, in net order, from the returned records.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
from typing import Dict, List, Sequence, Tuple

from ..routing.mpaths import SearchGraph
from ..routing.steiner import m_shortest_routes
from .workers import reset_worker_signals

#: Worker-global ``(SearchGraph, positions)``, installed once per worker
#: by the pool initializer so per-task payloads stay small.
_WORKER_GRAPH = None


def _init_worker(graph, sys_path: Sequence[str]) -> None:
    global _WORKER_GRAPH
    reset_worker_signals()
    for entry in sys_path:
        if entry not in sys.path:
            sys.path.insert(0, entry)
    _WORKER_GRAPH = graph


def _route_one(task) -> Dict:
    """Route one net: the serial router's degrade-on-exception ladder
    (full M, then relaxed M//2, then give up) without its fault points.

    Returns a record dict: ``net``, ``alternatives``, and — when the
    full-M search raised — ``error`` (the first failure) plus either
    ``retried`` (relaxed search succeeded) or ``failed`` (it did not).
    """
    net_name, groups, m_routes = task
    search, positions = _WORKER_GRAPH
    record: Dict = {
        "net": net_name,
        "alternatives": [],
        "error": None,
        "retried": None,
        "failed": None,
    }
    try:
        record["alternatives"] = m_shortest_routes(
            search, groups, m_routes, positions=positions
        )
        return record
    except Exception as exc:
        first = f"{type(exc).__name__}: {exc}"
        record["error"] = first
    relaxed = max(1, m_routes // 2)
    try:
        record["alternatives"] = m_shortest_routes(
            search, groups, relaxed, positions=positions
        )
        record["retried"] = f"rerouted with M={relaxed} after {first}"
    except Exception as exc2:
        record["failed"] = (
            f"{first}; retry with M={relaxed} failed: "
            f"{type(exc2).__name__}: {exc2}"
        )
    return record


def route_nets_parallel(
    search: SearchGraph,
    positions: Dict[int, Tuple[float, float]],
    tasks: Sequence[Tuple[str, Sequence[Sequence[int]]]],
    m_routes: int,
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
    payload = [(name, groups, m_routes) for name, groups in tasks]
    chunksize = max(1, len(payload) // (workers * 4))
    with context.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=((search, positions), list(sys.path)),
    ) as pool:
        return pool.map(_route_one, payload, chunksize=chunksize)
