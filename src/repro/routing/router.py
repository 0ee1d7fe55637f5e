"""The global router: phase one + phase two over a channel graph (§4.2).

The router is layout-style independent: its only inputs are a net list
(pins already assigned to positions on channel edges, with electrically
equivalent pins grouped) and a channel graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..channels import ChannelGraph
from ..netlist import Circuit
from ..resilience.faults import fault_point
from ..telemetry import current_tracer
from .interchange import InterchangeResult, RouteSelector
from .mpaths import SearchGraph
from .steiner import RouteAlternative, m_shortest_routes

EdgeKey = Tuple[int, int]


@dataclass
class RoutingResult:
    """A complete global routing of a circuit on a channel graph."""

    routes: Dict[str, FrozenSet[EdgeKey]]
    lengths: Dict[str, float]
    alternatives: Dict[str, List[RouteAlternative]]
    interchange: InterchangeResult
    unrouted: List[str] = field(default_factory=list)
    #: Nets whose phase-one routing raised and could not be recovered;
    #: net -> failure description.  They appear in ``unrouted`` too.
    failed: Dict[str, str] = field(default_factory=dict)
    #: Nets routed only after the relaxed-M retry; net -> what happened.
    retried: Dict[str, str] = field(default_factory=dict)

    @property
    def total_length(self) -> float:
        return sum(self.lengths.values())

    @property
    def overflow(self) -> int:
        return self.interchange.overflow


def phase1_ladder(
    route: Callable[[int], List[RouteAlternative]],
    m_routes: int,
    probe: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Phase one for one net with graceful degradation: ``route(M)`` at
    the full M; if that raises, at M // 2 (at least 1); if that raises
    too, the net is given up (the router marks it unrouted).  One bad
    net must not abort the whole flow.

    ``probe(site)`` runs before each attempt (the serial router's fault
    points).  Returns the net's record: ``alternatives``, and — when the
    full-M search raised — ``error`` (that failure) plus either
    ``retried`` (the relaxed search succeeded) or ``failed``.
    """
    record: Dict[str, Any] = {
        "alternatives": [],
        "error": None,
        "retried": None,
        "failed": None,
    }
    try:
        if probe is not None:
            probe("router.route_net")
        record["alternatives"] = route(m_routes)
        return record
    except Exception as exc:
        first = record["error"] = f"{type(exc).__name__}: {exc}"
    relaxed = max(1, m_routes // 2)
    try:
        if probe is not None:
            probe("router.route_net_retry")
        record["alternatives"] = route(relaxed)
        record["retried"] = f"rerouted with M={relaxed} after {first}"
    except Exception as exc2:
        record["failed"] = (
            f"{first}; retry with M={relaxed} failed: "
            f"{type(exc2).__name__}: {exc2}"
        )
    return record


class GlobalRouter:
    """Routes every net of a circuit over a channel graph."""

    def __init__(
        self,
        graph: ChannelGraph,
        m_routes: int = 20,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        workers: int = 1,
    ) -> None:
        if m_routes < 1:
            raise ValueError("m_routes must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.graph = graph
        #: The finished graph prepared once for every phase-one search.
        self.search = SearchGraph(
            {node: graph.neighbors(node) for node in graph.nodes()}, graph.positions
        )
        self.m_routes = m_routes
        self.rng = rng if rng is not None else random.Random(seed)
        #: Process-pool size for the phase-one per-net fan-out; 1 routes
        #: serially in this process.  Either way the committed routes
        #: are identical (see ``repro.parallel.routing``).
        self.workers = workers

    def build_pin_groups(self, circuit: Circuit) -> Dict[str, List[List[int]]]:
        """Per net: lists of graph nodes, one list per pin group
        (electrically equivalent pins of a cell share a group)."""
        out: Dict[str, List[List[int]]] = {}
        for net in circuit.nets.values():
            groups: Dict[Tuple[str, str], List[int]] = {}
            order: List[Tuple[str, str]] = []
            for ref in net.pins:
                node = self.graph.pin_nodes.get((ref.cell, ref.pin))
                if node is None:
                    continue
                pin = circuit.cells[ref.cell].pins[ref.pin]
                if pin.equiv_class is not None:
                    key = (ref.cell, pin.equiv_class)
                else:
                    key = (ref.cell, f"__pin__{ref.pin}")
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(node)
            out[net.name] = [groups[k] for k in order]
        return out

    def route_net(
        self, groups: Sequence[Sequence[int]], m_routes: Optional[int] = None
    ) -> List[RouteAlternative]:
        """Phase one for a single net: up to M stored alternatives
        (``m_routes`` overrides the router's M)."""
        return m_shortest_routes(
            self.search, groups, self.m_routes if m_routes is None else m_routes
        )

    def route(self, circuit: Circuit) -> RoutingResult:
        """Route every net: phase one per net, then the interchange."""
        tracer = current_tracer()
        with tracer.span(
            "router.route", nets=circuit.num_nets, m_routes=self.m_routes
        ):
            net_groups = self.build_pin_groups(circuit)
            alternatives: Dict[str, List[RouteAlternative]] = {}
            unrouted: List[str] = []
            failed: Dict[str, str] = {}
            retried: Dict[str, str] = {}
            tasks: List[Tuple[str, List[List[int]]]] = []
            for net_name, groups in net_groups.items():
                groups = [g for g in groups if g]
                if len(groups) < 2:
                    continue  # nothing to connect
                tasks.append((net_name, groups))
            with tracer.span("router.phase1", nets=len(tasks)):
                if self.workers > 1 and tasks:
                    # Phase-one fan-out: the pool runs each net's ladder;
                    # its records commit below in the same net order the
                    # serial loop uses, so the routing is identical.
                    from ..parallel.routing import route_nets_parallel

                    records = route_nets_parallel(self, tasks, self.workers)
                else:
                    # Lazily, so each serial net commits (and beats) as
                    # soon as it is routed.
                    records = (
                        phase1_ladder(
                            partial(self.route_net, groups),
                            self.m_routes,
                            probe=partial(fault_point, net=net_name),
                        )
                        for net_name, groups in tasks
                    )
                for (net_name, groups), record in zip(tasks, records):
                    alts = record["alternatives"]
                    if tracer.enabled and record["error"] is not None:
                        tracer.event(
                            "router.net_retried",
                            net=net_name,
                            error=record["error"],
                            m_routes=max(1, self.m_routes // 2),
                        )
                    if record["retried"] is not None:
                        retried[net_name] = record["retried"]
                    if record["failed"] is not None:
                        failed[net_name] = record["failed"]
                        if tracer.enabled:
                            tracer.event(
                                "router.net_failed",
                                net=net_name,
                                error=record["failed"],
                            )
                    if tracer.enabled:
                        # Phase-one record (§4.2.1): how many of the M
                        # slots the net filled, and the shortest/longest
                        # stored lengths.
                        tracer.event(
                            "router.net",
                            net=net_name,
                            pin_groups=len(groups),
                            alternatives=len(alts),
                            shortest=round(alts[0].length, 3) if alts else None,
                            longest=round(alts[-1].length, 3) if alts else None,
                        )
                    if alts:
                        alternatives[net_name] = alts
                    else:
                        unrouted.append(net_name)

            with tracer.span("router.phase2", nets=len(alternatives)):
                capacities: Dict[EdgeKey, Optional[int]] = {
                    e.key: e.capacity for e in self.graph.edges()
                }
                if alternatives:
                    selector = RouteSelector(alternatives, capacities)
                    interchange = selector.run(self.rng)
                    routes = selector.routes()
                else:
                    interchange = InterchangeResult(
                        selection={}, total_length=0.0, overflow=0,
                        converged_shortest=True,
                    )
                    routes = {}
                lengths = {
                    net: alternatives[net][interchange.selection[net]].length
                    for net in alternatives
                }
            if tracer.enabled:
                tracer.event(
                    "router.interchange",
                    nets_routed=len(alternatives),
                    unrouted=len(unrouted),
                    attempts=interchange.attempts,
                    accepted=interchange.accepted,
                    overflow=interchange.overflow,
                    total_length=round(interchange.total_length, 3),
                    converged_shortest=interchange.converged_shortest,
                )
            return RoutingResult(
                routes=routes,
                lengths=lengths,
                alternatives=alternatives,
                interchange=interchange,
                unrouted=unrouted,
                failed=failed,
                retried=retried,
            )
