"""Phase one of the global router (§4.2.1): M alternative routes per net.

For a multi-pin net the algorithm generalizes Lawler's M-shortest-path
idea: pins are connected in the order Prim's algorithm would add them to
a minimum spanning tree, but at every step the M shortest ways of
joining the next pin (group) to the already-connected target nodes are
generated and the recursion explores the stored alternatives, keeping
the overall M shortest complete routes (Figures 10-12).

Electrically-equivalent pins form *pin groups*: a route must reach any
one member of each group.

The literal recursion enumerates M^(g-1) combinations; like the original
implementation we bound the work with a beam: after every level at most
M partial routes survive, ranked by length.  For nets of fewer than ~20
pins this reliably contains the minimum-Steiner-length route among the
alternatives (the paper's observation), which the tests check on grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .mpaths import Positions, SearchGraph, k_shortest_paths, path_edges


@dataclass(frozen=True)
class RouteAlternative:
    """One complete candidate route for a net."""

    edges: FrozenSet[Tuple[int, int]]
    nodes: FrozenSet[int]
    length: float


def _nearest_groups(
    graph: SearchGraph,
    from_nodes: Set[int],
    group_nodes: Dict[int, Set[int]],
) -> Dict[int, float]:
    """Multi-source Dijkstra that stops at the nearest group's distance.

    Returns group id -> distance from the source set for every group at
    the smallest distance, ties included; empty when no group is
    reachable.  Entries pop in non-decreasing (d, node) order, so every
    group node at that distance pops before the first entry beyond it,
    where the search stops.  Every group node is a target, so dead ends
    of the graph enter the search only as group members (see
    :class:`SearchGraph`).
    """
    node_groups: Dict[int, List[int]] = {}
    for gid, nodes in group_nodes.items():
        for n in nodes:
            node_groups.setdefault(n, []).append(gid)
    edges = graph.toward(node_groups)
    nearest: Dict[int, float] = {}

    inf = math.inf
    bound = inf
    dist = {n: 0.0 for n in from_nodes}
    dist_get = dist.get
    heap = [(0.0, n) for n in from_nodes]
    heapify(heap)
    while heap:
        d, node = heappop(heap)
        if d > bound:
            break
        if d > dist[node]:
            continue
        gids = node_groups.get(node)
        if gids is not None:
            bound = d
            for gid in gids:
                nearest[gid] = d
        for nxt, length in edges[node]:
            nd = d + length
            if nd < dist_get(nxt, inf) - 1e-12:
                dist[nxt] = nd
                heappush(heap, (nd, nxt))
    return nearest


def prim_order(
    graph: SearchGraph, groups: Sequence[Sequence[int]]
) -> List[int]:
    """Order in which pin groups are connected: Prim's nearest-next rule,
    starting (arbitrarily, like the paper) from the first group.

    Each step runs one multi-source Dijkstra from the connected groups
    and takes the nearest remaining group, the lowest index among equal
    distances.  The search stops at the nearest group's distance, so its
    cost is proportional to the gap being closed, not to the net.
    """
    if not groups:
        return []
    remaining = set(range(1, len(groups)))
    order = [0]
    connected: Set[int] = set(groups[0])
    while remaining:
        dist = _nearest_groups(
            graph, connected, {g: set(groups[g]) for g in remaining}
        )
        if not dist:
            # Disconnected graph: append the rest as-is.
            order.extend(sorted(remaining))
            break
        best = min(dist, key=lambda g: (dist[g], g))
        order.append(best)
        remaining.discard(best)
        connected.update(groups[best])
    return order


def m_shortest_routes(
    graph: SearchGraph,
    groups: Sequence[Sequence[int]],
    m: int,
    positions: Optional[Positions] = None,
) -> List[RouteAlternative]:
    """Generate up to M alternative routes connecting one pin from every
    group.  Returns alternatives sorted by length (shortest first); empty
    when the groups cannot all be connected.

    With positions (``positions``, else the graph's), the path searches
    run as A* with the Manhattan heuristic — the scalable configuration
    for large channel graphs.  Group ordering always uses graph
    distances (with early termination), because geometric proximity can
    badly mislead the connection order on graphs with detours."""
    if m < 1:
        raise ValueError("m must be at least 1")
    groups = [list(g) for g in groups if g]
    if not groups:
        return []
    if len(groups) == 1:
        node = groups[0][0]
        return [RouteAlternative(frozenset(), frozenset([node]), 0.0)]

    order = prim_order(graph, groups)
    start_group = groups[order[0]]

    # Seed one partial route per member of the starting group.
    partials: List[RouteAlternative] = [
        RouteAlternative(frozenset(), frozenset([node]), 0.0)
        for node in start_group[:m]
    ]

    for level, gidx in enumerate(order[1:], start=1):
        targets = set(groups[gidx])
        # Every partial of this level searches toward the same targets.
        heuristic = graph.heuristic(targets, positions)
        relax = graph.toward(targets)
        extensions: List[RouteAlternative] = []
        seen: Set[FrozenSet[Tuple[int, int]]] = set()
        # Path-budget policy: branch hard at the first connection (the M
        # alternatives' diversity comes from there), keep doubling while
        # the beam is under-full, then extend each survivor with a single
        # shortest path — Yen's deviations are the router's dominant cost
        # on big graphs, so they are spent only where they add beam width.
        if level == 1 and len(partials) == 1:
            k_each = m
        elif len(partials) < m:
            k_each = 2
        else:
            k_each = 1
        for partial in partials:
            sources = {n: 0.0 for n in partial.nodes}
            if targets & partial.nodes:
                # A member is already on the tree (zero-cost connection).
                if partial.edges not in seen:
                    seen.add(partial.edges)
                    extensions.append(partial)
                continue
            for length, path in k_shortest_paths(
                graph, sources, targets, k_each, heuristic=heuristic, relax=relax
            ):
                new_edges = partial.edges | path_edges(path)
                if new_edges in seen:
                    continue
                seen.add(new_edges)
                extensions.append(
                    RouteAlternative(
                        edges=new_edges,
                        nodes=partial.nodes | frozenset(path),
                        length=_edge_total(graph, new_edges),
                    )
                )
        if not extensions:
            return []
        extensions.sort(key=lambda r: r.length)
        partials = extensions[:m]

    return partials


def _edge_total(graph: SearchGraph, edges: FrozenSet[Tuple[int, int]]) -> float:
    """Total length of an undirected edge set (a tree's length is the sum
    of its edges, which de-duplicates shared segments across paths)."""
    total = 0.0
    lengths = graph.lengths
    for edge in edges:
        step = lengths.get(edge)
        if step is None:
            raise KeyError(f"edge {edge} not present in graph")
        total += step
    return total
