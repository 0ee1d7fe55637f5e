"""M-shortest loopless paths on a channel graph.

Phase one of the global router stores the M shortest routes of every
net.  For two-pin nets this is Lawler's M-shortest-path problem; we use
Yen's deviation algorithm (equivalent output), generalized in two ways
the router needs:

* *multi-source*: paths may start from any node of an existing partial
  route (the target-node set of Figures 11-12), and
* *multi-target*: paths may end at any node of an electrically
  equivalent pin group.

Both are realized with virtual terminals, kept out of returned paths.
Every search runs on a :class:`SearchGraph`, the channel graph prepared
once per router.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, nsmallest
from typing import Collection, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

Path = Tuple[float, Tuple[int, ...]]  # (length, node sequence)
Positions = Mapping[int, Tuple[float, float]]

#: node -> the (neighbor, edge length) pairs a search relaxes from it.
Relax = Dict[int, List[Tuple[int, float]]]


class SearchGraph:
    """A channel graph prepared for the router's searches.

    Built once from ``adjacency`` (node -> (neighbor, length) pairs; every
    node is a key, lengths are non-negative, parallel edges allowed) and,
    for A*, the nodes' ``positions``:

    * ``adjacency`` — each node's edges, in the given order;
    * ``through`` — the same lists without the edges into *dead ends*,
      nodes joined to a single other node (a pin's projection node with
      its one access edge, Fig. 9);
    * ``lengths`` — directed pair (u, v) -> the shortest of the u -> v
      edges;
    * ``positions`` — node -> (x, y), or None (the searches then run as
      plain Dijkstra).  A* and the spur bound of
      :func:`k_shortest_paths` need every edge to be at least as long as
      the Manhattan distance between its ends; the constructor raises
      ``ValueError`` naming the first edge that is not.  Channel-graph
      edges meet it with equality: their lengths are computed from the
      same coordinates.

    A dead end that is not a target is never worth entering.  Entered
    from its one neighbor at distance d, it can only relax that neighbor
    again, at d plus a non-negative length, which never beats the
    neighbor's own distance by the searches' strict 1e-12 margin; and it
    is never on a returned path.  So a search relaxes ``through`` edges,
    plus the edges into the dead-end targets of its own target set
    (:meth:`toward`).  Dropping the other heap entries changes no pop
    order: heap entries are distinct tuples under a total order.
    """

    def __init__(
        self,
        adjacency: Mapping[int, Iterable[Tuple[int, float]]],
        positions: Optional[Positions] = None,
    ) -> None:
        self.adjacency: Relax = {u: list(edges) for u, edges in adjacency.items()}
        joined: Dict[int, Set[int]] = {u: set() for u in self.adjacency}
        for u, edges in self.adjacency.items():
            for v, _ in edges:
                if v != u:
                    joined[u].add(v)
                    joined.setdefault(v, set()).add(u)
        #: dead end -> the one node it is joined to.
        self.dead_ends: Dict[int, int] = {
            u: next(iter(others)) for u, others in joined.items() if len(others) == 1
        }
        dead = self.dead_ends
        self.through: Relax = {
            u: [(v, length) for v, length in edges if v not in dead]
            for u, edges in self.adjacency.items()
        }
        self.lengths: Dict[Tuple[int, int], float] = {}
        for u, edges in self.adjacency.items():
            for v, length in edges:
                step = self.lengths.get((u, v))
                if step is None or length < step:
                    self.lengths[(u, v)] = length
        self.positions = positions
        #: The through nodes with a position, and their coordinates as
        #: (n, 1) columns: the rows of :meth:`heuristic`'s one-pass table.
        self.table_nodes: List[int] = []
        self.table_x = self.table_y = np.empty((0, 1))
        if positions is not None:
            self._check_manhattan(positions)
            self.table_nodes = [u for u in self.adjacency if u not in dead and u in positions]
            xy = np.array([positions[u] for u in self.table_nodes], dtype=float).reshape(-1, 2)
            self.table_x, self.table_y = xy[:, :1], xy[:, 1:]

    def _check_manhattan(self, positions: Positions) -> None:
        for (u, v), length in self.lengths.items():
            if u not in positions or v not in positions:
                raise ValueError(f"edge ({u}, {v}): node without a position")
            (ux, uy), (vx, vy) = positions[u], positions[v]
            manhattan = abs(ux - vx) + abs(uy - vy)
            if length < manhattan:
                raise ValueError(
                    f"edge ({u}, {v}) of length {length!r} is shorter than the "
                    f"Manhattan distance {manhattan!r} between its ends"
                )

    def heuristic(
        self, targets: Iterable[int], positions: Optional[Positions] = None
    ) -> "ManhattanHeuristic":
        """The A* heuristic toward ``targets`` over ``positions`` (default:
        the graph's own).  Over the graph's own positions, every through
        node's entry is filled in one numpy pass; dead ends, which a
        search meets only as sources or targets, are left to the memo.
        The pass does the per-node formula's IEEE operations —
        ``abs(x - tx) + abs(y - ty)``, then the minimum over targets — so
        every entry is the float :meth:`ManhattanHeuristic.__missing__`
        returns."""
        if positions is None:
            positions = self.positions
        h = ManhattanHeuristic(positions, targets)
        if positions is self.positions and h.target_pos and self.table_nodes:
            tx, ty = np.array(h.target_pos, dtype=float).T
            nearest = (np.abs(self.table_x - tx) + np.abs(self.table_y - ty)).min(axis=1)
            h.update(zip(self.table_nodes, nearest.tolist()))
        return h

    def toward(self, targets: Collection[int]) -> Relax:
        """The edges a search toward ``targets`` relaxes: ``through``,
        with each dead-end target's neighbor given its edges into it
        (in adjacency order).  One table serves every search toward the
        same targets."""
        dead = self.dead_ends
        relax = self.through.copy()
        for host in {dead[t] for t in targets if t in dead}:
            relax[host] = [
                (v, length)
                for v, length in self.adjacency[host]
                if v not in dead or v in targets
            ]
        return relax


class ManhattanHeuristic(dict):
    """The A* heuristic toward one target set: node -> Manhattan distance
    from the node's position to the nearest target, computed on first
    lookup and memoized.

    The value depends only on the positions and the target set, so one
    instance serves every search toward the same targets — Yen's spur
    searches and every partial route of one beam level — and returns the
    same floats a fresh computation would.  Nodes without a position get
    0, and so does every node when ``positions`` is None (plain Dijkstra).
    """

    def __init__(self, positions: Optional[Positions], targets: Iterable[int]) -> None:
        super().__init__()
        self.positions = positions if positions is not None else {}
        self.target_pos = [self.positions[t] for t in targets if t in self.positions]

    def __missing__(self, node: int) -> float:
        p = self.positions.get(node)
        if p is None or not self.target_pos:
            value = 0.0
        else:
            x, y = p
            value = min([abs(x - tx) + abs(y - ty) for tx, ty in self.target_pos])
        self[node] = value
        return value


def dijkstra(
    graph: SearchGraph,
    sources: Dict[int, float],
    targets: Set[int],
    banned_nodes: Optional[Set[int]] = None,
    banned_edges: Optional[Set[Tuple[int, int]]] = None,
    positions: Optional[Positions] = None,
    heuristic: Optional[Dict[int, float]] = None,
    relax: Optional[Relax] = None,
    limit: float = math.inf,
) -> Optional[Path]:
    """Shortest path from any source (with initial costs) to any target.

    ``banned_nodes`` may not be visited; ``banned_edges`` (directed pairs)
    may not be traversed.  With positions (``positions``, else the
    graph's) the search runs as A* with the Manhattan
    distance-to-nearest-target heuristic, which is consistent because no
    edge is shorter than the Manhattan distance between its endpoints
    (see :class:`SearchGraph`).  ``heuristic`` and ``relax`` pass in a
    shared :class:`ManhattanHeuristic` and :meth:`SearchGraph.toward`
    table for the same ``targets`` instead of building them.  The search
    gives up, returning None, once it pops a key ``d + h`` above
    ``limit``.  Sources must be nodes of ``graph``.  Returns (length,
    path) or None.
    """
    h = heuristic if heuristic is not None else graph.heuristic(targets, positions)
    edges = relax if relax is not None else graph.toward(targets)
    #: tail node -> heads it may not be left for.
    banned_from: Dict[int, Set[int]] = {}
    for u, v in banned_edges or ():
        banned_from.setdefault(u, set()).add(v)

    inf = math.inf
    # A banned node's distance of -inf is never improved on, so it is
    # never entered — one dict probe instead of a set test per edge.
    dist: Dict[int, float] = dict.fromkeys(banned_nodes or (), -inf)
    prev: Dict[int, Optional[int]] = {}
    heap: List[Tuple[float, float, int]] = []
    for node, cost in sources.items():
        if cost < dist.get(node, inf):
            dist[node] = cost
            prev[node] = None
            heappush(heap, (cost + h[node], cost, node))

    dist_get = dist.get
    while heap:
        key, d, node = heappop(heap)
        if key > limit:
            return None
        if d > dist[node]:
            continue
        if node in targets:
            path = []
            cur: Optional[int] = node
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            path.reverse()
            return (d, tuple(path))
        blocked = banned_from.get(node)
        for nxt, length in edges[node]:
            nd = d + length
            if nd < dist_get(nxt, inf) - 1e-12 and (
                blocked is None or nxt not in blocked
            ):
                dist[nxt] = nd
                prev[nxt] = node
                heappush(heap, (nd + h[nxt], nd, nxt))
    return None


#: Default cap on deviation (spur) points per Yen iteration.  The exact
#: algorithm deviates at every node of the newest path, costing one
#: Dijkstra per node; on pin-heavy channel graphs paths run tens of nodes
#: long and the exact version dominates the router's wall clock.  Spur
#: points are subsampled evenly along the path instead — alternative
#: routes differ mildly from the exact k-shortest set, which the beam
#: search tolerates by construction.
DEFAULT_MAX_SPURS = 12


def k_shortest_paths(
    graph: SearchGraph,
    sources: Dict[int, float],
    targets: Set[int],
    k: int,
    max_spurs: int = DEFAULT_MAX_SPURS,
    positions: Optional[Positions] = None,
    heuristic: Optional[Dict[int, float]] = None,
    relax: Optional[Relax] = None,
) -> List[Path]:
    """Yen's algorithm: up to k shortest loopless source-to-target paths.

    Sources act as a single virtual origin and targets as a single
    virtual destination, so the result is the k best ways of joining the
    source set to the target set — what connecting a pin group to a
    partial route needs.  The virtual origin is only approximate: a spur
    search starts from its spur node alone and bans only the root's
    nodes, so a deviation may pass through another source node (the
    path then joins the source set twice).  Every search runs toward the
    same targets, so all of them share one heuristic table
    (``heuristic``, or :meth:`SearchGraph.heuristic` over ``positions``)
    and one :meth:`SearchGraph.toward` table (``relax``, or one built
    here).

    A spur search stops without a path once its keys pass the
    (k - |found|)-th shortest candidate less the root's length: only
    k - |found| more candidates are popped, and that many shorter ones
    stay ahead of anything longer.  A* keys never fall (the heuristic is
    consistent), so the path the search would still return is longer
    too; the relative margin of 1e-9 covers the float rounding of keys
    and sums (docs/performance.md, "Router phase 1").
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if max_spurs < 1:
        raise ValueError("max_spurs must be at least 1")
    if heuristic is None:
        heuristic = graph.heuristic(targets, positions)
    if relax is None:
        relax = graph.toward(targets)
    first = dijkstra(graph, sources, targets, heuristic=heuristic, relax=relax)
    if first is None:
        return []
    found: List[Path] = [first]
    candidates: List[Path] = []
    seen: Set[Tuple[int, ...]] = {first[1]}

    while len(found) < k:
        base_path = found[-1][1]
        bound = _nth_length(candidates, k - len(found))
        # Deviate at (a sample of) the newest path's nodes.
        spur_indices = range(len(base_path) - 1)
        if len(base_path) - 1 > max_spurs:
            step = (len(base_path) - 1) / max_spurs
            spur_indices = sorted({int(j * step) for j in range(max_spurs)})
        for i in spur_indices:
            spur = base_path[i]
            root = base_path[: i + 1]
            root_len = _path_cost(graph, root, sources)
            if root_len is None:
                continue
            banned_edges: Set[Tuple[int, int]] = set()
            for length, path in found:
                if len(path) > i and path[: i + 1] == root:
                    banned_edges.add((path[i], path[i + 1]))
            banned_nodes = set(root[:-1])
            # Nodes of the source set other than the root's own origin
            # stay usable only if not already on the root.
            spur_result = dijkstra(
                graph,
                {spur: 0.0},
                targets,
                banned_nodes=banned_nodes,
                banned_edges=banned_edges,
                heuristic=heuristic,
                relax=relax,
                limit=bound - root_len + 1e-9 * (1.0 + abs(bound)),
            )
            if spur_result is None:
                continue
            spur_len, spur_path = spur_result
            total = root + spur_path[1:]
            if total in seen:
                continue
            seen.add(total)
            heappush(candidates, (root_len + spur_len, total))
            bound = _nth_length(candidates, k - len(found))
        if not candidates:
            break
        best = heappop(candidates)
        found.append(best)
    return found[:k]


def _nth_length(candidates: List[Path], n: int) -> float:
    """Length of the n-th shortest candidate (inf when there are fewer)."""
    return nsmallest(n, candidates)[-1][0] if len(candidates) >= n else math.inf


def _path_cost(
    graph: SearchGraph, path: Tuple[int, ...], sources: Dict[int, float]
) -> Optional[float]:
    """Cost of a concrete path, honoring per-source initial costs."""
    if path[0] not in sources:
        return None
    total = sources[path[0]]
    lengths = graph.lengths
    for edge in zip(path, path[1:]):
        step = lengths.get(edge)
        if step is None:
            return None
        total += step
    return total


def path_edges(path: Tuple[int, ...]) -> FrozenSet[Tuple[int, int]]:
    """Undirected edge set of a node path."""
    return frozenset(
        (u, v) if u < v else (v, u) for u, v in zip(path, path[1:])
    )
