"""Phase two of the global router (§4.2.2): random route interchange.

Each net i owns M_i stored alternatives, enumerated shortest-first; the
interchange algorithm picks one alternative per net, minimizing the total
length L (Eqn 23) subject to the channel-edge capacity constraints.
X (Eqn 24) is the total excess over all channel edges.  Starting from
every net on its shortest route:

* if X = 0 the solution is optimal and final;
* otherwise, repeatedly pick a random overflowed edge, a random net
  through it, and a random alternative with dX <= 0; accept when dX < 0,
  or dX = 0 and dL <= 0.

This sidesteps the classical net-ordering dependence of sequential
rip-up-and-reroute.  The stopping criterion: no overflowed edge remains,
or L and X unchanged for M * N consecutive attempts — an accepted swap
with dX = 0 and dL = 0 is such an attempt, so trading equal routes back
and forth cannot run forever.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .steiner import RouteAlternative

EdgeKey = Tuple[int, int]


@dataclass
class InterchangeResult:
    """Outcome of the route-selection phase."""

    selection: Dict[str, int]
    total_length: float
    overflow: int
    attempts: int = 0
    accepted: int = 0
    converged_shortest: bool = False  # every net on k=1 with X = 0


class RouteSelector:
    """Selects one alternative per net subject to edge capacities."""

    def __init__(
        self,
        alternatives: Dict[str, Sequence[RouteAlternative]],
        capacities: Dict[EdgeKey, Optional[int]],
    ) -> None:
        for net, alts in alternatives.items():
            if not alts:
                raise ValueError(f"net {net!r} has no route alternatives")
            lengths = [a.length for a in alts]
            if lengths != sorted(lengths):
                raise ValueError(f"alternatives for net {net!r} not sorted")
        self.alternatives = {net: list(alts) for net, alts in alternatives.items()}
        self.capacities = capacities
        self.selection: Dict[str, int] = {net: 0 for net in self.alternatives}
        self._density: Dict[EdgeKey, int] = {}
        self._nets_on_edge: Dict[EdgeKey, set] = {}
        #: The overflowed edges, kept sorted as densities change.
        self._hot: List[EdgeKey] = []
        self._length = 0.0
        self._overflow = 0
        for net in self.alternatives:
            self._install(net, 0)

    # -- bookkeeping -------------------------------------------------------

    def _edge_overflow(self, edge: EdgeKey, density: int) -> int:
        cap = self.capacities.get(edge)
        if cap is None:
            return 0
        return max(0, density - cap)

    def _install(self, net: str, k: int) -> None:
        alt = self.alternatives[net][k]
        self.selection[net] = k
        self._length += alt.length
        for edge in alt.edges:
            old = self._density.get(edge, 0)
            before = self._edge_overflow(edge, old)
            after = self._edge_overflow(edge, old + 1)
            self._overflow += after - before
            # Hot means in ``_density`` with positive overflow.
            if after > 0 and not (old > 0 and before > 0):
                bisect.insort(self._hot, edge)
            self._density[edge] = old + 1
            self._nets_on_edge.setdefault(edge, set()).add(net)

    def _uninstall(self, net: str) -> None:
        k = self.selection[net]
        alt = self.alternatives[net][k]
        self._length -= alt.length
        for edge in alt.edges:
            old = self._density[edge]
            before = self._edge_overflow(edge, old)
            after = self._edge_overflow(edge, old - 1)
            self._overflow += after - before
            if before > 0 and not (old > 1 and after > 0):
                del self._hot[bisect.bisect_left(self._hot, edge)]
            if old == 1:
                del self._density[edge]
            else:
                self._density[edge] = old - 1
            users = self._nets_on_edge[edge]
            users.discard(net)
            if not users:
                del self._nets_on_edge[edge]

    # -- queries ------------------------------------------------------------

    @property
    def total_length(self) -> float:
        return self._length

    @property
    def overflow(self) -> int:
        return self._overflow

    def density(self, edge: EdgeKey) -> int:
        return self._density.get(edge, 0)

    def overflowed_edges(self) -> List[EdgeKey]:
        """The edges over capacity, sorted: the rng draws an index into
        this list, so its order must depend on the route values only,
        never on set layout (a pickle round-trip through a routing
        worker reorders equal frozensets)."""
        return list(self._hot)

    def selected_route(self, net: str) -> RouteAlternative:
        return self.alternatives[net][self.selection[net]]

    def routes(self) -> Dict[str, FrozenSet[EdgeKey]]:
        return {net: self.selected_route(net).edges for net in self.alternatives}

    # -- the interchange loop -------------------------------------------------

    def _delta(self, net: str, k: int) -> Tuple[int, float]:
        """(dX, dL) of switching ``net`` to alternative ``k``."""
        cur = self.selected_route(net)
        alt = self.alternatives[net][k]
        d_len = alt.length - cur.length
        removed = cur.edges - alt.edges
        added = alt.edges - cur.edges
        d_x = 0
        for edge in removed:
            old = self._density[edge]
            d_x += self._edge_overflow(edge, old - 1) - self._edge_overflow(edge, old)
        for edge in added:
            old = self._density.get(edge, 0)
            d_x += self._edge_overflow(edge, old + 1) - self._edge_overflow(edge, old)
        return (d_x, d_len)

    def run(
        self,
        rng: random.Random,
        stagnation_limit: Optional[int] = None,
    ) -> InterchangeResult:
        """Execute the random interchange until X = 0 or stagnation.

        ``stagnation_limit`` defaults to M * N (alternatives per net times
        number of nets), the paper's criterion.
        """
        n_nets = len(self.alternatives)
        m = max((len(a) for a in self.alternatives.values()), default=1)
        limit = stagnation_limit if stagnation_limit is not None else m * n_nets
        attempts = 0
        accepted = 0
        stagnant = 0

        hot = self._hot
        while self._overflow > 0 and stagnant < limit:
            if not hot:
                break
            edge = hot[rng.randrange(len(hot))]
            users = sorted(self._nets_on_edge.get(edge, ()))
            if not users:
                stagnant += 1
                continue
            net = users[rng.randrange(len(users))]
            current = self.selection[net]
            deltas = {
                k: self._delta(net, k)
                for k in range(len(self.alternatives[net]))
                if k != current
            }
            options = [k for k, (d_x, _) in deltas.items() if d_x <= 0]
            attempts += 1
            if not options:
                stagnant += 1
                continue
            k = options[rng.randrange(len(options))]
            d_x, d_len = deltas[k]
            if d_x < 0 or (d_x == 0 and d_len <= 0):
                self._uninstall(net)
                self._install(net, k)
                accepted += 1
                # A swap that leaves L and X unchanged is not progress.
                stagnant = 0 if (d_x < 0 or d_len < 0) else stagnant + 1
            else:
                stagnant += 1

        converged = self._overflow == 0 and all(
            k == 0 for k in self.selection.values()
        )
        return InterchangeResult(
            selection=dict(self.selection),
            total_length=self._length,
            overflow=self._overflow,
            attempts=attempts,
            accepted=accepted,
            converged_shortest=converged,
        )
