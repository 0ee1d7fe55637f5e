"""Common scaffolding for the baseline placers of Table 4.

Every baseline produces the same artifact as TimberWolfMC — a
``PlacementState`` over the same sized core — so TEIL and chip area are
measured identically.  Baselines finish with the same legalization pass
(overlap-free, one track of clearance), making the area comparison fair.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..estimator import determine_core
from ..netlist import Circuit
from ..placement.legalize import remove_overlaps
from ..placement.state import PlacementState


@dataclass
class BaselineResult:
    """A baseline placement, measured like a TimberWolfMC result."""

    name: str
    state: PlacementState

    @property
    def teil(self) -> float:
        return self.state.teil()

    @property
    def chip_area(self) -> float:
        return self.state.chip_area()


def route_baseline(
    result: BaselineResult,
    m_routes: int = 8,
    seed: int = 0,
) -> BaselineResult:
    """Globally route a baseline placement and reserve its channel widths.

    TimberWolfMC's reported chip area includes the interconnect space the
    routed design actually needs (Eqn 22).  To compare areas fairly, a
    baseline placement gets the same treatment: channels are defined and
    routed on it, every cell edge is expanded by half its channels'
    required width, and the placement is re-legalized.  The returned
    result's ``chip_area`` is then the baseline's *routed* area.
    """
    from ..channels import cell_edge_expansions
    from ..config import TimberWolfConfig
    from ..placement.compact import compact
    from ..placement.refine import define_and_route

    state = result.state
    circuit = state.circuit
    config = TimberWolfConfig(m_routes=m_routes, seed=seed)
    rng = random.Random(seed)
    graph, routing = define_and_route(circuit, state, config, rng)
    expansions = cell_edge_expansions(graph, routing.routes, circuit.track_spacing)
    state.set_static_expansions(expansions)
    # The same finishing the flow applies: separate the margin-carrying
    # shapes so every channel actually has its width, then compact.
    remove_overlaps(state, use_expanded=True)
    compact(state)
    return BaselineResult(name=result.name, state=state)


class BaselinePlacer(ABC):
    """A placement method TimberWolfMC is compared against."""

    #: Short identifier used in benchmark tables.
    name: str = "baseline"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def place(self, circuit: Circuit) -> BaselineResult:
        """Produce a legal placement of the circuit."""
        plan = determine_core(circuit)
        state = PlacementState(circuit, plan)
        rng = random.Random(self.seed)
        self._assign(state, rng)
        # Baselines are free to ignore pre-placed cells while optimizing;
        # the contract is re-imposed before legalization.
        state.enforce_fixed()
        remove_overlaps(state, min_gap=circuit.track_spacing)
        return BaselineResult(name=self.name, state=state)

    @abstractmethod
    def _assign(self, state: PlacementState, rng: random.Random) -> None:
        """Fill in the state's records (legalization happens afterwards)."""
