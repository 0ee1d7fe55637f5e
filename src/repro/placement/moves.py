"""The generate function of §3.2.1 — the move cascade of stage 1.

One generate call either displaces a single cell or interchanges a pair
(ratio r of displacements to interchanges, Figure 3).  Each branch is a
cascade of accept-tested attempts:

* displacement to a range-limited point; if rejected, the same
  displacement with the cell's aspect ratio inverted (Figure 2); if that
  is rejected too, a random orientation (or instance) change in place;
* for custom cells, additionally one pin-group move per uncommitted
  group and one aspect-ratio change attempt;
* interchange of two random cells; if rejected, the interchange with
  both aspect ratios inverted.

Every attempt is judged by the Metropolis rule at the current T.  The
§4.3 refine anneal generates only the displacements and the pin-group
moves (``MoveGenerator(refine=True)``).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from ..annealing import (
    AnnealingState,
    RangeLimiter,
    metropolis_accept,
    select_displacement_dr,
)
from ..annealing.range_limiter import ds_point, ds_steps
from ..geometry import orientation as ori
from ..netlist import CustomCell, MacroCell
from .state import PlacementState

#: Relative size of a local aspect-ratio perturbation (log-uniform).
_ASPECT_STEP = 0.35

#: Pin-group attempts per visit of a custom cell, at most.
MAX_PIN_GROUPS_PER_CALL = 4

def telemetry_fields(
    c1: float, c2_raw: float, c3: float, p2: float, limiter, temperature: float
) -> Dict[str, float]:
    """A placement anneal's per-temperature trace fields, for either
    mover: the cost components of Eqns 6-11 and the §3.2.2
    range-limiter window."""
    return {
        "c1": round(c1, 4),
        "c2": round(p2 * c2_raw, 4),
        "c2_raw": round(c2_raw, 4),
        "c3": round(c3, 4),
        "window_x": round(limiter.window_x(temperature), 3),
        "window_y": round(limiter.window_y(temperature), 3),
    }


#: Every move kind the §3.2.1 cascade can issue.
MOVE_KINDS = (
    "displace",
    "displace_inverted",
    "orientation",
    "pin_group",
    "aspect",
    "interchange",
    "interchange_inverted",
)


class MoveGenerator(AnnealingState):
    """The §3.2.1 generate function over a ``PlacementState``, and the
    engine's annealing state: one ``step`` is one generate() call.

    ``refine`` gives the §4.3 refine anneal's moves: displacements and
    pin-group moves, with orientations, instances, aspect ratios and
    interchanges frozen.
    """

    #: The move kinds this mover counts in ``stats``.
    KINDS = MOVE_KINDS

    def __init__(
        self,
        state: PlacementState,
        limiter: RangeLimiter,
        r_ratio: float = 10.0,
        selector: str = "ds",
        refine: bool = False,
    ) -> None:
        if r_ratio <= 0:
            raise ValueError("r_ratio must be positive")
        self.state = state
        self.limiter = limiter
        self.displacement_probability = r_ratio / (1.0 + r_ratio)
        if selector not in ("ds", "dr"):
            raise ValueError(f"unknown selector {selector!r}")
        self._ds = selector == "ds"
        #: The Ds grid steps and the temperature they were taken at: the
        #: window is fixed within an inner loop, so they are computed
        #: once per temperature (see on_temperature).
        self._steps_t: Optional[float] = None
        self._steps: Optional[Tuple[float, float]] = None
        self.refine = refine
        self._movable = [
            i for i in range(len(state.names)) if state.movable[i]
        ]
        if not self._movable:
            raise ValueError("no movable cells: nothing to anneal")
        self._custom = [
            isinstance(state.cell(i), CustomCell) for i in range(len(state.names))
        ]
        #: Per cell: (group key, the sides every member allows, sorted) in
        #: ``state._groups`` order, so a pin-group attempt draws from the
        #: same sequences as before with no per-attempt set algebra.
        self._group_sides: List[List[Tuple[str, Tuple[str, ...]]]] = []
        for i, groups in enumerate(state._groups):
            cell = state.cell(i)
            sides = []
            for key, members in groups:
                pins = [cell.pins[m] for m in members]
                allowed = frozenset.intersection(*(p.sides for p in pins))
                if not allowed:
                    allowed = pins[0].sides
                sides.append((key, tuple(sorted(allowed))))
            self._group_sides.append(sides)
        #: The movable custom cells with uncommitted pin groups: the
        #: cells a ``pin_round`` visits.
        self.pin_cells = [i for i in self._movable if self._group_sides[i]]
        #: Move kind -> [attempts, accepts], over ``KINDS``.
        self.stats: Dict[str, List[int]] = {kind: [0, 0] for kind in MOVE_KINDS}

    def _record(self, kind: str, accepted: bool) -> None:
        row = self.stats[kind]
        row[0] += 1
        if accepted:
            row[1] += 1

    def on_temperature(self, temperature: float) -> None:
        """Fix the Ds grid steps for the inner loop at ``temperature``
        (the engine calls this after an adaptive window's update)."""
        self._steps = ds_steps(self.limiter, temperature)
        self._steps_t = temperature

    def _target(
        self, rng: random.Random, center: Tuple[float, float], temperature: float
    ) -> Tuple[float, float]:
        if not self._ds:
            return select_displacement_dr(rng, center, self.limiter, temperature)
        if temperature != self._steps_t:
            self.on_temperature(temperature)
        return ds_point(rng, center, *self._steps)

    def cost(self) -> float:
        return self.state.cost()

    def moves_per_iteration(self) -> int:
        return self.state.moves_per_iteration()

    def state_dict(self) -> Dict:
        return self.state.state_dict()

    def cost_drift(self) -> Dict[str, float]:
        return self.state.cost_drift()

    def resync(self) -> None:
        self.state.resync()

    def telemetry_snapshot(self, temperature: float) -> Dict[str, float]:
        state = self.state
        return telemetry_fields(
            state.c1(), state.c2_raw(), state.c3(), state.p2, self.limiter,
            temperature,
        )

    # ------------------------------------------------------------------

    def step(self, temperature: float, rng: random.Random) -> Tuple[int, int]:
        """One generate-and-accept cycle; returns (attempts, accepts)."""
        if self.refine or rng.random() < self.displacement_probability:
            return self._displacement_branch(temperature, rng)
        return self._interchange_branch(temperature, rng)

    # ------------------------------------------------------------------

    def _judge(
        self, delta: float, snap, temperature: float, rng: random.Random
    ) -> bool:
        if metropolis_accept(delta, temperature, rng):
            return True
        self.state.restore(snap)
        return False

    def _displacement_branch(
        self, temperature: float, rng: random.Random
    ) -> Tuple[int, int]:
        state = self.state
        idx = self._movable[rng.randrange(len(self._movable))]
        center = state.records[idx].center
        target = state.clamp_to_core(self._target(rng, center, temperature))

        attempts, accepts = 0, 0

        # A1: plain displacement.
        delta, snap = state.move_cell(idx, center=target)
        attempts += 1
        accepted = self._judge(delta, snap, temperature, rng)
        self._record("displace", accepted)
        if accepted:
            accepts += 1
        elif not self.refine:
            # A1': the displacement with the aspect ratio inverted (a
            # reorientation for macros, a ratio inversion for customs —
            # skipped entirely in stage 2, where both are frozen).
            delta, snap = state.move_cell_inverted(idx, target)
            attempts += 1
            accepted = self._judge(delta, snap, temperature, rng)
            self._record("displace_inverted", accepted)
            if accepted:
                accepts += 1
            else:
                # A_o: a random orientation (or instance) change in place.
                a, c = self._orientation_attempt(idx, temperature, rng)
                attempts += a
                accepts += c

        if self._custom[idx]:
            a, c = self._pin_attempts(idx, temperature, rng)
            attempts += a
            accepts += c
            if not self.refine:
                a, c = self._aspect_attempt(idx, temperature, rng)
                attempts += a
                accepts += c
        return (attempts, accepts)

    def _orientation_attempt(
        self, idx: int, temperature: float, rng: random.Random
    ) -> Tuple[int, int]:
        state = self.state
        cell = state.cell(idx)
        record = state.records[idx]
        if (
            isinstance(cell, MacroCell)
            and cell.num_instances > 1
            and rng.random() < 0.5
        ):
            choices = [k for k in range(cell.num_instances) if k != record.instance]
            delta, snap = state.move_cell(idx, instance=rng.choice(choices))
        else:
            new_o = rng.randrange(ori.N_ORIENTATIONS - 1)
            if new_o >= record.orientation:
                new_o += 1
            delta, snap = state.move_cell(idx, orientation=new_o)
        accepted = self._judge(delta, snap, temperature, rng)
        self._record("orientation", accepted)
        return (1, 1) if accepted else (1, 0)

    def _pin_attempts(
        self, idx: int, temperature: float, rng: random.Random
    ) -> Tuple[int, int]:
        """One site-reassignment attempt per uncommitted group (bounded)."""
        state = self.state
        groups = self._group_sides[idx]
        if not groups:
            return (0, 0)
        nsites = state.cell(idx).sites_per_edge
        attempts, accepts = 0, 0
        count = min(len(groups), MAX_PIN_GROUPS_PER_CALL)
        for _ in range(count):
            key, sides = groups[rng.randrange(len(groups))]
            side = rng.choice(sides)
            start = rng.randrange(nsites)
            delta, snap = state.move_pin_group(idx, key, side, start)
            attempts += 1
            accepted = self._judge(delta, snap, temperature, rng)
            self._record("pin_group", accepted)
            if accepted:
                accepts += 1
        return (attempts, accepts)

    def pin_round(
        self, temperature: float, rng: random.Random, rounds: int = 1
    ) -> Tuple[int, int]:
        """``rounds`` pin-group attempt calls per cell of ``pin_cells``,
        each round in an order shuffled with ``rng`` — the pin moves of
        the batched refine anneal, whose batches only displace.
        Returns (attempts, accepts)."""
        attempts, accepts = 0, 0
        cells = list(self.pin_cells)
        for _ in range(rounds):
            rng.shuffle(cells)
            for i in cells:
                a, c = self._pin_attempts(i, temperature, rng)
                attempts += a
                accepts += c
        return (attempts, accepts)

    def _aspect_attempt(
        self, idx: int, temperature: float, rng: random.Random
    ) -> Tuple[int, int]:
        state = self.state
        cell = state.cell(idx)
        assert isinstance(cell, CustomCell)
        record = state.records[idx]
        assert record.aspect_ratio is not None
        new_ar = self._perturb_aspect(cell, record.aspect_ratio, rng)
        if new_ar is None or new_ar == record.aspect_ratio:
            return (0, 0)
        delta, snap = state.move_cell(idx, aspect_ratio=new_ar)
        accepted = self._judge(delta, snap, temperature, rng)
        self._record("aspect", accepted)
        return (1, 1) if accepted else (1, 0)

    @staticmethod
    def _perturb_aspect(
        cell: CustomCell, current: float, rng: random.Random
    ) -> Optional[float]:
        spec = cell.aspect
        # Discrete specs: pick a different allowed value.
        values = getattr(spec, "values", None)
        if values is not None:
            others = [v for v in values if v != current]
            return rng.choice(others) if others else None
        # Continuous specs: a log-uniform local step, clamped to the range.
        factor = math.exp(rng.uniform(-_ASPECT_STEP, _ASPECT_STEP))
        return spec.clamp(current * factor)

    def _interchange_branch(
        self, temperature: float, rng: random.Random
    ) -> Tuple[int, int]:
        state = self.state
        pool = self._movable
        if len(pool) < 2:
            return (0, 0)
        pi = rng.randrange(len(pool))
        pj = rng.randrange(len(pool) - 1)
        if pj >= pi:
            pj += 1
        i, j = pool[pi], pool[pj]
        # A2: plain interchange (not range-limited, per §3.2.2).
        delta, snap = state.swap_cells(i, j)
        accepted = self._judge(delta, snap, temperature, rng)
        self._record("interchange", accepted)
        if accepted:
            return (1, 1)
        # A2': the interchange with both aspect ratios inverted (Figure 2).
        delta, snap = state.swap_cells_inverted(i, j)
        accepted = self._judge(delta, snap, temperature, rng)
        self._record("interchange_inverted", accepted)
        if accepted:
            return (2, 1)
        return (2, 0)
