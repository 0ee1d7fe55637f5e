"""Stage-1 placement and stage-2 refinement of TimberWolfMC."""

from .arraycore import ArrayPlacementState, make_placement_state
from .batch import BatchKernel, BatchMoveGenerator
from .compact import compact
from .legalize import raw_overlap, remove_overlaps
from .moves import MoveGenerator
from .refine import RefinementPass, RefinementResult, run_refinement
from .stage1 import Stage1Result, calibrate_p2, run_stage1
from .state import CellRecord, PlacementState, world_side

__all__ = [
    "ArrayPlacementState",
    "make_placement_state",
    "BatchKernel",
    "BatchMoveGenerator",
    "compact",
    "MoveGenerator",
    "Stage1Result",
    "calibrate_p2",
    "run_stage1",
    "CellRecord",
    "PlacementState",
    "world_side",
]
