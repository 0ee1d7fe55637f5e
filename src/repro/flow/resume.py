"""Resume an interrupted flow run from a checkpoint file.

``resume_place_and_route`` is the inverse of an interrupted
``place_and_route(..., checkpoint=...)``: it validates the checkpoint
(magic, schema, checksums, circuit hash), rebuilds the circuit and
config from the snapshot, and continues the run from the captured
position — mid-anneal for stage-1 checkpoints, at a round boundary
(all chains) for multi-chain ``parallel1`` checkpoints, at a pass
boundary for stage-2 checkpoints.  The continued run replays the exact RNG and
floating-point sequence of the uninterrupted one, so the final
placement and cost are bit-for-bit identical.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..config import TimberWolfConfig
from ..netlist import Circuit, loads
from ..resilience.budget import Budget
from ..resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointPolicy,
    read_checkpoint,
)
from ..resilience.control import RunControl
from ..telemetry import Tracer
from .timberwolf import TimberWolfResult, _place_and_route_controlled


def checkpoint_inputs(
    path: Union[str, Path], payload: Dict[str, Any]
) -> Tuple[Circuit, TimberWolfConfig]:
    """The circuit and config a checkpoint payload carries.  A missing,
    unknown or invalid field raises :class:`CheckpointError` (a
    checkpoint from an incompatible build), never a bare
    ``KeyError``/``ValueError``."""
    try:
        return (
            loads(payload["circuit_text"]),
            TimberWolfConfig.from_dict(payload["config"]),
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: checkpoint circuit or config is unusable: {exc}"
        ) from exc


def resume_place_and_route(
    path: Union[str, Path],
    tracer: Optional[Tracer] = None,
    collect_trace: bool = True,
    budget: Optional[Budget] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
    expect_circuit_sha: Optional[str] = None,
) -> TimberWolfResult:
    """Continue a flow run from a checkpoint written by a previous run.

    The circuit and configuration come from the snapshot itself — the
    caller only names the file.  ``checkpoint`` re-arms periodic
    checkpointing for the continued run; by default snapshots continue
    into the checkpoint's own directory (at the default cadence — the
    policy itself is not part of the snapshot), so a twice-interrupted
    run keeps making progress.  Pass ``budget`` to
    bound the continued run (the original run's budget does not carry
    over).  ``expect_circuit_sha`` pins the checkpoint to a known
    circuit fingerprint (the service supervisor pins each retry to the
    job's snapshotted circuit).  Raises :class:`CheckpointError` on a
    corrupt, truncated, or stale file, and its
    :class:`~repro.resilience.checkpoint.CheckpointMismatch` subclass
    when the circuit hash does not match.
    """
    path = Path(path)
    header, payload = read_checkpoint(path, expect_circuit_sha=expect_circuit_sha)
    phase = payload.get("phase")
    if phase not in ("stage1", "stage2", "parallel1"):
        raise CheckpointError(f"{path}: unknown checkpoint phase {phase!r}")
    circuit, config = checkpoint_inputs(path, payload)

    # Keep the original run's registry identity AND its distributed
    # trace: the checkpoint payload carries both ids, and new
    # checkpoints written by the continued run must carry them too.
    run_id = payload.get("run_id")
    trace_id = payload.get("trace_id")
    if checkpoint is None:
        checkpoint = CheckpointPolicy(
            directory=path.parent, run_id=run_id, trace_id=trace_id
        )
    else:
        if checkpoint.run_id is None and run_id is not None:
            checkpoint = replace(checkpoint, run_id=run_id)
        if checkpoint.trace_id is None and trace_id is not None:
            checkpoint = replace(checkpoint, trace_id=trace_id)
    manager = CheckpointManager(checkpoint, payload["circuit_text"], payload["config"])
    control = RunControl(budget=budget, manager=manager)

    return _place_and_route_controlled(
        circuit,
        config,
        tracer,
        collect_trace,
        control,
        resume=payload,
        resumed_from=str(path),
    )
