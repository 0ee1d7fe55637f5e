"""Multi-chain stage-1 annealing with periodic best-of-K exchange.

K independent stage-1 chains anneal the same circuit from decorrelated
RNG streams (:func:`~repro.parallel.seeds.spawn_seed`).  Every E
temperature decrements (``config.parallel.exchange_period``) the
coordinator gathers all chains, ranks them by cost, and restarts the
worst ⌊K/2⌋ live chains from a *perturbed* copy of the best state —
the multi-start-with-exchange scheme parallel SA floorplanners use to
trade redundant exploration for wall-clock.

Determinism contract
--------------------

The final placement is a pure function of ``(seed, chains,
exchange_period)`` — never of ``workers`` or OS scheduling:

* every chain's RNG stream is derived from ``config.seed`` alone;
* chains interact only at round barriers, where all decisions (ranking,
  loser selection, perturbation) are computed from gathered plain data
  with index-based tie-breaking;
* the exchange perturbation draws from its own derived stream
  (``spawn_seed(seed, chain_id, stream=round+1)``), so it cannot skew
  any chain's move sequence;
* chains ship state between processes via the history-exact
  ``PlacementState.state_dict()`` (the same mechanism checkpoints use),
  so a state loaded in another process continues bit-for-bit.

The serial backend (``workers=1``) runs the same coordinator over
in-process chains; the process backend distributes chains over
persistent worker processes, each serving its chains through a serial
backend of its own.  Both reconstruct chain state from the circuit's
canonical text form, so their float sequences are identical, and every
chain is the flow's own :class:`~repro.placement.stage1.Stage1Chain`.

Checkpointing: the coordinator snapshots *all* chains at every round
boundary (phase ``"parallel1"``), after the exchange has been applied.
A SIGTERM that lands mid-round (including mid-exchange) is honored at
the next boundary, after the snapshot — resuming from it replays the
remaining rounds bit-for-bit.
"""

from __future__ import annotations

import multiprocessing as mp
import random
import sys
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..annealing import AnnealCursor
from ..config import TimberWolfConfig
from ..netlist import Circuit, dumps, loads
from ..placement.batch import BatchMoveGenerator
from ..placement.stage1 import (
    Stage1Chain,
    Stage1Result,
    emit_stage1_result,
    restore_stage1,
)
from ..resilience.drift import drift_observers
from ..telemetry import NULL_TRACER, MemorySink, Tracer, current_tracer, use_tracer
from .seeds import spawn_seed
from .workers import reset_worker_signals

#: Fraction of the movable cells the exchange perturbation displaces
#: (1/8), and the displacement radius as a fraction of the core span.
PERTURB_CELL_DIVISOR = 8
PERTURB_SPAN_FRACTION = 0.05


class ChainContext(Stage1Chain):
    """One annealing chain: a :class:`Stage1Chain` run in segments.

    Lives wherever its backend puts it (coordinator process or worker).
    The annealer's ``max_temperatures`` is re-bounded per segment, so
    one persistent engine runs the chain in E-step slices with the RNG
    and stopping history carried across slices by the cursor — the
    exact mechanism stage-1 checkpoint resume uses.

    Building the chain emits nothing into the run's trace (it is built
    under the disabled tracer), so a trace holds only the segments' own
    events, whichever process the chain lives in.  A batched chain keeps
    one kernel session across segments: the kernel's running totals are
    what rank the chains.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: TimberWolfConfig,
        chain_id: int,
        restore: Optional[Dict[str, Any]] = None,
    ) -> None:
        with use_tracer(NULL_TRACER):
            super().__init__(circuit, config, chain_id=chain_id, resume=restore)
        self.chain_id = chain_id
        self.config = config
        self.done = bool((restore or {}).get("done", False))
        self.stop_reason: Optional[str] = (restore or {}).get("stop_reason")
        self._begin()

    def _begin(self) -> None:
        """(Re)open the batched session on the current placement; on a
        resume the cursor restores the numpy stream on the first segment,
        and begin() rebuilds the mid-anneal arrays bit-for-bit from the
        restored records."""
        if isinstance(self.mover, BatchMoveGenerator):
            self.mover.begin()

    def run_segment(self, upto: int) -> Dict[str, Any]:
        """Anneal until temperature step ``upto`` (exclusive) or until
        the chain's own stopping criterion fires, whichever is first."""
        if self.done:
            raise RuntimeError(f"chain {self.chain_id} is already done")
        bound = min(upto, self.config.max_temperatures)
        self.annealer.max_temperatures = bound
        prior_steps = len(self.cursor.steps) if self.cursor is not None else 0
        captured: List[Optional[AnnealCursor]] = [None]

        def _capture(step_index, stats, state, make_cursor) -> None:
            captured[0] = make_cursor()

        observers = drift_observers(self.config) + [_capture]
        result = self.annealer.run(
            self.mover, resume=self.cursor, observers=observers
        )
        if captured[0] is not None:
            self.cursor = captured[0]
        self.done = self.cursor is not None and self.cursor.done
        if not self.done and bound >= self.config.max_temperatures:
            # The global temperature budget, not the segment bound.
            self.done = True
        self.stop_reason = result.stop_reason
        new_steps = result.steps[prior_steps:]
        # The mover reports the *live* state: during a batched session
        # that is the kernel's arrays (export writes centers through to
        # the records), for serial chains it is the placement state
        # itself — both history-exact, both loadable anywhere.
        return {
            "chain": self.chain_id,
            "cost": self.mover.cost(),
            "done": self.done,
            "stop_reason": self.stop_reason,
            "cursor": self.cursor.to_dict() if self.cursor is not None else None,
            "state": self.mover.state_dict(),
            "attempts": sum(s.attempts for s in new_steps),
            "steps_completed": len(new_steps),
        }

    def exchange(self, best_state: Dict[str, Any], round_index: int) -> Dict[str, Any]:
        """Restart this chain from a perturbed copy of the best state.

        The perturbation RNG is derived from ``(seed, chain_id, round)``
        — independent of the chain's move stream, so the exchange never
        shifts the RNG position the cursor will resume from.  Returns
        the resulting ``state_dict`` (with canonical, freshly-rebuilt
        accumulators) for the coordinator's table and checkpoints.
        """
        state = self.state
        state.load_state_dict(best_state)
        rng = random.Random(
            spawn_seed(self.config.seed, self.chain_id, stream=round_index + 1)
        )
        movable = [i for i, ok in enumerate(state.movable) if ok]
        if movable:
            count = max(1, len(movable) // PERTURB_CELL_DIVISOR)
            dx = state.core.width * PERTURB_SPAN_FRACTION
            dy = state.core.height * PERTURB_SPAN_FRACTION
            for idx in rng.sample(movable, count):
                cx, cy = state.records[idx].center
                state.records[idx].center = state.clamp_to_core(
                    (cx + rng.uniform(-dx, dx), cy + rng.uniform(-dy, dy))
                )
            state.resync()
        # The exchange rebuilt the object model underneath a batched
        # session; re-freeze so the next segment anneals the exchanged
        # placement (begin() is a pure function of the placement, so
        # worker count still cannot affect the result).
        self._begin()
        return state.state_dict()

    def snapshot(self) -> Dict[str, Any]:
        """The chain's current state (pre-anneal when no segment ran)."""
        return self.mover.state_dict()


def _traced_segment(context: ChainContext, upto: int, traced: bool) -> Dict[str, Any]:
    """Run one segment under a private tracer; ship the events back so
    the coordinator can merge them (tagged ``chain=<id>``) into the
    run's trace.

    The events come back tagged ``chain``, so the run's heartbeat never
    turns them into per-chain beats (worker processes could not beat
    anyway); it beats once per round from ``parallel.round`` instead.
    """
    if not traced:
        result = context.run_segment(upto)
        result["events"] = []
        return result
    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        result = context.run_segment(upto)
    result["events"] = sink.events
    return result


class SerialChainBackend:
    """All chains in the coordinator's process (``workers=1``), and the
    chains of one worker process (which serves this object's four ops
    over its pipe).

    Chains are still built from the circuit's canonical text form —
    exactly what the process backend ships to its workers — so the two
    backends perform identical float sequences.
    """

    def __init__(self, circuit_text: str, config: TimberWolfConfig, traced: bool) -> None:
        self._circuit = loads(circuit_text)
        self._config = config
        self._traced = traced
        self._chains: Dict[int, ChainContext] = {}

    def init_chain(self, chain_id: int, restore: Optional[Dict] = None) -> None:
        self._chains[chain_id] = ChainContext(
            self._circuit, self._config, chain_id, restore
        )

    def run_segments(self, requests: Sequence[Tuple[int, int]]) -> List[Dict]:
        return [
            _traced_segment(self._chains[cid], upto, self._traced)
            for cid, upto in requests
        ]

    def exchange(self, chain_id: int, best_state: Dict, round_index: int) -> Dict:
        return self._chains[chain_id].exchange(best_state, round_index)

    def snapshot(self, chain_id: int) -> Dict:
        return self._chains[chain_id].snapshot()

    def close(self) -> None:
        self._chains.clear()


def _start_method() -> str:
    """Prefer fork (cheap, inherits sys.path) where available."""
    if "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


def _chain_worker_main(conn, circuit_text, config_dict, traced, sys_path) -> None:
    """Worker loop: calls ``(op, *args)`` requests from the coordinator
    on a :class:`SerialChainBackend` holding this worker's chains."""
    reset_worker_signals()
    for entry in sys_path:
        if entry not in sys.path:
            sys.path.insert(0, entry)
    backend = SerialChainBackend(
        circuit_text, TimberWolfConfig.from_dict(config_dict), traced
    )
    while True:
        try:
            op, *args = conn.recv()
        except EOFError:
            break
        if op == "close":
            conn.send(("ok", None))
            break
        try:
            reply = getattr(backend, op)(*args)
        except Exception:
            conn.send(("error", traceback.format_exc()))
        else:
            conn.send(("ok", reply))
    conn.close()


class ChainWorkerError(RuntimeError):
    """A chain worker process failed; carries the worker's traceback."""


class ProcessChainBackend:
    """Chains distributed over persistent worker processes.

    Chain ``i`` lives in worker ``i % workers`` for the whole run, so
    its in-memory annealer persists across segments exactly as in the
    serial backend.  The coordinator pipelines one round's segment
    requests to all workers before gathering, so chains on different
    workers anneal concurrently; replies are matched per-pipe in FIFO
    order, which keeps the protocol deterministic.
    """

    def __init__(
        self, circuit_text: str, config: TimberWolfConfig, workers: int, traced: bool
    ) -> None:
        context = mp.get_context(_start_method())
        self._procs = []
        self._conns = []
        self._owner: Dict[int, int] = {}
        for _ in range(workers):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_chain_worker_main,
                args=(
                    child_conn,
                    circuit_text,
                    config.to_dict(),
                    traced,
                    list(sys.path),
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _recv(self, conn):
        status, value = conn.recv()
        if status == "error":
            raise ChainWorkerError(f"chain worker failed:\n{value}")
        return value

    def _conn(self, chain_id: int):
        return self._conns[self._owner[chain_id]]

    def _call(self, chain_id: int, op: str, *args):
        conn = self._conn(chain_id)
        conn.send((op, chain_id, *args))
        return self._recv(conn)

    def init_chain(self, chain_id: int, restore: Optional[Dict] = None) -> None:
        self._owner[chain_id] = chain_id % len(self._conns)
        self._call(chain_id, "init_chain", restore)

    def run_segments(self, requests: Sequence[Tuple[int, int]]) -> List[Dict]:
        for chain_id, upto in requests:
            self._conn(chain_id).send(("run_segments", [(chain_id, upto)]))
        # Receiving in request order is safe: each pipe's replies arrive
        # in the order its requests were sent.
        return [self._recv(self._conn(chain_id))[0] for chain_id, _ in requests]

    def exchange(self, chain_id: int, best_state: Dict, round_index: int) -> Dict:
        return self._call(chain_id, "exchange", best_state, round_index)

    def snapshot(self, chain_id: int) -> Dict:
        return self._call(chain_id, "snapshot")

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for conn, proc in zip(self._conns, self._procs):
            try:
                if proc.is_alive():
                    conn.poll(2.0)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


def run_multichain_stage1(
    circuit: Circuit,
    config: TimberWolfConfig,
    control=None,
    resume: Optional[Dict[str, Any]] = None,
) -> Stage1Result:
    """Run stage 1 as K chains with periodic best-of-K exchange.

    Drop-in replacement for :func:`repro.placement.stage1.run_stage1`
    when ``config.parallel.chains > 1``.  ``resume`` is a ``parallel1``
    checkpoint payload (all chains at a round boundary); the run
    continues bit-for-bit.  Returns the winning chain's
    :class:`Stage1Result`, reconstructed in the caller's process.
    """
    par = config.parallel
    chains = par.chains
    workers = max(1, min(par.workers, chains))
    tracer = current_tracer()
    circuit_text = dumps(circuit)

    if workers == 1:
        backend = SerialChainBackend(circuit_text, config, tracer.enabled)
    else:
        backend = ProcessChainBackend(circuit_text, config, workers, tracer.enabled)

    #: chain_id -> {"cursor", "state", "done", "stop_reason", "cost"}
    table: Dict[int, Dict[str, Any]] = {}
    truncated = False
    budget_reason: Optional[str] = None
    try:
        if resume is not None:
            round_index = resume["round"]
            upto = resume["upto"]
            for cid in range(chains):
                entry = resume["chains"][cid]
                table[cid] = dict(entry)
                if not entry["done"]:
                    backend.init_chain(cid, restore=entry)
            if tracer.enabled:
                tracer.event(
                    "checkpoint.resumed", phase="parallel1", round=round_index
                )
        else:
            round_index = 0
            upto = par.exchange_period
            for cid in range(chains):
                backend.init_chain(cid)
            if tracer.enabled:
                tracer.event(
                    "parallel.setup",
                    chains=chains,
                    workers=workers,
                    exchange_period=par.exchange_period,
                )

        while True:
            live = [
                cid for cid in range(chains) if not table.get(cid, {}).get("done")
            ]
            if not live:
                break
            if control is not None:
                budget_reason = control.budget_exhausted()
                if budget_reason is not None:
                    truncated = True
                    break
            results = backend.run_segments([(cid, upto) for cid in live])
            round_attempts = 0
            round_steps = 0
            for res in results:
                cid = res["chain"]
                table[cid] = {
                    "cursor": res["cursor"],
                    "state": res["state"],
                    "done": res["done"],
                    "stop_reason": res["stop_reason"],
                    "cost": res["cost"],
                }
                round_attempts += res["attempts"]
                round_steps = max(round_steps, res["steps_completed"])
                tracer.ingest(res["events"], chain=cid)
            if control is not None and control.budget is not None:
                # The schedule advanced by the longest chain's step count;
                # moves are accounted across all chains.
                control.budget.note_moves(round_attempts)
                for _ in range(round_steps):
                    control.budget.note_temperature()
            ranked = sorted(table, key=lambda c: (table[c]["cost"], c))
            if tracer.enabled:
                tracer.event(
                    "parallel.round",
                    round=round_index,
                    upto=upto,
                    costs={cid: round(table[cid]["cost"], 4) for cid in sorted(table)},
                    done=sorted(cid for cid in table if table[cid]["done"]),
                    best=ranked[0],
                )
            live = [cid for cid in range(chains) if not table[cid]["done"]]
            if live:
                best = ranked[0]
                losers = [
                    cid
                    for cid in reversed(ranked)
                    if cid != best and not table[cid]["done"]
                ][: chains // 2]
                for cid in losers:
                    table[cid]["state"] = backend.exchange(
                        cid, table[best]["state"], round_index
                    )
                if losers and tracer.enabled:
                    tracer.event(
                        "parallel.exchange",
                        round=round_index,
                        source=best,
                        targets=sorted(losers),
                        best_cost=round(table[best]["cost"], 4),
                    )
            if control is not None and control.manager is not None:
                payload = {
                    "round": round_index + 1,
                    "upto": upto + par.exchange_period,
                    "chains": {cid: dict(table[cid]) for cid in range(chains)},
                }
                path = control.manager.save(
                    "parallel1", f"parallel-r{round_index:04d}", payload
                )
                if tracer.enabled:
                    tracer.event(
                        "checkpoint.saved",
                        phase="parallel1",
                        round=round_index,
                        path=str(path),
                    )
            if control is not None and control.interrupt.is_set():
                control._raise_interrupted()
            round_index += 1
            upto += par.exchange_period

        if not table:
            # Budget exhausted before the first round: hand back chain
            # 0's initial (post-calibration) placement, truncated.
            table[0] = {
                "cursor": None,
                "state": backend.snapshot(0),
                "done": False,
                "stop_reason": None,
                "cost": None,
            }
    finally:
        backend.close()

    ranked = sorted(
        table,
        key=lambda c: (
            table[c]["cost"] if table[c]["cost"] is not None else float("inf"),
            c,
        ),
    )
    winner = ranked[0]
    entry = table[winner]

    # Reconstruct the winner in this process — identically for both
    # backends, so the result cannot depend on where the chain ran.
    stage1 = restore_stage1(
        circuit,
        config,
        control,
        entry["state"],
        entry["cursor"]["steps"] if entry["cursor"] is not None else [],
        f"budget:{budget_reason}" if truncated else entry["stop_reason"],
        truncated=truncated,
    )
    if tracer.enabled:
        tracer.event(
            "parallel.winner",
            chain=winner,
            cost=round(stage1.anneal.final_cost, 4),
            rounds=round_index,
        )
        emit_stage1_result(tracer, stage1)
    return stage1
