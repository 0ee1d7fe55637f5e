"""The parallel execution layer: process-pool consumers of the flow.

Two consumers share this package:

* :func:`~repro.parallel.multichain.run_multichain_stage1` — K
  independent stage-1 annealing chains with periodic best-of-K
  exchange, bit-for-bit reproducible for a fixed ``(seed, chains,
  exchange_period)`` regardless of worker count.
* :func:`~repro.parallel.routing.route_nets_parallel` — per-net
  M-shortest-path fan-out for the global router, identical to the
  serial router.

Both are imported from their modules, and only when a run asks for
them, so ``import repro`` never loads ``multiprocessing``.

:func:`spawn_seed` is the deterministic per-chain seed derivation both
the parallel layer and the serial flow use (chain 0 *is* the serial
stream).  Configuration lives in :class:`repro.config.ParallelConfig`
(``TimberWolfConfig.parallel``).
"""

from .seeds import spawn_seed

__all__ = ["spawn_seed"]
