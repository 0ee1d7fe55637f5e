"""Configuration for the TimberWolfMC flow, with quality presets.

The paper's knobs and the values it recommends:

* ``attempts_per_cell`` — A_c, new states per cell per temperature.
  A_c ~ 400 saturates quality for 30-60-cell circuits (Figures 5-6);
  A_c = 25 is ~16x cheaper at a ~13 % TEIL penalty, appropriate early
  in a design.
* ``r_ratio`` — r, single-cell displacements per pairwise interchange;
  anything in 7-15 is within one percent of the best TEIL (Figure 3).
* ``rho`` — range-limiter shrink exponent; 4 minimizes both final TEIL
  and residual overlap (§3.2.2).
* ``eta`` — the overlap-penalty normalization target of Eqn 9;
  performance is flat for 0.25 <= eta <= 1.0.
* ``kappa`` — the pin-site overflow constant of Eqn 10 (kappa = 5).
* ``mu`` — stage-2 initial window as a fraction of the core span
  (mu = 0.03, §4.3).
* ``m_routes`` — M, alternative routes stored per net (§4.2.1, M ~ 20).
* ``refinement_passes`` — stage-2 iterations (three suffice, §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from .estimator import ModulationProfile

#: Allowed responses to incremental-cost drift past the tolerance.
DRIFT_ACTIONS = ("warn", "resync", "raise")

#: Displacement-point selectors (§3.2.3): the evenly-dispersed Ds or the
#: uniformly-random Dr baseline.
SELECTOR_DS = "ds"
SELECTOR_DR = "dr"

#: Stage-1 placement cores: the original object-graph inner loop or the
#: struct-of-arrays kernel (same decisions and costs on seeded replays).
CORES = ("object", "array")

#: Cooling schedules: the paper's Tables 1/2, or the VPR-style
#: acceptance-ratio-driven schedule (alpha and the displacement window
#: both follow the measured r_accept).
COOLING_SCHEDULES = ("table", "adaptive")

#: Move drivers of both anneals: "serial" steps one Metropolis move at a
#: time (bit-identical across cores); "batched" evaluates PARSAC-style
#: synchronous sweeps on the array kernel (same schedules and
#: accounting, a different — QoR-parity-gated — move stream).
MOVERS = ("serial", "batched")


@dataclass(frozen=True)
class ParallelConfig:
    """The parallel execution layer's knobs (``repro.parallel``).

    * ``workers`` — process-pool size.  1 (the default) keeps today's
      serial code path byte-identical: no processes are spawned for
      either the multi-chain anneal or the router fan-out.
    * ``chains`` — K, independent stage-1 annealing chains.  1 runs the
      classic single-chain stage 1; K > 1 runs K chains with periodic
      best-of-K exchange.  The result depends only on (seed, chains,
      exchange_period), never on ``workers``.
    * ``exchange_period`` — E, temperature decrements between
      synchronization points where chains are ranked by cost and the
      worst restart from a perturbed copy of the best state.
    """

    workers: int = 1
    chains: int = 1
    exchange_period: int = 10

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.chains < 1:
            raise ValueError("chains must be at least 1")
        if self.exchange_period < 1:
            raise ValueError("exchange_period must be at least 1")

    def to_dict(self) -> Dict:
        return {
            "workers": self.workers,
            "chains": self.chains,
            "exchange_period": self.exchange_period,
        }


@dataclass(frozen=True)
class TimberWolfConfig:
    """All tunables of the two-stage flow.  Defaults follow the paper."""

    seed: int = 0
    attempts_per_cell: int = 100
    r_ratio: float = 10.0
    rho: float = 4.0
    eta: float = 0.5
    kappa: float = 5.0
    mu: float = 0.03
    selector: str = SELECTOR_DS
    #: Stage-1 inner-loop implementation: "array" (struct-of-arrays
    #: kernel, the default) or "object" (the original object graph).
    #: Both replay identically move-for-move at the same seed.
    core: str = "array"
    #: "table" follows the paper's Tables 1/2; "adaptive" drives alpha
    #: and the displacement window from the measured acceptance ratio.
    cooling: str = "table"
    #: Move driver of the stage-1 anneal and of the stage-2 refine
    #: anneals: "serial" (one move per Metropolis step) or "batched"
    #: (synchronous sweeps on the array kernel; requires
    #: ``core="array"``).  The batched refine sweeps displacements only
    #: and runs the pin-group moves serially once per temperature.
    #: Batched runs resume bit-for-bit against themselves but are
    #: QoR-parity-gated against serial, not bit-identical to it.
    mover: str = "serial"
    #: Proposals evaluated per batched sweep, in both anneals (ignored
    #: by the serial mover).
    batch_moves: int = 48
    core_aspect_ratio: float = 1.0
    core_slack: float = 1.0
    #: Scales the estimator's Cw; 1.0 is the paper's flow, 0.0 disables
    #: the dynamic interconnect-area estimation entirely (ablation).
    estimator_scale: float = 1.0
    m_routes: int = 20
    refinement_passes: int = 3
    max_temperatures: int = 240
    refine_attempts_per_cell: int = 0  # 0 = same as attempts_per_cell
    profile: ModulationProfile = field(default_factory=ModulationProfile)
    #: Reconcile the running C1/C2/C3 totals (the serial kernels'
    #: incremental accumulators, or a batched session's totals) against a
    #: full recomputation every N temperature steps (0 disables the audit).
    drift_check_every: int = 0
    #: Largest tolerated relative drift before ``drift_action`` applies.
    drift_tolerance: float = 1e-6
    #: What to do past the tolerance: "warn", "resync", or "raise".
    drift_action: str = "warn"
    #: The parallel execution layer (multi-chain anneal + router
    #: fan-out); the default is fully serial.
    parallel: ParallelConfig = field(default_factory=ParallelConfig)

    def __post_init__(self) -> None:
        if self.attempts_per_cell < 1:
            raise ValueError("attempts_per_cell must be at least 1")
        if self.r_ratio <= 0:
            raise ValueError("r_ratio must be positive")
        if not 1.0 <= self.rho <= 10.0:
            raise ValueError("rho must lie in [1, 10]")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        if self.selector not in (SELECTOR_DS, SELECTOR_DR):
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.core not in CORES:
            raise ValueError(f"core must be one of {CORES}, got {self.core!r}")
        if self.cooling not in COOLING_SCHEDULES:
            raise ValueError(
                f"cooling must be one of {COOLING_SCHEDULES}, "
                f"got {self.cooling!r}"
            )
        if self.mover not in MOVERS:
            raise ValueError(
                f"mover must be one of {MOVERS}, got {self.mover!r}"
            )
        if self.mover == "batched" and self.core != "array":
            raise ValueError(
                "mover='batched' requires core='array': the batched "
                "sweep kernel runs on the struct-of-arrays core only "
                "(set core='array' or mover='serial')"
            )
        if self.batch_moves < 1:
            raise ValueError("batch_moves must be at least 1")
        if self.m_routes < 1:
            raise ValueError("m_routes must be at least 1")
        if self.refinement_passes < 0:
            raise ValueError("refinement_passes must be non-negative")
        if self.estimator_scale < 0:
            raise ValueError("estimator_scale must be non-negative")
        if self.drift_check_every < 0:
            raise ValueError("drift_check_every must be non-negative")
        if self.drift_tolerance <= 0:
            raise ValueError("drift_tolerance must be positive")
        if self.drift_action not in DRIFT_ACTIONS:
            raise ValueError(
                f"drift_action must be one of {DRIFT_ACTIONS}, "
                f"got {self.drift_action!r}"
            )

    @property
    def displacement_probability(self) -> float:
        """p with r = p / (1 - p): probability of a single-cell displacement
        rather than a pairwise interchange."""
        return self.r_ratio / (1.0 + self.r_ratio)

    @property
    def stage2_attempts_per_cell(self) -> int:
        return self.refine_attempts_per_cell or self.attempts_per_cell

    def with_seed(self, seed: int) -> "TimberWolfConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> Dict:
        """A plain-data form (checkpoint envelopes, JSON exports)."""
        data = {
            f.name: getattr(self, f.name)
            for f in self.__dataclass_fields__.values()
        }
        profile = data.pop("profile")
        data["profile"] = {
            "m_x": profile.m_x,
            "b_x": profile.b_x,
            "m_y": profile.m_y,
            "b_y": profile.b_y,
        }
        data["parallel"] = data.pop("parallel").to_dict()
        return data

    @staticmethod
    def from_dict(data: Dict) -> "TimberWolfConfig":
        """Inverse of :meth:`to_dict`.  Unknown keys are rejected so a
        checkpoint from an incompatible build fails loudly."""
        data = dict(data)
        profile = data.pop("profile", None)
        parallel = data.pop("parallel", None)
        known = set(TimberWolfConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if profile is not None:
            data["profile"] = ModulationProfile(**profile)
        if parallel is not None:
            data["parallel"] = ParallelConfig(**parallel)
        return TimberWolfConfig(**data)

    # -- presets -----------------------------------------------------------

    @staticmethod
    def smoke(seed: int = 0) -> "TimberWolfConfig":
        """Tiny settings for unit tests: seconds, not minutes.

        The full Table-1 ladder needs ~100+ temperature steps to cool the
        five decades from T-inf to the quench floor, so the temperature
        budget stays paper-sized while the inner loop shrinks.
        """
        return TimberWolfConfig(
            seed=seed,
            attempts_per_cell=4,
            max_temperatures=130,
            m_routes=4,
            refinement_passes=1,
        )

    @staticmethod
    def fast(seed: int = 0) -> "TimberWolfConfig":
        """The paper's 'early design stage' operating point (A_c ~ 25)."""
        return TimberWolfConfig(
            seed=seed,
            attempts_per_cell=25,
            max_temperatures=160,
            m_routes=8,
            refinement_passes=2,
        )

    @staticmethod
    def paper(seed: int = 0) -> "TimberWolfConfig":
        """The quality operating point (A_c = 400, M = 20, 3 passes)."""
        return TimberWolfConfig(
            seed=seed,
            attempts_per_cell=400,
            max_temperatures=240,
            m_routes=20,
            refinement_passes=3,
        )
