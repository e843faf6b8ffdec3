"""Continuous-time Markov chain (CTMC) substrate.

This package provides the numerical engine that plays the role PRISM's CTMC
engine plays in the paper:

* :class:`~repro.ctmc.ctmc.CTMC` — a labelled CTMC with a sparse generator
  matrix, atomic-proposition labelling and an initial distribution.
* :class:`~repro.ctmc.ctmc.MarkovRewardModel` — a CTMC plus state/transition
  reward structures (the model class of CSRL).
* :mod:`~repro.ctmc.uniformization` — the single-pass uniformization engine:
  one vector-power sweep per (chain, initial distribution) serves a whole
  time grid of transient, reachability and reward measures.
* :mod:`~repro.ctmc.transient` — transient analysis by uniformization
  (Fox–Glynn Poisson weights) and time-bounded reachability.
* :mod:`~repro.ctmc.steady_state` — steady-state/long-run analysis with BSCC
  decomposition, direct sparse solves and iterative fallbacks.
* :mod:`~repro.ctmc.linsolve` — the cached sparse linear-solver engine: one
  LU factorization per (chain fingerprint, state-subset signature), solved
  against arbitrarily many stacked right-hand-side columns; the warm path
  of every long-run measure.
* :mod:`~repro.ctmc.rewards` — instantaneous, cumulative and long-run reward
  measures (the backend of ``R=?[I=t]``, ``R=?[C<=t]`` and ``R=?[S]``).
* :mod:`~repro.ctmc.lumping` — ordinary lumpability (strong bisimulation)
  partition refinement and quotient construction.
* :mod:`~repro.ctmc.dtmc` — embedded/uniformized DTMC helpers and
  unbounded-reachability solvers.
"""

from repro.ctmc.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.foxglynn import FoxGlynnWeights, fox_glynn
from repro.ctmc.uniformization import (
    ENGINE_STATS,
    GridResult,
    UniformizationStats,
    evaluate_grid,
)
from repro.ctmc.transient import (
    time_bounded_reachability,
    transient_distribution,
    transient_distributions,
)
from repro.ctmc.linsolve import (
    Factorization,
    LinearSolveStats,
    SolverEngine,
    subset_signature,
)
from repro.ctmc.steady_state import (
    ConvergenceError,
    bottom_strongly_connected_components,
    bscc_decomposition,
    steady_state_distribution,
    steady_state_distribution_block,
    steady_state_probability,
    steady_state_values_per_state,
)
from repro.ctmc.rewards import (
    cumulative_reward,
    instantaneous_reward,
    steady_state_reward,
)
from repro.ctmc.lumping import lump_ctmc, lumping_partition
from repro.ctmc.dtmc import DTMC, embedded_dtmc, uniformized_dtmc

__all__ = [
    "CTMC",
    "ConvergenceError",
    "DTMC",
    "ENGINE_STATS",
    "Factorization",
    "FoxGlynnWeights",
    "GridResult",
    "LinearSolveStats",
    "MarkovRewardModel",
    "RewardStructure",
    "SolverEngine",
    "UniformizationStats",
    "bottom_strongly_connected_components",
    "bscc_decomposition",
    "cumulative_reward",
    "embedded_dtmc",
    "evaluate_grid",
    "fox_glynn",
    "instantaneous_reward",
    "lump_ctmc",
    "lumping_partition",
    "steady_state_distribution",
    "steady_state_distribution_block",
    "steady_state_probability",
    "steady_state_reward",
    "steady_state_values_per_state",
    "subset_signature",
    "time_bounded_reachability",
    "transient_distribution",
    "transient_distributions",
    "uniformized_dtmc",
]
