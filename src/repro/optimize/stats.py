"""Work counters for the repair-policy optimizers.

:class:`OptimizerStats` is a :class:`repro.counters.Counters` dataclass
(``absorb``, ``summary()`` and its Prometheus series are derived from the
fields) that plays the role :class:`repro.counters.SessionStats` plays for
sweeps: every policy-iteration and rollout run records how many
exact policy evaluations it paid for, how many one-step action deviations it
scored, and how many uniformization sweeps those deviations actually cost
after coalescing (the rollout submits all candidates of a round as one
identity-block request, so ``K`` candidates ride ~1 shared sweep instead of
``K``).  The difference is :attr:`OptimizerStats.sweeps_saved` — the number
the benchmark gates on.

Each optimizer run that is not handed a stats object counts into a fresh
one; ``python -m repro optimize --metrics`` prints its own run's counters
as ``repro_optimizer_*`` series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters import Counters, exported_as


@dataclass
class OptimizerStats(Counters):
    """Counters for one (or many aggregated) optimizer runs.

    Attributes
    ----------
    policy_improvements:
        Greedy improvement rounds performed by policy iteration.
    rollout_iterations:
        Evaluate/score rounds performed by the rollout optimizer.
    policy_evaluations:
        Exact evaluations of a concrete policy: gain/bias solves (policy
        iteration) or identity-block value sweeps (rollout).
    baseline_evaluations:
        Fixed-strategy policies evaluated as comparison baselines.
    candidate_actions:
        One-step action deviations scored via Q-values.  Each would cost a
        full policy evaluation if submitted naively.
    coalesced_sweeps:
        Uniformization sweeps actually spent scoring those candidates (the
        rollout's per-round identity-block sweeps).
    cache_hits:
        Induced chains and evaluations served from the optimizer-level
        memo instead of being rebuilt (artifact-cache hits underneath are
        counted by :class:`repro.service.CacheStats` as usual); exported
        as ``repro_optimizer_memo_hits_total``.
    """

    policy_improvements: int = 0
    rollout_iterations: int = 0
    policy_evaluations: int = 0
    baseline_evaluations: int = 0
    candidate_actions: int = 0
    coalesced_sweeps: int = 0
    cache_hits: int = exported_as("memo_hits")

    derived = {"sweeps_saved": "counter"}

    @property
    def sweeps_saved(self) -> int:
        """Sweeps avoided by scoring candidates off shared value blocks."""
        return max(0, self.candidate_actions - self.coalesced_sweeps)

