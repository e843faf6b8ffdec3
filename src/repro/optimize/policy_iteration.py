"""Exact average-cost policy iteration on the repair CTMDP.

Long-run objectives (steady-state unavailability, expected cost rate) are
optimized by classic unichain policy iteration:

* **Policy evaluation** solves the gain/bias equations of the induced chain
  in one stacked-RHS linear solve: with generator ``Q`` and a reference
  state ``ref`` inside the (unique) bottom SCC, the system ``A y = -C``
  where ``A`` is ``Q`` with column ``ref`` replaced by ``-1`` yields, per
  cost column ``c``, the gain ``g = y[ref]`` and bias ``h = y`` (with
  ``h[ref] := 0``).  The factorization is cached through the same
  :class:`~repro.ctmc.linsolve.SolverEngine` /
  :class:`~repro.service.ArtifactCache` path as every other long-run
  measure — keyed by chain fingerprint, so re-optimizing warm recomputes
  nothing — and all objectives ride one LU as stacked columns.
* **Policy improvement** scores every admissible action of every state via
  :meth:`~repro.optimize.ctmdp.RepairCTMDP.action_q_values` (vectorized
  bincounts over the flat action arrays) and keeps the current action on
  near-ties, which makes the iteration terminate finitely.

The induced chains stay unichain because every admissible action is weakly
work-conserving (see :mod:`repro.optimize.ctmdp`); a multichain policy is
reported as :class:`~repro.optimize.ctmdp.OptimizeError` rather than a
wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.ctmc import CTMC
from repro.ctmc.linsolve import SolverEngine
from repro.ctmc.steady_state import bscc_decomposition
from repro.optimize.ctmdp import OptimizeError, RepairCTMDP, RepairPolicy
from repro.optimize.stats import OptimizerStats

#: Long-run objectives policy iteration can optimize.  ``unavailability``
#: is the paper's Table 2 measure (1 - steady-state availability);
#: ``cost_rate`` is the long-run expected cost per hour, crew costs
#: included.
LONGRUN_OBJECTIVES = ("unavailability", "cost_rate")


@dataclass
class PolicyEvaluation:
    """Exact long-run averages (and biases) of one policy."""

    policy: RepairPolicy
    gains: dict[str, float]
    bias: dict[str, np.ndarray]


@dataclass
class PolicyIterationResult:
    """Outcome of :func:`policy_iteration`."""

    policy: RepairPolicy
    objective: str
    gain: float
    gains: dict[str, float]
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Convenience: ``1 - unavailability`` when that objective was solved."""
        return 1.0 - self.gains["unavailability"]


def _objective_costs(ctmdp: RepairCTMDP, objective: str) -> np.ndarray:
    """The per-flat-action cost rates of a long-run objective."""
    if objective == "unavailability":
        return ctmdp.down[ctmdp.action_state].astype(float)
    if objective == "cost_rate":
        return ctmdp.action_cost
    raise OptimizeError(
        f"unknown long-run objective {objective!r}; expected one of {LONGRUN_OBJECTIVES}"
    )


def _gain_bias_system(chain: CTMC, ref: int) -> sparse.spmatrix:
    """Generator with column ``ref`` replaced by ``-1`` (see module docstring)."""
    coo = chain.generator_matrix().tocoo()
    keep = coo.col != ref
    n = chain.num_states
    rows = np.concatenate([coo.row[keep], np.arange(n)])
    cols = np.concatenate([coo.col[keep], np.full(n, ref)])
    data = np.concatenate([coo.data[keep], np.full(n, -1.0)])
    return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def evaluate_policy(
    ctmdp: RepairCTMDP,
    policy: RepairPolicy,
    *,
    engine: SolverEngine,
    objectives: tuple[str, ...] = LONGRUN_OBJECTIVES,
    stats: OptimizerStats | None = None,
) -> PolicyEvaluation:
    """Gain and bias of ``policy`` for every objective, one stacked solve."""
    stats = stats if stats is not None else OptimizerStats()
    if ctmdp.chain_is_cached(policy):
        stats.cache_hits += 1
    chain = ctmdp.induced_chain(policy)
    bsccs = bscc_decomposition(chain, engine)
    if len(bsccs) != 1:
        raise OptimizeError(
            f"policy {policy.name!r} induces {len(bsccs)} bottom SCCs; "
            "average-cost evaluation needs a unichain policy"
        )
    ref = int(np.min(bsccs[0]))
    factorization = engine.factorization(
        chain,
        b"ctmdp-gain|" + int(ref).to_bytes(8, "little"),
        lambda: _gain_bias_system(chain, ref),
    )
    state_actions = np.asarray(policy.actions, dtype=np.int64)
    rhs = np.column_stack(
        [-_objective_costs(ctmdp, name)[state_actions] for name in objectives]
    )
    solution = engine.solve(factorization, rhs)
    gains: dict[str, float] = {}
    bias: dict[str, np.ndarray] = {}
    for column, name in enumerate(objectives):
        y = solution[:, column].copy()
        gains[name] = float(y[ref])
        y[ref] = 0.0
        bias[name] = y
    stats.policy_evaluations += 1
    return PolicyEvaluation(policy=policy, gains=gains, bias=bias)


def policy_iteration(
    ctmdp: RepairCTMDP,
    *,
    objective: str = "unavailability",
    initial: RepairPolicy | None = None,
    engine: SolverEngine | None = None,
    max_iterations: int = 50,
    tolerance: float = 1e-10,
    stats: OptimizerStats | None = None,
) -> PolicyIterationResult:
    """Optimize a long-run objective by exact policy iteration.

    Starts from ``initial`` (default: the first admissible action per
    state), alternates stacked-RHS evaluation and vectorized greedy
    improvement, and stops at the first improvement round that changes no
    state.  Gains are monotonically non-increasing, so the returned policy
    is at least as good as the initial one; with the keep-current tie-break
    the iteration is finite and the fixed point satisfies the average-cost
    optimality equations to ``tolerance``.
    """
    if objective not in LONGRUN_OBJECTIVES:
        raise OptimizeError(
            f"unknown long-run objective {objective!r}; expected one of {LONGRUN_OBJECTIVES}"
        )
    stats = stats if stats is not None else OptimizerStats()
    engine = engine if engine is not None else SolverEngine()
    if initial is None:
        initial = RepairPolicy(
            name="first-action",
            actions=tuple(int(index) for index in ctmdp.action_offsets[:-1]),
        )
    ctmdp.validate_policy(initial)
    costs = _objective_costs(ctmdp, objective)
    policy = initial
    history: list[float] = []
    evaluation = evaluate_policy(ctmdp, policy, engine=engine, stats=stats)
    converged = False
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        history.append(evaluation.gains[objective])
        improved, changed = ctmdp.greedy_policy(
            evaluation.bias[objective],
            costs=costs,
            current=policy.actions,
            tolerance=tolerance,
            name=f"pi-{objective}-{iteration}",
        )
        stats.policy_improvements += 1
        if changed == 0:
            converged = True
            break
        policy = improved
        evaluation = evaluate_policy(ctmdp, policy, engine=engine, stats=stats)
    return PolicyIterationResult(
        policy=policy,
        objective=objective,
        gain=evaluation.gains[objective],
        gains=dict(evaluation.gains),
        iterations=iterations,
        converged=converged,
        history=history,
    )
