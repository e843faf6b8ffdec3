"""The batched analysis session: plan once, sweep once per group.

:class:`AnalysisSession` is the front door of the batch architecture.
Callers declare :class:`~repro.analysis.requests.MeasureRequest` objects
(``add``/``request``), then ``execute()`` plans them into groups that share
a (chain, uniformization rate, grid, epsilon) signature and dispatches each
group as a single uniformization sweep — a whole figure family of the paper
(five repair strategies × disasters × service levels) costs one sweep per
distinct transformed chain instead of one per curve.

A quick example — both Figure-4 curves of one strategy in one plan::

    session = AnalysisSession()
    for disaster in ("disaster1", "disaster2"):
        session.request(
            chain,
            times,
            kind=MeasureKind.REACHABILITY,
            target=recovered_states,
            initial_distributions=space.initial_distribution_for_disaster(disaster),
            tag=disaster,
        )
    results = session.execute()      # one sweep: both disasters share it
    print(session.stats.summary())

The session records what it did in :class:`SessionStats` (groups, sweeps,
matvec/flop counters, lumping compression), which the CLI prints and the
benchmarks gate on.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.ctmc.linsolve import LinearSolveStats
from repro.ctmc.uniformization import DEFAULT_EPSILON, UniformizationStats
from repro.analysis.executor import execute_plan
from repro.analysis.planner import ExecutionPlan, build_plan
from repro.analysis.requests import MeasureRequest, MeasureResult


@dataclass
class SessionStats:
    """Work counters aggregated over one or more ``execute()`` calls.

    ``matvecs``/``applies``/``sparse_flops``/``sweeps`` follow the engine's
    conventions (see
    :class:`repro.ctmc.uniformization.UniformizationStats`); the lumping
    counters record how many groups ran on a quotient chain and how much
    state space that removed.  ``factorizations``/``linear_solves``/
    ``solved_columns`` mirror the long-run solver engine
    (:class:`repro.ctmc.linsolve.LinearSolveStats`): LU factorizations
    actually built (warm cache hits do not count), triangular solve calls
    and the right-hand-side columns they carried.  ``equivalent_nnz`` and
    the ``*_seconds`` timers are the backend-invariant work and wall-clock
    accounting introduced with the pluggable engine layer
    (:mod:`repro.ctmc.engines`); ``dense_factorizations`` counts how many
    of the LU builds took the dense LAPACK path.  ``stationary_solves`` and
    ``stationary_seconds`` count the BSCC stationary vectors solved and
    their wall-clock time (the long-run layer of availability tables).
    """

    requests: int = 0
    groups: int = 0
    sweeps: int = 0
    matvecs: int = 0
    applies: int = 0
    sparse_flops: int = 0
    equivalent_nnz: int = 0
    sweep_seconds: float = 0.0
    factorizations: int = 0
    dense_factorizations: int = 0
    linear_solves: int = 0
    solved_columns: int = 0
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0
    stationary_solves: int = 0
    stationary_seconds: float = 0.0
    lumped_groups: int = 0
    lumped_states_before: int = 0
    lumped_states_after: int = 0
    lump_failures: int = 0

    def absorb_engine(self, engine: UniformizationStats) -> None:
        self.sweeps += engine.sweeps
        self.matvecs += engine.matvecs
        self.applies += engine.applies
        self.sparse_flops += engine.sparse_flops
        self.equivalent_nnz += engine.equivalent_nnz
        self.sweep_seconds += engine.sweep_seconds

    def absorb_linear(self, linear: LinearSolveStats) -> None:
        self.factorizations += linear.factorizations
        self.dense_factorizations += linear.dense_factorizations
        self.linear_solves += linear.solves
        self.solved_columns += linear.columns
        self.factor_seconds += linear.factor_seconds
        self.solve_seconds += linear.solve_seconds
        self.stationary_solves += linear.stationary_solves
        self.stationary_seconds += linear.stationary_seconds

    def absorb(self, other: "SessionStats") -> None:
        """Accumulate another stats object field-by-field.

        Used by the sharded scenario service to merge per-shard session
        counters into one aggregate for ``/metrics``.
        """
        self.requests += other.requests
        self.groups += other.groups
        self.sweeps += other.sweeps
        self.matvecs += other.matvecs
        self.applies += other.applies
        self.sparse_flops += other.sparse_flops
        self.equivalent_nnz += other.equivalent_nnz
        self.sweep_seconds += other.sweep_seconds
        self.factorizations += other.factorizations
        self.dense_factorizations += other.dense_factorizations
        self.linear_solves += other.linear_solves
        self.solved_columns += other.solved_columns
        self.factor_seconds += other.factor_seconds
        self.solve_seconds += other.solve_seconds
        self.stationary_solves += other.stationary_solves
        self.stationary_seconds += other.stationary_seconds
        self.lumped_groups += other.lumped_groups
        self.lumped_states_before += other.lumped_states_before
        self.lumped_states_after += other.lumped_states_after
        self.lump_failures += other.lump_failures

    def absorb_plan(self, plan: ExecutionPlan) -> None:
        """Account for an executed plan's requests, groups and lumping.

        The single bookkeeping site shared by :meth:`AnalysisSession.execute`
        and the scenario service's flush, so the two never drift.
        """
        self.requests += plan.num_requests
        self.groups += plan.num_groups
        self.lump_failures += plan.lump_failures
        for group in plan.groups:
            if group.lumped is not None:
                self.lumped_groups += 1
                self.lumped_states_before += group.chain.num_states
                self.lumped_states_after += group.lumped.num_blocks

    def summary(self) -> str:
        """One line for CLI output and logs."""
        parts = [
            f"requests={self.requests}",
            f"groups={self.groups}",
            f"sweeps={self.sweeps}",
            f"matvecs={self.matvecs}",
            f"applies={self.applies}",
            f"sparse_flops={self.sparse_flops}",
        ]
        if self.equivalent_nnz:
            parts.append(f"equivalent_nnz={self.equivalent_nnz}")
        if self.sweep_seconds:
            parts.append(f"sweep_seconds={self.sweep_seconds:.3f}")
        if self.linear_solves or self.factorizations:
            parts.append(
                f"factorizations={self.factorizations}"
                f" linear_solves={self.linear_solves}"
                f" solved_columns={self.solved_columns}"
            )
        if self.dense_factorizations:
            parts.append(f"dense_factorizations={self.dense_factorizations}")
        if self.stationary_solves:
            parts.append(
                f"stationary_solves={self.stationary_solves}"
                f" stationary_seconds={self.stationary_seconds:.3f}"
            )
        if self.lumped_groups:
            parts.append(
                f"lumped {self.lumped_groups} groups "
                f"({self.lumped_states_before}->{self.lumped_states_after} states)"
            )
        if self.lump_failures:
            parts.append(f"lump_failures={self.lump_failures}")
        return "session: " + " ".join(parts)


class AnalysisSession:
    """Collect measure requests, plan shared sweeps, execute them.

    Parameters
    ----------
    lump:
        Run ordinary lumpability on each group's operating chain before
        sweeping or solving (the quotient preserves every requested
        measure; see :func:`repro.analysis.planner._lump_group`).  Covers
        regular bounded reachability, interval-until bundles (separate
        backward/forward quotients) and long-run groups; per-state
        distribution requests stay unlumped.  A failed quotient build
        degrades the group to its full chain: the *first* failure warns and
        increments ``SessionStats.lump_failures``, while warm repeats hit
        the cached tombstone and skip the refinement silently — the failure
        is counted once per cold build, not once per plan.
    batched:
        With ``False``, every request is planned into its own group — the
        per-curve behaviour of the legacy API, kept for comparison runs.
    epsilon:
        Default Poisson-truncation error for requests that do not set one.
    stats:
        Optional shared :class:`SessionStats`; several sessions (e.g. all
        experiments of one CLI invocation) may accumulate into one object.
    artifacts:
        Optional :class:`repro.service.ArtifactCache`: absorbing transforms,
        lumping quotients, uniformized operators and Fox–Glynn windows are
        then looked up process-wide (keyed by chain fingerprint) instead of
        being rebuilt per session.  The scenario service passes its cache
        here; standalone sessions default to no cross-session caching.
    engine:
        Default numeric backend for requests that do not set one — one of
        :data:`repro.ctmc.engines.ENGINE_MODES`.  ``None`` falls back to
        the process-wide default (``"auto"`` unless the CLI overrode it).
    dtype:
        Default sweep lane (``"float64"``/``"float32"``) for requests that
        do not set one; ``None`` falls back to the process-wide default.
    """

    def __init__(
        self,
        *,
        lump: bool = False,
        batched: bool = True,
        epsilon: float = DEFAULT_EPSILON,
        stats: SessionStats | None = None,
        artifacts=None,
        engine: str | None = None,
        dtype=None,
    ) -> None:
        self.lump = lump
        self.batched = batched
        self.default_epsilon = float(epsilon)
        self.stats = stats if stats is not None else SessionStats()
        self.artifacts = artifacts
        self.engine = engine
        self.dtype = dtype
        self._requests: list[MeasureRequest] = []

    # ------------------------------------------------------------------
    def add(self, request: MeasureRequest) -> int:
        """Register a request; returns its index into ``execute()``'s result list."""
        self._requests.append(request)
        return len(self._requests) - 1

    def extend(self, requests: Iterable[MeasureRequest]) -> list[int]:
        """Register several requests at once."""
        return [self.add(request) for request in requests]

    def request(self, chain, times, **fields) -> int:
        """Build a :class:`MeasureRequest` from keyword fields and register it."""
        return self.add(MeasureRequest(chain=chain, times=times, **fields))

    def __len__(self) -> int:
        return len(self._requests)

    @property
    def requests(self) -> tuple[MeasureRequest, ...]:
        return tuple(self._requests)

    # ------------------------------------------------------------------
    def plan(self) -> ExecutionPlan:
        """Group the registered requests without executing them."""
        return build_plan(
            self._requests,
            lump=self.lump,
            batched=self.batched,
            default_epsilon=self.default_epsilon,
            artifacts=self.artifacts,
            default_engine=self.engine,
            default_dtype=self.dtype,
        )

    def execute(self) -> list[MeasureResult]:
        """Plan and run all registered requests; results in registration order."""
        plan = self.plan()
        engine = UniformizationStats()
        linear = LinearSolveStats()
        results = execute_plan(
            plan, engine_stats=engine, artifacts=self.artifacts, linear_stats=linear
        )
        self.stats.absorb_plan(plan)
        self.stats.absorb_engine(engine)
        self.stats.absorb_linear(linear)
        return results
