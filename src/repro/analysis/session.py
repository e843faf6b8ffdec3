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

The session records what it did in :class:`repro.counters.SessionStats`
(groups, sweeps, matvec/flop counters, factorizations, lumping
compression): the sweeps and linear solves of ``execute()`` write the
session's ``stats`` directly.  The CLI prints it and the benchmarks gate on
it.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.counters import SessionStats
from repro.ctmc.engines import normalise_engine_mode
from repro.ctmc.uniformization import DEFAULT_EPSILON
from repro.analysis.executor import execute_plan
from repro.analysis.planner import ExecutionPlan, build_plan
from repro.analysis.requests import MeasureRequest, MeasureResult


class AnalysisSession:
    """Collect measure requests, plan shared sweeps, execute them.

    Parameters
    ----------
    lump:
        Run ordinary lumpability on each sweep group's operating chain
        before sweeping (the quotient preserves every requested measure;
        see :func:`repro.analysis.planner._lump_group`).  Covers regular
        bounded reachability and reward curves and interval-until bundles
        (separate backward/forward quotients); long-run groups and
        per-state distribution requests stay unlumped.  A failed quotient build
        degrades the group to its full chain: the *first* failure warns and
        increments ``SessionStats.lump_failures``, while warm repeats hit
        the cached tombstone and skip the refinement silently — the failure
        is counted once per cold build, not once per plan.
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
        :data:`repro.ctmc.engines.ENGINE_MODES` (``None`` means ``"auto"``).
    """

    def __init__(
        self,
        *,
        lump: bool = False,
        epsilon: float = DEFAULT_EPSILON,
        stats: SessionStats | None = None,
        artifacts=None,
        engine: str | None = None,
    ) -> None:
        self.lump = lump
        self.default_epsilon = float(epsilon)
        self.stats = stats if stats is not None else SessionStats()
        self.artifacts = artifacts
        self.engine = None if engine is None else normalise_engine_mode(engine)
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
            default_epsilon=self.default_epsilon,
            artifacts=self.artifacts,
            default_engine=self.engine,
        )

    def execute(self) -> list[MeasureResult]:
        """Plan and run all registered requests; results in registration order."""
        plan = self.plan()
        results = execute_plan(plan, stats=self.stats, artifacts=self.artifacts)
        self.stats.absorb_plan(plan)
        return results
