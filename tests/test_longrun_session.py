"""Tests for long-run measures on the batched/warm path.

Covers the acceptance criteria of the cached-linear-solver PR: stacked
``R=?[F phi]`` queries share one factorization, the Table 2 availability
portfolio repeated through the scenario service reports zero
factorization/BSCC cache misses on the second pass, batched ``S=?`` /
``R=?[F]`` values agree with the retained per-call references to <= 1e-12,
and the service observability layer (flush-latency histogram, /metrics
dumps) reports what happened.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools

import numpy as np
import pytest

from repro.analysis import AnalysisSession, MeasureKind, MeasureRequest, SessionStats
from repro.casestudy.experiments import line_state_space, table2_availability
from repro.casestudy.facility import LINE1, LINE2, PAPER_STRATEGIES
from repro.csl import ModelChecker
from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.dtmc import unbounded_reachability
from repro.counters import prometheus_text
from repro.ctmc.linsolve import (
    SolverEngine,
    reachability_reward_reference,
)
from repro.ctmc.steady_state import (
    STATIONARY_TOLERANCE,
    stationary_residual,
    steady_state_distribution,
)
from repro.measures import (
    steady_state_availability,
    steady_state_availability_request,
)
from repro.service import (
    ArtifactCache,
    CacheKindStats,
    CacheStats,
    LatencyHistogram,
    ScenarioService,
    ServiceStats,
    ShardedServiceStats,
    paper_registry,
)
from repro.optimize import OptimizerStats


def cycle_chain(num_states: int = 5) -> CTMC:
    rates = np.zeros((num_states, num_states))
    for state in range(num_states):
        rates[state, (state + 1) % num_states] = 1.0 + 0.5 * state
    rates[0, num_states - 1] = 0.25
    return CTMC(
        rates,
        {0: 1.0},
        labels={"goal": [num_states - 1], "start": [0]},
    )


# ---------------------------------------------------------------------------
# planner grouping and validation
# ---------------------------------------------------------------------------
class TestLongrunPlanning:
    def test_stacked_reachability_rewards_cost_one_factorization(self):
        chain = cycle_chain()
        rng = np.random.default_rng(0)
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        columns = [rng.random(chain.num_states) for _ in range(6)]
        indices = [
            session.request(
                chain,
                (),
                kind=MeasureKind.REACHABILITY_REWARD,
                target="goal",
                rewards=column,
            )
            for column in columns
        ]
        results = session.execute()
        assert stats.groups == 1
        # The irreducible chain needs no reachability solve, so the six
        # stacked reward columns share exactly one LU factorization.
        assert stats.factorizations == 1
        assert stats.solved_columns == 6
        assert stats.sweeps == 0  # long-run kinds never sweep
        for index, column in zip(indices, columns):
            reference = reachability_reward_reference(
                chain, column, chain.label_mask("goal")
            )
            assert float(results[index].squeezed[0]) == pytest.approx(
                reference, rel=1e-12, abs=1e-12
            )

    def test_steady_state_targets_and_rewards_share_one_group(self):
        chain = cycle_chain()
        stats = SessionStats()
        session = AnalysisSession(stats=stats)
        session.request(chain, (), kind=MeasureKind.STEADY_STATE, target="goal")
        session.request(
            chain,
            (),
            kind=MeasureKind.STEADY_STATE,
            rewards=np.arange(chain.num_states, dtype=float),
        )
        session.execute()
        assert stats.groups == 1

    def test_unbounded_groups_split_by_target_and_safe(self):
        chain = cycle_chain()
        session = AnalysisSession()
        session.request(
            chain, (), kind=MeasureKind.UNBOUNDED_REACHABILITY, target="goal"
        )
        session.request(
            chain,
            (),
            kind=MeasureKind.UNBOUNDED_REACHABILITY,
            target="goal",
            safe="start",
        )
        plan = session.plan()
        assert plan.num_groups == 2
        assert all(group.longrun for group in plan.groups)

    def test_longrun_requests_reject_time_grids_and_bad_observables(self):
        chain = cycle_chain()
        session = AnalysisSession()
        session.request(chain, [1.0], kind=MeasureKind.STEADY_STATE, target="goal")
        with pytest.raises(CTMCError, match="no time grid"):
            session.execute()
        both = AnalysisSession()
        both.request(
            chain,
            (),
            kind=MeasureKind.STEADY_STATE,
            target="goal",
            rewards=np.ones(chain.num_states),
        )
        with pytest.raises(CTMCError, match="exactly one"):
            both.execute()
        neither = AnalysisSession()
        neither.request(chain, (), kind=MeasureKind.STEADY_STATE)
        with pytest.raises(CTMCError, match="exactly one"):
            neither.execute()
        safe = AnalysisSession()
        safe.request(
            chain,
            (),
            kind=MeasureKind.REACHABILITY_REWARD,
            target="goal",
            rewards=np.ones(chain.num_states),
            safe="start",
        )
        with pytest.raises(CTMCError, match="no safe set"):
            safe.execute()

    def test_initial_distribution_blocks_batch_through_longrun_kinds(self):
        chain = cycle_chain()
        block = np.eye(chain.num_states)[:3]
        session = AnalysisSession()
        index = session.request(
            chain,
            (),
            kind=MeasureKind.UNBOUNDED_REACHABILITY,
            target="goal",
            initial_distributions=block,
        )
        result = session.execute()[index]
        per_state = unbounded_reachability(chain, "goal")
        assert result.values.shape == (3, 1)
        assert result.values[:, 0] == pytest.approx(per_state[:3], abs=1e-12)


# ---------------------------------------------------------------------------
# CSL checker on the session path
# ---------------------------------------------------------------------------
class TestCheckerLongrunPath:
    def test_steady_state_query_matches_distribution_reference(self):
        chain = cycle_chain()
        checker = ModelChecker(chain)
        reference = steady_state_distribution(chain)
        assert checker.check('S=? [ "goal" ]') == pytest.approx(
            float(reference[chain.label_mask("goal")].sum()), abs=1e-12
        )

    def test_until_and_reward_queries_match_references(self):
        chain = cycle_chain()
        rewards = RewardStructure("cost", np.linspace(1.0, 2.0, chain.num_states))
        model = MarkovRewardModel(chain, rewards)
        checker = ModelChecker(model)
        reach_reference = float(
            chain.initial_distribution @ unbounded_reachability(chain, "goal")
        )
        assert checker.check('P=? [ true U "goal" ]') == pytest.approx(
            reach_reference, abs=1e-12
        )
        reward_reference = reachability_reward_reference(
            chain, rewards.state_rewards, chain.label_mask("goal")
        )
        assert checker.check('R=? [ F "goal" ]') == pytest.approx(
            reward_reference, rel=1e-12
        )
        steady_reference = float(
            steady_state_distribution(chain) @ rewards.state_rewards
        )
        assert checker.check("R=? [ S ]") == pytest.approx(steady_reference, abs=1e-12)

    def test_checker_with_artifacts_reuses_factorizations(self):
        chain = cycle_chain(7)
        cache = ArtifactCache()
        checker = ModelChecker(chain, artifacts=cache)
        first = checker.check('S=? [ "goal" ]')
        before = cache.stats()
        assert checker.check('S=? [ "goal" ]') == first
        deltas = cache.stats().misses_since(before)
        assert deltas.get("bscc", 0) == 0
        assert deltas.get("stationary", 0) == 0

    def test_per_state_steady_state_uses_block_solver(self, absorbing_chain):
        checker = ModelChecker(absorbing_chain)
        values = checker.check_states('S=? [ "failed" ]')
        # Every state eventually deadlocks in the absorbing failure state.
        assert values == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)


# ---------------------------------------------------------------------------
# the warm path: Table 2 through the scenario service
# ---------------------------------------------------------------------------
def table2_portfolio(configurations) -> list[MeasureRequest]:
    return [
        steady_state_availability_request(
            line_state_space(line, configuration),
            tag=("table2", line, configuration.label),
        )
        for line in (LINE1, LINE2)
        for configuration in configurations
    ]


class TestWarmAvailabilityPortfolio:
    def test_repeat_portfolio_incurs_zero_longrun_cache_misses(self):
        configurations = PAPER_STRATEGIES[:2]
        cache = ArtifactCache()

        def sweep():
            async def run():
                async with ScenarioService(artifacts=cache) as service:
                    results = await service.submit_many(
                        table2_portfolio(configurations)
                    )
                    return [float(result.squeezed[0]) for result in results]

            return asyncio.run(run())

        cold = sweep()
        before = cache.stats()
        warm = sweep()
        deltas = cache.stats().misses_since(before)
        assert warm == cold  # identical artifacts -> identical values
        assert deltas.get("factorization", 0) == 0
        assert deltas.get("bscc", 0) == 0
        assert deltas.get("stationary", 0) == 0
        # The cross-check against the retained per-call reference.
        for value, request in zip(cold, table2_portfolio(configurations)):
            _, line, label = request.tag
            configuration = next(
                c for c in configurations if c.label == label
            )
            reference = float(
                steady_state_distribution(
                    line_state_space(line, configuration).chain
                )[request.chain.label_mask("operational")].sum()
            )
            assert value == pytest.approx(reference, abs=1e-12)

    def test_table2_session_matches_per_call_availability(self):
        configurations = PAPER_STRATEGIES[:2]
        stats = SessionStats()
        table = table2_availability(configurations, stats=stats)
        assert stats.requests == 2 * len(configurations)
        assert stats.sweeps == 0
        for configuration in configurations:
            row = table.row_by("strategy", configuration.label)
            reference = steady_state_availability(
                line_state_space(LINE1, configuration)
            )
            assert row[1] == pytest.approx(reference, abs=1e-12)

    def test_table2_session_builds_no_factorizations(self):
        cache = ArtifactCache()
        stats = SessionStats()
        table2_availability(stats=stats, artifacts=cache)
        assert stats.requests == 2 * len(PAPER_STRATEGIES)
        assert stats.factorizations == 0
        assert stats.stationary_solves == 2 * len(PAPER_STRATEGIES)
        # The session's own stationary vectors, read back from the cache.
        engine = SolverEngine(artifacts=cache)
        for line in (LINE1, LINE2):
            for configuration in PAPER_STRATEGIES:
                chain = line_state_space(line, configuration).chain
                distribution = steady_state_distribution(chain, engine=engine)
                residual = stationary_residual(chain.generator_matrix(), distribution)
                assert residual <= STATIONARY_TOLERANCE == 1e-14
        assert engine.stats.stationary_solves == 0

    def test_registry_exposes_the_table2_scenario(self):
        registry = paper_registry()
        assert "table2" in registry
        requests = registry.expand("table2")
        assert len(requests) == 2 * len(PAPER_STRATEGIES)
        assert all(
            request.kind is MeasureKind.STEADY_STATE for request in requests
        )
        lines = {request.tag[1] for request in requests}
        assert lines == {LINE1, LINE2}


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
class TestObservability:
    def test_latency_histogram_buckets_and_quantiles(self):
        histogram = LatencyHistogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 2.0):
            histogram.observe(value)
        assert histogram.observations == 5
        assert histogram.counts == [1, 2, 1, 1]
        assert histogram.max_seconds == 2.0
        assert histogram.quantile_bound(0.5) == 0.1
        assert histogram.quantile_bound(0.95) == float("inf")
        lines = histogram.metric_lines("latency_seconds")
        assert 'latency_seconds_bucket{le="0.1"} 3' in lines
        assert 'latency_seconds_bucket{le="+Inf"} 5' in lines
        assert "latency_seconds_count 5" in lines

    def test_empty_histogram_summary_and_nan_quantile(self):
        histogram = LatencyHistogram()
        assert "no flushes" in histogram.summary()
        assert np.isnan(histogram.quantile_bound(0.5))

    def test_service_flushes_populate_the_latency_histogram(self):
        chain = cycle_chain()

        async def run():
            async with ScenarioService(artifacts=ArtifactCache()) as service:
                await service.submit(
                    MeasureRequest(
                        chain=chain, times=(), kind=MeasureKind.STEADY_STATE,
                        target="goal",
                    )
                )
                return service.stats

        stats = asyncio.run(run())
        assert stats.flush_latency.observations == stats.flushes == 1
        assert stats.flush_latency.total_seconds > 0.0
        assert "flush_latency" in stats.summary()

    def test_metrics_dumps_expose_counters(self):
        stats = ServiceStats()
        stats.submissions = 3
        stats.session.factorizations = 2
        stats.flush_latency.observe(0.02)
        text = prometheus_text([("repro_service", stats)])
        assert "repro_service_submissions_total 3" in text
        assert "repro_service_factorizations_total 2" in text
        assert "repro_service_flush_latency_seconds_count 1" in text
        stats.session.absorb(SessionStats(stationary_solves=2, stationary_seconds=0.25))
        merged = ServiceStats()
        merged.absorb(stats)
        text = prometheus_text([("repro_service", merged)])
        assert "repro_service_stationary_solves_total 2" in text
        assert "stationary_solves=2 stationary_seconds=0.250" in merged.summary()

        cache = ArtifactCache()
        cache.get_or_create("bscc", ("x",), lambda: 1)
        cache.get_or_create("bscc", ("x",), lambda: 1)
        text = prometheus_text([("repro_cache", cache.stats())])
        assert 'repro_cache_hits_total{kind="bscc"} 1' in text
        assert 'repro_cache_misses_total{kind="bscc"} 1' in text
        assert isinstance(cache.stats(), CacheStats)

    def test_metrics_series_and_absorb_are_pinned(self):
        """Every ``/metrics`` series keeps its name, labels and value, and
        ``absorb`` of a fully populated counter object into an empty one
        reproduces it field for field (a second absorb doubles every
        counter, except the ``max``-merged high-water marks)."""
        chain = cycle_chain()
        batch = [
            MeasureRequest(
                chain=chain, times=(0.5, 1.0), kind=MeasureKind.REACHABILITY,
                target="goal",
            ),
            MeasureRequest(
                chain=chain, times=(), kind=MeasureKind.STEADY_STATE, target="goal"
            ),
            MeasureRequest(
                chain=chain, times=(), kind=MeasureKind.REACHABILITY_REWARD,
                target="goal", rewards=np.ones(chain.num_states),
            ),
        ]

        async def run():
            async with ScenarioService(artifacts=ArtifactCache()) as service:
                for _ in range(2):
                    await service.submit_many(batch)
                return service.metrics_text()

        series = parse_series(asyncio.run(run()))
        expected = dict(PINNED_SERVICE_SERIES)
        for counter in ("hits", "misses", "evictions"):
            for kind in PINNED_CACHE_KINDS:
                expected[(f"repro_cache_{counter}_total", f'kind="{kind}"')] = (
                    0 if counter == "evictions" else 2 if kind == "foxglynn" else 1
                )
        for bound in ("0.001", "0.0025", "0.005", "0.01", "0.025", "0.05",
                      "0.1", "0.25", "0.5", "1.0", "2.5", "5.0"):
            expected[
                ("repro_service_flush_latency_seconds_bucket", f'le="{bound}"')
            ] = None
        for key, value in expected.items():
            assert key in series, key
            if value is not None:
                assert series[key] == value, key
        assert not any(name.startswith("repro_optimizer_") for name, _ in series)

        for cls in (
            SessionStats,
            ServiceStats,
            CacheKindStats,
            CacheStats,
            ShardedServiceStats,
            OptimizerStats,
        ):
            source = filled(cls())
            total = cls()
            total.absorb(source)
            assert dataclasses.asdict(total) == dataclasses.asdict(source), cls
            total.absorb(source)
            assert dataclasses.asdict(total) == doubled(
                dataclasses.asdict(source)
            ), cls


#: The series a two-flush ScenarioService run of three small requests emits
#: (name, labels) -> value; ``None`` pins the series but not its value.
PINNED_SERVICE_SERIES = {
    ("repro_service_submissions_total", ""): 6,
    ("repro_service_completed_total", ""): 6,
    ("repro_service_failed_total", ""): 0,
    ("repro_service_rejected_total", ""): 0,
    ("repro_service_timeouts_total", ""): 0,
    ("repro_service_flushes_total", ""): 2,
    ("repro_service_largest_flush", ""): 3,
    ("repro_service_requests_total", ""): 6,
    ("repro_service_groups_total", ""): 6,
    ("repro_service_sweeps_total", ""): 2,
    ("repro_service_matvecs_total", ""): 36,
    ("repro_service_applies_total", ""): 36,
    ("repro_service_sparse_flops_total", ""): 324,
    ("repro_service_equivalent_nnz_total", ""): 324,
    ("repro_service_factorizations_total", ""): 1,
    ("repro_service_dense_factorizations_total", ""): 1,
    ("repro_service_linear_solves_total", ""): 2,
    ("repro_service_solved_columns_total", ""): 2,
    ("repro_service_stationary_solves_total", ""): 1,
    ("repro_service_lumped_groups_total", ""): 0,
    ("repro_service_lump_failures_total", ""): 0,
    ("repro_service_flush_latency_seconds_bucket", 'le="+Inf"'): 2,
    ("repro_service_flush_latency_seconds_sum", ""): None,
    ("repro_service_flush_latency_seconds_count", ""): 2,
}

PINNED_CACHE_KINDS = (
    "bscc", "dense_operator", "embedded", "engine", "factorization",
    "foxglynn", "operator", "stationary", "transformed",
)

#: High-water marks: ``absorb`` merges these with ``max``, not ``+``.
MAX_MERGED = ("largest_flush", "max_seconds")


def parse_series(text: str) -> dict[tuple[str, str], float]:
    """Prometheus text -> {(name, labels): value}; comment lines skipped."""
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name_labels, value = line.rsplit(" ", 1)
            name, _, labels = name_labels.partition("{")
            series[(name, labels.rstrip("}"))] = float(value)
    return series


def filled(counters):
    """``counters`` with a distinct non-zero value in every field."""
    values = itertools.count(3)

    def fill(target) -> None:
        for spec in dataclasses.fields(target):
            current = getattr(target, spec.name)
            if isinstance(current, LatencyHistogram):
                for seconds in (0.002, 0.2, 7.0):
                    current.observe(seconds)
            elif dataclasses.is_dataclass(current):
                fill(current)
            elif spec.name == "kinds":
                for kind in ("bscc", "operator"):
                    stats = CacheKindStats()
                    fill(stats)
                    current[kind] = stats
            elif isinstance(current, dict):
                current.update({0: next(values), 1: next(values)})
            elif isinstance(current, float):
                setattr(target, spec.name, next(values) + 0.5)
            elif isinstance(current, int):
                setattr(target, spec.name, next(values))

    fill(counters)
    return counters


def doubled(snapshot, name: str = ""):
    """What absorbing ``snapshot`` twice into an empty object yields."""
    if isinstance(snapshot, dict):
        return {key: doubled(value, key) for key, value in snapshot.items()}
    if isinstance(snapshot, list):
        return [2 * value for value in snapshot]
    if isinstance(snapshot, tuple) or name in MAX_MERGED:
        return snapshot
    return 2 * snapshot

