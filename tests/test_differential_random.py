"""Randomized differential tests: session numerics vs. independent references.

The paper's figures exercise only a handful of chain shapes; as the warm
path grows (batched planning, cached factorizations, lumping quotients),
this harness cross-checks every long-run and time-bounded pipeline on a
population of *generated* CTMCs:

* ``P=?[ safe U<=t target ]`` (session ``REACHABILITY``) against a dense
  matrix-exponential of the absorbed generator (``scipy.linalg.expm``) —
  a completely independent numerical route;
* ``S=?`` and ``R=?[S]`` (session ``STEADY_STATE``) against a dense
  reference built from scratch in this module: boolean-closure BSCC
  detection, least-squares stationary vectors and dense absorption solves
  (no shared code with :mod:`repro.ctmc.steady_state`);
* ``R=?[F target]`` (session ``REACHABILITY_REWARD``) against the retained
  per-call :func:`repro.ctmc.linsolve.reachability_reward_reference`;
* ``P=?[ safe U[a,t] target ]`` (session ``INTERVAL_REACHABILITY``) against
  a dense two-phase expm reference (forward through the safe-restricted
  generator to ``a``, backward through the absorbed generator over
  ``t - a``) — this exercises *both* quotients of the lumped interval
  bundle (target-absorbed backward, seed-vector forward);
* ``P=?[ safe U target ]`` (session ``UNBOUNDED_REACHABILITY``), lumped
  against unlumped, guarding the safe+target-seeded long-run quotient.
* the BSCC decomposition itself
  (:func:`repro.ctmc.bottom_strongly_connected_components`) against the
  boolean-closure reference.
* every multi-state BSCC's stationary vector against a dense
  Grassmann–Taksar–Heyman elimination (``helpers.gth_stationary``), on the
  seeded chains and on stiff variants of them, to 1e-12.

Each seeded chain (5–40 states, random density/rates, random target,
safe-set and reward structures, including absorbing states and reducible
chains) is checked with ``lump=False`` and ``lump=True``; agreement is
required to 1e-10 across at least 50 chains.  Since PR 10 the ``lumped``
axis genuinely quotients the long-run and interval groups too (not just
regular bounded reachability), so every comparison below doubles as an
exactness proof for the expanded lumping coverage.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from repro.analysis import AnalysisSession, MeasureKind
from repro.ctmc import (
    CTMC,
    bottom_strongly_connected_components,
    steady_state_distribution_block,
)
from repro.ctmc.linsolve import reachability_reward_reference

from helpers import gth_stationary

NUM_CHAINS = 60
TOLERANCE = 1e-10

#: Rate-scaled copies of each seeded chain in the GTH stationary check.
STIFF_VARIANTS = 20

#: Accuracy contract of the float32 sweep lane (see repro.ctmc.engines).
F32_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# seeded model generator
# ---------------------------------------------------------------------------
def random_ctmc(seed: int) -> tuple[CTMC, dict]:
    """A random chain plus random target/safe/reward observables.

    Densities span sparse-reducible (absorbing BSCCs appear naturally once
    rows go empty) to near-complete irreducible chains; rates span two
    orders of magnitude so uniformization constants genuinely differ.
    """
    rng = np.random.default_rng(seed)
    num_states = int(rng.integers(5, 41))
    density = float(rng.uniform(0.1, 0.6))
    rates = rng.uniform(0.1, 3.0, (num_states, num_states))
    rates *= rng.random((num_states, num_states)) < density
    np.fill_diagonal(rates, 0.0)
    if rng.random() < 0.3:
        # Force a few absorbing states: empty rows create non-trivial BSCC
        # structure and infinite reachability rewards.
        absorbing = rng.choice(num_states, size=max(1, num_states // 8), replace=False)
        rates[absorbing, :] = 0.0
    if not rates.any():
        rates[0, num_states - 1] = 1.0  # pragma: no cover - degenerate draw
    scale = float(rng.uniform(0.3, 4.0))
    initial = rng.random(num_states) + 1e-3

    target = rng.random(num_states) < rng.uniform(0.1, 0.4)
    target[int(rng.integers(num_states))] = True
    safe = rng.random(num_states) < rng.uniform(0.5, 1.0)
    rewards = rng.uniform(0.0, 3.0, num_states)
    times = np.linspace(0.0, float(rng.uniform(0.5, 4.0)), 5)

    chain = CTMC(rates * scale, initial / initial.sum())
    return chain, {
        "target": target,
        "safe": safe,
        "rewards": rewards,
        "times": times,
    }


# ---------------------------------------------------------------------------
# dense reference implementations (independent algorithm stack)
# ---------------------------------------------------------------------------
def reference_bounded_reachability(
    chain: CTMC, target: np.ndarray, safe: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """``P[ safe U<=t target ]`` via a dense expm of the absorbed generator."""
    generator = chain.generator_matrix().toarray()
    absorbed = target | ~(safe | target)
    generator[absorbed, :] = 0.0
    initial = chain.initial_distribution
    indicator = target.astype(float)
    return np.array(
        [float(initial @ expm(generator * t) @ indicator) for t in times]
    )


def reference_interval_reachability(
    chain: CTMC,
    target: np.ndarray,
    safe: np.ndarray,
    lower: float,
    times: np.ndarray,
) -> np.ndarray:
    """``P[ safe U[a,t] target ]`` via two dense matrix exponentials.

    Phase 1 evolves the initial distribution through the safe-restricted
    generator to time ``a`` (mass that left the safe set strictly before
    ``a`` has failed the until and is zeroed); phase 2 weighs the surviving
    distribution against the bounded-reachability values of the absorbed
    generator over the residual horizon ``t - a``.
    """
    generator = chain.generator_matrix().toarray()
    restricted = generator.copy()
    restricted[~safe, :] = 0.0
    distribution = chain.initial_distribution @ expm(restricted * lower)
    distribution = np.where(safe, distribution, 0.0)
    absorbed = generator.copy()
    absorbed[target | ~(safe | target), :] = 0.0
    indicator = target.astype(float)
    return np.array(
        [
            float(distribution @ expm(absorbed * max(float(t) - lower, 0.0)) @ indicator)
            for t in times
        ]
    )


def _boolean_closure(adjacency: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated boolean squaring."""
    closure = adjacency | np.eye(adjacency.shape[0], dtype=bool)
    for _ in range(int(np.ceil(np.log2(max(adjacency.shape[0], 2)))) + 1):
        closure = closure | ((closure.astype(np.int64) @ closure.astype(np.int64)) > 0)
    return closure


def _reference_bsccs(rates: np.ndarray) -> list[np.ndarray]:
    """Bottom SCCs from the reachability closure (no graph library)."""
    closure = _boolean_closure(rates > 0.0)
    mutual = closure & closure.T
    component_of: dict[bytes, list[int]] = {}
    for state in range(rates.shape[0]):
        component_of.setdefault(mutual[state].tobytes(), []).append(state)
    bsccs = []
    for members in component_of.values():
        inside = np.zeros(rates.shape[0], dtype=bool)
        inside[members] = True
        if not np.any(closure[members][:, ~inside]):
            bsccs.append(np.array(members))
    return bsccs


def _reference_stationary(generator: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible generator by least squares."""
    size = generator.shape[0]
    if size == 1:
        return np.ones(1)
    system = np.vstack([generator.T, np.ones((1, size))])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return solution


def reference_longrun_expectation(chain: CTMC, observable: np.ndarray) -> float:
    """Long-run expectation of ``observable`` from the chain's initial
    distribution, computed with dense linear algebra only."""
    rates = chain.rate_matrix.toarray()
    num_states = chain.num_states
    initial = chain.initial_distribution
    bsccs = _reference_bsccs(rates)

    in_bscc = np.zeros(num_states, dtype=bool)
    for members in bsccs:
        in_bscc[members] = True
    transient = np.flatnonzero(~in_bscc)

    exit_rates = rates.sum(axis=1)
    weights = np.array([initial[members].sum() for members in bsccs])
    if transient.size:
        # Embedded jump chain restricted to the transient states; one dense
        # solve yields the absorption probabilities into every BSCC.
        embedded = np.divide(
            rates,
            exit_rates[:, None],
            out=np.zeros_like(rates),
            where=exit_rates[:, None] > 0,
        )
        system = np.eye(transient.size) - embedded[np.ix_(transient, transient)]
        one_step = np.column_stack(
            [embedded[np.ix_(transient, members)].sum(axis=1) for members in bsccs]
        )
        absorption = np.linalg.solve(system, one_step)
        weights = weights + initial[transient] @ absorption

    value = 0.0
    for members, weight in zip(bsccs, weights):
        if weight <= 0.0:
            continue
        sub = rates[np.ix_(members, members)]
        local_generator = sub - np.diag(sub.sum(axis=1))
        stationary = _reference_stationary(local_generator)
        value += weight * float(stationary @ observable[members])
    return value


# ---------------------------------------------------------------------------
# the differential harness
# ---------------------------------------------------------------------------
def _session_values(
    chain: CTMC,
    spec: dict,
    lump: bool,
    engine: str | None = None,
    dtype: str | None = None,
) -> dict[str, np.ndarray]:
    """All four measures of one chain through a single batched session."""
    session = AnalysisSession(lump=lump, engine=engine, dtype=dtype)
    indices = {
        "bounded": session.request(
            chain,
            spec["times"],
            kind=MeasureKind.REACHABILITY,
            target=spec["target"],
            safe=spec["safe"],
        ),
        "steady_probability": session.request(
            chain, (), kind=MeasureKind.STEADY_STATE, target=spec["target"]
        ),
        "steady_reward": session.request(
            chain, (), kind=MeasureKind.STEADY_STATE, rewards=spec["rewards"]
        ),
        "reach_reward": session.request(
            chain,
            (),
            kind=MeasureKind.REACHABILITY_REWARD,
            target=spec["target"],
            rewards=spec["rewards"],
        ),
    }
    results = session.execute()
    return {name: results[index].squeezed for name, index in indices.items()}


def _assert_close(label: str, seed: int, actual, expected) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    both_infinite = ~np.isfinite(actual) & ~np.isfinite(expected)
    difference = np.abs(
        np.where(both_infinite, 0.0, actual) - np.where(both_infinite, 0.0, expected)
    )
    assert np.all(difference <= TOLERANCE), (
        f"seed {seed}: {label} differs from the reference by "
        f"{float(np.max(difference))!r} "
        f"(session {actual!r} vs reference {expected!r})"
    )


@pytest.mark.parametrize("seed", range(NUM_CHAINS))
def test_bscc_decomposition_agrees_with_reference(seed: int) -> None:
    chain, _ = random_ctmc(seed)
    expected = sorted(_reference_bsccs(chain.rate_matrix.toarray()), key=lambda m: int(m[0]))
    actual = bottom_strongly_connected_components(chain)
    assert [members.tolist() for members in actual] == [m.tolist() for m in expected]


@pytest.mark.parametrize("seed", range(NUM_CHAINS))
def test_stationary_vectors_agree_with_gth(seed: int) -> None:
    """Every multi-state BSCC's stationary vector matches GTH to 1e-12.

    Besides the seeded chain, stiff variants scale the rates by factors
    ``10**U(-5, 3)``: one factor per state's outgoing rates (exit rates
    spanning eight orders of magnitude), and one factor per transition
    (nearly decomposable chains, whose weak links are where a residual-only
    solve loses accuracy).  A point mass on a BSCC's first state has that
    BSCC's stationary vector as its long-run distribution.
    """
    chain, _ = random_ctmc(seed)
    rng = np.random.default_rng(10_000 + seed)
    rates = chain.rate_matrix.toarray()
    variants = [chain]
    for shape in ((chain.num_states, 1), rates.shape):
        variants += [
            CTMC(rates * 10.0 ** rng.uniform(-5.0, 3.0, shape), {0: 1.0})
            for _ in range(STIFF_VARIANTS)
        ]
    for variant in variants:
        bsccs = [
            states for states in bottom_strongly_connected_components(variant) if len(states) > 1
        ]
        if not bsccs:
            continue
        starts = np.zeros((len(bsccs), variant.num_states))
        for row, states in enumerate(bsccs):
            starts[row, states[0]] = 1.0
        distributions = steady_state_distribution_block(variant, starts)
        generator = variant.generator_matrix()
        for row, states in enumerate(bsccs):
            reference = gth_stationary(generator[np.ix_(states, states)])
            difference = float(np.max(np.abs(distributions[row, states] - reference)))
            assert difference <= 1e-12, (
                f"seed {seed}: {len(states)}-state BSCC differs from GTH by {difference!r}"
            )


@pytest.mark.parametrize("lump", [False, True], ids=["unlumped", "lumped"])
@pytest.mark.parametrize("seed", range(NUM_CHAINS))
def test_session_agrees_with_references(seed: int, lump: bool) -> None:
    chain, spec = random_ctmc(seed)
    values = _session_values(chain, spec, lump)

    _assert_close(
        "P=?[U<=t]",
        seed,
        values["bounded"],
        reference_bounded_reachability(
            chain, spec["target"], spec["safe"], spec["times"]
        ),
    )
    _assert_close(
        "S=?",
        seed,
        values["steady_probability"][0],
        reference_longrun_expectation(chain, spec["target"].astype(float)),
    )
    _assert_close(
        "R=?[S]",
        seed,
        values["steady_reward"][0],
        reference_longrun_expectation(chain, spec["rewards"]),
    )
    _assert_close(
        "R=?[F]",
        seed,
        values["reach_reward"][0],
        reachability_reward_reference(chain, spec["rewards"], spec["target"]),
    )


@pytest.mark.parametrize("lump", [False, True], ids=["unlumped", "lumped"])
@pytest.mark.parametrize("seed", range(NUM_CHAINS))
def test_interval_until_agrees_with_reference(seed: int, lump: bool) -> None:
    """``P=?[safe U[a,t] target]``, lumped and unlumped, vs dense expm.

    The lumped lane runs the bundle on two quotients (target-absorbed
    backward chain, seed-vector forward chain) with lift/project glue; both
    lanes must match the independent reference to the harness tolerance.
    """
    chain, spec = random_ctmc(seed)
    lower = 0.1 + 0.4 * float(spec["times"][-1])
    times = lower + spec["times"]  # first grid point sits exactly at t = a
    session = AnalysisSession(lump=lump)
    index = session.request(
        chain,
        times,
        kind=MeasureKind.INTERVAL_REACHABILITY,
        target=spec["target"],
        safe=spec["safe"],
        lower=lower,
    )
    values = session.execute()[index].squeezed
    _assert_close(
        "P=?[U[a,t]]",
        seed,
        values,
        reference_interval_reachability(
            chain, spec["target"], spec["safe"], lower, times
        ),
    )


@pytest.mark.parametrize("seed", range(NUM_CHAINS))
def test_unbounded_reachability_lump_invariant(seed: int) -> None:
    """``P=?[safe U target]`` is unchanged by the long-run quotient.

    The long-run lumping seeds *both* the target and the safe indicator
    (the chain is not pre-absorbed on this path), so prob0/prob1 and the
    restricted embedded-DTMC solve commute with the quotient.
    """
    chain, spec = random_ctmc(seed)
    values: dict[bool, np.ndarray] = {}
    for lump in (False, True):
        session = AnalysisSession(lump=lump)
        index = session.request(
            chain,
            (),
            kind=MeasureKind.UNBOUNDED_REACHABILITY,
            target=spec["target"],
            safe=spec["safe"],
        )
        values[lump] = session.execute()[index].squeezed
    _assert_close("P=?[U]", seed, values[True], values[False])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("seed", range(NUM_CHAINS))
def test_dtype_lanes_agree_with_legacy_path(seed: int, dtype: str) -> None:
    """The engine-selected lanes reproduce the legacy float64 CSR numerics.

    ``engine="auto"`` routes every chain through the pluggable backend layer
    (dense BLAS below the crossover, CSR above); the float64 lane must stay
    within the harness tolerance of the legacy path and the float32 lane
    within its documented 1e-6 contract.
    """
    chain, spec = random_ctmc(seed)
    legacy = _session_values(chain, spec, lump=False)
    values = _session_values(chain, spec, lump=False, engine="auto", dtype=dtype)
    tolerance = TOLERANCE if dtype == "float64" else F32_TOLERANCE
    for name, expected in legacy.items():
        actual = np.asarray(values[name], dtype=float)
        expected = np.asarray(expected, dtype=float)
        both_infinite = ~np.isfinite(actual) & ~np.isfinite(expected)
        difference = np.abs(
            np.where(both_infinite, 0.0, actual)
            - np.where(both_infinite, 0.0, expected)
        )
        assert np.all(difference <= tolerance), (
            f"seed {seed}: {name} ({dtype}) deviates from the legacy lane by "
            f"{float(np.max(difference))!r}"
        )


def test_generator_produces_the_advertised_population() -> None:
    """The harness spans the sizes and structures the docstring claims."""
    sizes, reducible = [], 0
    for seed in range(NUM_CHAINS):
        chain, _ = random_ctmc(seed)
        sizes.append(chain.num_states)
        if len(_reference_bsccs(chain.rate_matrix.toarray())) > 1 or np.any(
            ~np.asarray(chain.rate_matrix.sum(axis=1)).ravel().astype(bool)
        ):
            reducible += 1
    assert NUM_CHAINS >= 50
    assert min(sizes) >= 5 and max(sizes) <= 40
    assert len(set(sizes)) > 10  # genuinely varied sizes
    assert reducible >= 5  # absorbing/reducible structure is exercised
