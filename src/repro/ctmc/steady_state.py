"""Steady-state (long-run) analysis of CTMCs.

The long-run distribution of a finite CTMC is determined by its bottom
strongly connected components (BSCCs): mass that reaches a BSCC stays there
and distributes according to the BSCC's local stationary distribution.  The
functions here implement the general procedure used by stochastic model
checkers:

1. decompose the chain into BSCCs (:func:`bottom_strongly_connected_components`),
2. solve the local balance equations of each BSCC
   (:func:`_bscc_stationary_distribution`),
3. compute the probability of eventually reaching each BSCC from the initial
   distribution (an unbounded-reachability problem on the embedded DTMC), and
4. combine the pieces into the global long-run distribution
   (:func:`steady_state_distribution`).

For the irreducible chains produced by repairable Arcade models, step 3 is
trivial (there is a single BSCC covering every state), but the general code
path is retained so that e.g. reliability models without repair — which have
absorbing failure states — are handled correctly too.

Every function threads an optional :class:`repro.ctmc.linsolve.SolverEngine`:
the BSCC decomposition (kind ``bscc``, keyed by the chain's content
fingerprint), each BSCC's stationary vector (kind ``stationary``, keyed by
fingerprint plus subset signature), the absorption-system LU (kind
``factorization``) and the solved absorption matrix (kind ``absorption``,
built on the jump-chain matrix shared with unbounded reachability under
kind ``embedded``) are then fetched from — or stored into — the engine's
backing store.  Pointed at the process-wide artifact cache, repeated
availability tables perform zero decompositions and zero factorizations
after the first pass; without an engine every call stays a self-contained
per-call reference computation, exactly as before.

:func:`steady_state_distribution_block` is the batch entry point the
analysis executor uses: a ``(num_initials, num_states)`` block of initial
distributions shares one decomposition, one stationary solve per BSCC and
one multi-column absorption solve.

When the analysis session runs with ``lump=True`` the chain arriving here
is already the ordinary-lumpability quotient seeded with the group's
observables (the aggregated process is Markov and block functions of the
state are preserved), so the BSCC decomposition and every linear system are
solved on the reduced state space; per-state ``S=?`` requests bypass the
quotient and still see the full chain.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.ctmc.ctmc import CTMC, CTMCError
from repro.ctmc.linsolve import SolverEngine, subset_signature


class ConvergenceError(CTMCError):
    """An iterative solver reached its iteration limit without converging."""


def bottom_strongly_connected_components(chain: CTMC) -> list[np.ndarray]:
    """Return the BSCCs of ``chain`` as arrays of state indices.

    A strongly connected component is *bottom* if no transition leaves it.
    The BSCCs are ordered by their smallest state, each sorted ascending.
    """
    matrix = chain.rate_matrix.tocoo()
    num_components, component_of = connected_components(
        chain.rate_matrix, directed=True, connection="strong"
    )
    leaving = component_of[matrix.row] != component_of[matrix.col]
    bottom = np.ones(num_components, dtype=bool)
    bottom[component_of[matrix.row[leaving]]] = False
    # Group the bottom members by component with one stable sort, so chains
    # with one component per state stay linear.
    members = np.flatnonzero(bottom[component_of])
    if members.size == 0:
        return []
    members = members[np.argsort(component_of[members], kind="stable")]
    boundaries = np.flatnonzero(np.diff(component_of[members])) + 1
    bsccs = np.split(members, boundaries)
    bsccs.sort(key=lambda indices: int(indices[0]))
    return bsccs


def bscc_decomposition(chain: CTMC, engine: SolverEngine | None = None) -> list[np.ndarray]:
    """The BSCCs of ``chain``, cached per content fingerprint when possible."""
    if engine is None:
        return bottom_strongly_connected_components(chain)
    return engine.cached(
        "bscc",
        (chain.fingerprint,),
        lambda: bottom_strongly_connected_components(chain),
    )


#: Above this size the "auto" method switches from the direct sparse solve
#: to power iteration on the uniformized DTMC (direct LU factorisations of
#: the balance equations suffer from severe fill-in for the repair-queue
#: chains of this project, whereas power iteration converges in a few
#: thousand sparse matrix-vector products).
_AUTO_DIRECT_LIMIT = 4000


def _bscc_stationary_distribution(
    chain: CTMC,
    states: np.ndarray,
    method: str = "auto",
    engine: SolverEngine | None = None,
) -> np.ndarray:
    """Stationary distribution of the sub-chain induced by a BSCC.

    Solves ``π Q = 0`` with ``Σ π = 1`` restricted to ``states``.  The
    resulting vector is a pure function of (chain, subset, method), so it is
    cached under that key; warm lookups skip both the factorization and the
    solve.
    """
    size = len(states)
    if size == 1:
        return np.array([1.0])
    if method == "auto":
        method = "direct" if size <= _AUTO_DIRECT_LIMIT else "power"
    if method not in ("direct", "power"):
        raise CTMCError(f"unknown steady-state method {method!r}")

    engine = engine if engine is not None else SolverEngine()
    member_mask = np.zeros(chain.num_states, dtype=bool)
    member_mask[states] = True
    token = b"|".join((b"stationary", method.encode(), subset_signature(member_mask)))
    return engine.cached(
        "stationary",
        (chain.fingerprint, token),
        lambda: _solve_stationary(chain, states, method, engine),
    )


def _solve_stationary(
    chain: CTMC, states: np.ndarray, method: str, engine: SolverEngine
) -> np.ndarray:
    size = len(states)
    sub_rates = chain.rate_matrix[np.ix_(states, states)].tocsr()
    exit_rates = np.asarray(sub_rates.sum(axis=1)).ravel()
    generator = sub_rates - sparse.diags(exit_rates)

    if method == "direct":
        # Replace one balance equation with the normalisation constraint.
        system = generator.T.tolil()
        system[size - 1, :] = 1.0
        rhs = np.zeros(size)
        rhs[size - 1] = 1.0
        try:
            factorization = engine.build_factorization(system.tocsc())
            solution = engine.solve(factorization, rhs)
        except Exception as error:  # pragma: no cover - fallback path
            raise CTMCError(f"direct steady-state solve failed: {error}") from error
        solution = np.asarray(solution, dtype=float)
    else:
        solution = _power_iteration(generator, size)

    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0:
        raise CTMCError("steady-state solver produced a zero vector")
    return solution / total


def _power_iteration(
    generator: sparse.spmatrix,
    size: int,
    tolerance: float = 1e-15,
    max_iterations: int = 500_000,
    check_every: int = 100,
) -> np.ndarray:
    """Stationary vector via power iteration on the uniformized DTMC.

    The iteration matrix ``P = I + Q/q`` is stochastic for any uniformization
    rate ``q`` at least as large as the maximal exit rate; a slightly larger
    rate avoids periodicity.  Convergence is checked every ``check_every``
    iterations on the maximum-norm difference of successive iterates.  The
    tolerance sits just above the roundoff floor of the matrix-vector
    products: a successive-difference stop overstates convergence by the
    mixing factor ``λ₂/(1-λ₂)``, and the repair-queue chains mix slowly
    enough that the former 1e-14 stop left ~1e-12 of true error — visible
    against the direct solves of the (much smaller) lumped quotients, which
    the ``bench_perf_lump_complete`` gates compare at 1e-12.

    Raises :class:`ConvergenceError` if the stop is not reached within
    ``max_iterations``.
    """
    exit_rates = -np.asarray(generator.diagonal()).ravel()
    q = float(exit_rates.max()) * 1.02 + 1e-12
    transition = sparse.identity(size, format="csr") + generator / q
    transposed = transition.T.tocsr()
    vector = np.full(size, 1.0 / size)
    for iteration in range(1, max_iterations + 1):
        updated = transposed @ vector
        if iteration % check_every == 0 and np.abs(updated - vector).max() < tolerance:
            return np.asarray(updated).ravel()
        vector = updated
    raise ConvergenceError(
        f"power iteration did not converge to {tolerance:g} within {max_iterations} iterations"
    )


def _transient_states(chain: CTMC, bsccs: list[np.ndarray]) -> np.ndarray:
    member = np.zeros(chain.num_states, dtype=bool)
    for states in bsccs:
        member[states] = True
    return np.flatnonzero(~member)


def _absorption_matrix(
    chain: CTMC,
    bsccs: list[np.ndarray],
    transient_states: np.ndarray,
    engine: SolverEngine,
) -> np.ndarray:
    """``(num_transient, num_bsccs)`` absorption probabilities, cached per chain.

    One LU factorization of the embedded DTMC restricted to the transient
    states serves *all* BSCCs: their one-step entry probabilities are
    stacked as right-hand-side columns of a single multi-column solve.  Both
    the BSCC set and the transient set are pure functions of the chain, so
    the solved matrix itself is cached (kind ``absorption``) — warm repeats
    skip the factorization *and* the solve.
    """

    def build() -> np.ndarray:
        # The jump-chain matrix is shared with unbounded reachability (kind
        # "embedded"); its absorbing-state self-loops do not disturb the
        # transient rows sliced here.
        from repro.ctmc.dtmc import embedded_dtmc

        embedded = engine.cached(
            "embedded",
            (chain.fingerprint,),
            lambda: embedded_dtmc(chain).transition_matrix,
        )
        transient_mask = np.zeros(chain.num_states, dtype=bool)
        transient_mask[transient_states] = True

        def build_system() -> sparse.csc_matrix:
            embedded_tt = embedded[np.ix_(transient_states, transient_states)]
            identity = sparse.identity(len(transient_states), format="csc")
            return (identity - embedded_tt.tocsc()).tocsc()

        factorization = engine.factorization(
            chain,
            b"bscc-absorption|" + subset_signature(transient_mask),
            build_system,
        )
        one_step = np.column_stack(
            [
                np.asarray(
                    embedded[np.ix_(transient_states, states)].sum(axis=1)
                ).ravel()
                for states in bsccs
            ]
        )
        absorption = np.asarray(engine.solve(factorization, one_step), dtype=float)
        return absorption.reshape(len(transient_states), len(bsccs))

    return engine.cached("absorption", (chain.fingerprint,), build)


def _bscc_absorption_weights(
    chain: CTMC,
    bsccs: list[np.ndarray],
    initial_block: np.ndarray,
    engine: SolverEngine,
) -> np.ndarray:
    """Probability of eventual absorption into each BSCC, per initial row.

    Returns a ``(num_initials, num_bsccs)`` matrix: the mass each row
    already places inside every BSCC plus the transient mass weighted by
    the cached absorption matrix.
    """
    weights = np.zeros((initial_block.shape[0], len(bsccs)))
    for index, states in enumerate(bsccs):
        weights[:, index] += initial_block[:, states].sum(axis=1)

    transient_states = _transient_states(chain, bsccs)
    if transient_states.size:
        absorption = _absorption_matrix(chain, bsccs, transient_states, engine)
        weights += initial_block[:, transient_states] @ absorption

    # Guard against numerical drift.
    totals = weights.sum(axis=1, keepdims=True)
    positive = totals[:, 0] > 0
    weights[positive] = weights[positive] / totals[positive]
    return weights


def steady_state_distribution_block(
    chain: CTMC,
    initial_block: np.ndarray,
    method: str = "auto",
    engine: SolverEngine | None = None,
) -> np.ndarray:
    """Long-run distributions for a block of initial distributions.

    ``initial_block`` has shape ``(num_initials, num_states)``; the result
    matches it.  All rows share one BSCC decomposition, one stationary
    solve per reached BSCC and one multi-column absorption solve — the
    batch entry point of the analysis executor's steady-state groups.
    """
    engine = engine if engine is not None else SolverEngine()
    initial_block = np.asarray(initial_block, dtype=float)
    if initial_block.ndim != 2 or initial_block.shape[1] != chain.num_states:
        raise CTMCError("initial block must have shape (num_initials, num_states)")

    bsccs = bscc_decomposition(chain, engine)
    if not bsccs:
        raise CTMCError("chain has no bottom strongly connected component")

    if len(bsccs) == 1 and len(bsccs[0]) == chain.num_states:
        local = _bscc_stationary_distribution(chain, bsccs[0], method, engine)
        return np.broadcast_to(local, initial_block.shape).copy()

    weights = _bscc_absorption_weights(chain, bsccs, initial_block, engine)
    distributions = np.zeros_like(initial_block)
    for index, states in enumerate(bsccs):
        column = weights[:, index]
        if not np.any(column > 0.0):
            continue
        local = _bscc_stationary_distribution(chain, states, method, engine)
        distributions[:, states] += column[:, None] * local[None, :]
    return distributions


def steady_state_distribution(
    chain: CTMC,
    initial_distribution: np.ndarray | None = None,
    method: str = "auto",
    engine: SolverEngine | None = None,
) -> np.ndarray:
    """Return the long-run (steady-state) distribution of ``chain``.

    For irreducible chains this is the unique stationary distribution; in
    general it is the BSCC-weighted mixture reachable from the initial
    distribution.
    """
    if initial_distribution is None:
        initial = chain.initial_distribution
    else:
        initial = np.asarray(initial_distribution, dtype=float)
        if initial.shape != (chain.num_states,):
            raise CTMCError("initial distribution has the wrong length")
    return steady_state_distribution_block(chain, initial[None, :], method, engine)[0]


def steady_state_values_per_state(
    chain: CTMC,
    observable: np.ndarray,
    method: str = "auto",
    engine: SolverEngine | None = None,
) -> np.ndarray:
    """Long-run expectation of ``observable`` per point-mass start state.

    ``values[s]`` is ``Σ_i π_s(i) · observable(i)`` where ``π_s`` is the
    long-run distribution started in ``s`` — the per-state vector of CSL
    ``S=?`` (indicator observable) and CSRL ``R=?[S]`` (reward-rate
    observable).  Instead of one full steady-state computation per start
    state, every BSCC contributes a single scalar and the transient states
    mix those scalars through one multi-column absorption solve.
    """
    engine = engine if engine is not None else SolverEngine()
    observable = np.asarray(observable, dtype=float)
    if observable.shape != (chain.num_states,):
        raise CTMCError("observable vector has the wrong length")

    bsccs = bscc_decomposition(chain, engine)
    if not bsccs:
        raise CTMCError("chain has no bottom strongly connected component")

    bscc_values = np.array(
        [
            float(
                _bscc_stationary_distribution(chain, states, method, engine)
                @ observable[states]
            )
            for states in bsccs
        ]
    )
    values = np.zeros(chain.num_states)
    for states, value in zip(bsccs, bscc_values):
        values[states] = value

    transient_states = _transient_states(chain, bsccs)
    if transient_states.size:
        # A point mass on a transient state mixes the per-BSCC scalars with
        # exactly its row of the absorption matrix — no (num_transient,
        # num_states) block needs materializing.
        absorption = _absorption_matrix(chain, bsccs, transient_states, engine)
        values[transient_states] = absorption @ bscc_values
    return values


def steady_state_probability(
    chain: CTMC,
    states: Iterable[int] | np.ndarray | str,
    initial_distribution: np.ndarray | None = None,
    method: str = "auto",
    engine: SolverEngine | None = None,
) -> float:
    """Long-run probability of residing in ``states`` (CSL ``S=?[states]``)."""
    from repro.ctmc.transient import _as_state_mask  # shared helper

    mask = _as_state_mask(chain, states)
    distribution = steady_state_distribution(chain, initial_distribution, method, engine)
    return float(distribution[mask].sum())
