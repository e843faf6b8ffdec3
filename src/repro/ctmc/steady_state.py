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

Step 2 has one solver for every BSCC with more than one state: GMRES on the
balance equations with one state pinned, preconditioned by an incomplete LU
in the natural state order, which breadth-first expansion already makes
banded.  The first pinned state is the BSCC's first state (for expanded
Arcade chains the breadth-first root, the all-operational state).  Every
GMRES cycle solves for the correction left by the previous one (iterative
refinement), and every iterate is checked against the per-state balance
residual of :func:`stationary_residual`; the solve stops when it is at most
``STATIONARY_TOLERANCE``, not on GMRES's own tolerance.  When the cycles on
the first pin do not get there, the state carrying the largest probability
flow is pinned instead and the cycles start over; if that fails too,
:class:`ConvergenceError` is raised.  ``method="direct"`` (``splu``) is kept
as the reference for tests and is checked the same way.

Every function threads an optional :class:`repro.ctmc.linsolve.SolverEngine`:
the BSCC decomposition (kind ``bscc``, keyed by the chain's content
fingerprint), each BSCC's stationary vector (kind ``stationary``, keyed by
fingerprint, method and subset signature), the absorption-system LU (kind
``factorization``) and the solved absorption matrix (kind ``absorption``,
built on the jump-chain matrix shared with unbounded reachability under
kind ``embedded``) are then fetched from — or stored into — the engine's
backing store.  Pointed at the process-wide artifact cache, repeated
availability tables perform zero decompositions and zero factorizations
after the first pass; without an engine every call stays a self-contained
per-call reference computation.  Each stationary solve counts in the
engine's ``stationary_solves`` and ``stationary_seconds``.

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

import time
from collections.abc import Iterable, Iterator

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg
from scipy.sparse.csgraph import connected_components

from repro.ctmc.ctmc import CTMC, CTMCError
from repro.ctmc.linsolve import SolverEngine, subset_signature


class ConvergenceError(CTMCError):
    """A solver stopped before its residual met the tolerance."""


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


#: ``"auto"`` is the GMRES solve below; ``"direct"`` the ``splu`` reference.
STATIONARY_METHODS = ("auto", "direct")

#: Bound on the balance residual (:func:`stationary_residual`) of every
#: stationary vector.
STATIONARY_TOLERANCE = 1e-14

#: Incomplete-LU preconditioner settings; the state order is kept as it is.
_ILU_DROP_TOL = 1e-3
_ILU_FILL_FACTOR = 5

#: Krylov dimension of one GMRES cycle, and the cycles per pinned state.
_GMRES_RESTART = 30
_GMRES_CYCLES = 8
_GMRES_RTOL = 1e-15


def _check_method(method: str) -> None:
    if method not in STATIONARY_METHODS:
        raise CTMCError(f"unknown steady-state method {method!r}")


def stationary_residual(generator: sparse.spmatrix, distribution: np.ndarray) -> float:
    """The balance residual ``max_j |(πQ)_j| / q_j`` of a stationary vector.

    ``generator`` is the generator ``Q`` of an irreducible chain (or BSCC)
    with exit rates ``q`` and ``distribution`` a probability vector over
    its states.  ``|(πQ)_j| / q_j`` is the probability state ``j`` would
    have to gain or lose to balance its own outflow against its inflow, so
    a slow state's imbalance counts as much as a fast one's; zero means
    exact balance.  It measures balance, not the distance to the exact
    vector, which on nearly decomposable chains can be larger by the
    chain's condition number.
    """
    return float(np.max(np.abs(generator.T @ distribution) / -generator.diagonal()))


def _bscc_stationary_distribution(
    chain: CTMC,
    states: np.ndarray,
    method: str,
    engine: SolverEngine,
) -> np.ndarray:
    """Stationary distribution of the sub-chain induced by a BSCC.

    The vector is a pure function of (chain, subset, method), so it is
    cached under that key; warm lookups skip the solve.
    """
    if len(states) == 1:
        return np.array([1.0])
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
    """The stationary vector of a BSCC with at least two states.

    ``method="auto"`` pins ``π`` at one state ``p``, which leaves the
    nonsingular M-matrix system ``Q[~p,~p]ᵀ y = −Q[p,~p]ᵀ``, and solves it
    with restarted GMRES preconditioned by an incomplete LU in the natural
    state order.  The first pin is the BSCC's first state; the second, tried
    only when the first does not converge, is the state with the largest
    flow ``π_j q_j`` in the last iterate, since the pinned state's balance
    equation is left out of the system and collects the rounding of all the
    others.  ``method="direct"`` replaces the last balance equation by the
    normalisation and factorizes with ``splu``.  Each candidate vector — one
    per GMRES cycle, or the direct solution — is clipped, normalised and
    checked with :func:`stationary_residual`; the first that meets
    :data:`STATIONARY_TOLERANCE` is returned, and :class:`ConvergenceError`
    names the residual, the tolerance and the BSCC size if none does.
    """
    started = time.perf_counter()
    if len(states) == chain.num_states:
        rates, exit_rates = chain.rate_matrix, chain.exit_rates
    else:
        rates = chain.rate_matrix[np.ix_(states, states)].tocsr()
        exit_rates = np.asarray(rates.sum(axis=1)).ravel()
    generator = (rates - sparse.diags(exit_rates)).tocsr()

    candidates = (
        _direct_candidates(generator, engine)
        if method == "direct"
        else _gmres_candidates(generator, exit_rates)
    )
    residual = np.inf
    for candidate in candidates:
        solution = np.clip(candidate, 0.0, None)
        solution /= solution.sum()
        residual = stationary_residual(generator, solution)
        if residual <= STATIONARY_TOLERANCE:
            engine.stats.stationary_solves += 1
            engine.stats.stationary_seconds += time.perf_counter() - started
            return solution
    raise ConvergenceError(
        f"{method} stationary solve stopped at residual {residual:.3g} > "
        f"tolerance {STATIONARY_TOLERANCE:g} on a {len(states)}-state BSCC"
    )


def _direct_candidates(generator: sparse.csr_matrix, engine: SolverEngine) -> list[np.ndarray]:
    size = generator.shape[0]
    system = generator.T.tolil()
    system[size - 1, :] = 1.0
    rhs = np.zeros(size)
    rhs[size - 1] = 1.0
    try:
        factorization = engine.build_factorization(system.tocsc())
        return [np.asarray(engine.solve(factorization, rhs), dtype=float)]
    except (RuntimeError, ValueError) as error:
        raise CTMCError(f"direct steady-state solve failed: {error}") from error


def _gmres_candidates(
    generator: sparse.csr_matrix, exit_rates: np.ndarray
) -> Iterator[np.ndarray]:
    balance = generator.T.tocsc()  # Qᵀπ = 0: one balance equation per row
    for candidate in _pinned_gmres_candidates(balance, 0):
        yield candidate
    # The pinned state's balance equation is left out of the system, so it
    # collects the others' rounding; a slow pinned state can miss the
    # tolerance that way, and the state carrying the most flow will not.
    pin = int(np.argmax(np.clip(candidate, 0.0, None) * exit_rates))
    if pin != 0:
        yield from _pinned_gmres_candidates(balance, pin)


def _pinned_gmres_candidates(balance: sparse.csc_matrix, pin: int) -> Iterator[np.ndarray]:
    """One candidate per GMRES cycle, scaled so that ``π[pin] = 1``."""
    others = np.delete(np.arange(balance.shape[0]), pin)
    system = balance[others][:, others].tocsc()
    rhs = -balance[others, pin].toarray().ravel()
    incomplete = sparse_linalg.spilu(
        system,
        drop_tol=_ILU_DROP_TOL,
        fill_factor=_ILU_FILL_FACTOR,
        permc_spec="NATURAL",
    )
    preconditioner = sparse_linalg.LinearOperator(system.shape, incomplete.solve)
    pinned = np.zeros(len(others))
    for _ in range(_GMRES_CYCLES):
        # Each cycle solves for the correction from the current residual, so
        # GMRES's tolerance is relative to what is left, not to ``rhs``.
        correction, _info = sparse_linalg.gmres(
            system,
            rhs - system @ pinned,
            M=preconditioner,
            rtol=_GMRES_RTOL,
            atol=0.0,
            restart=_GMRES_RESTART,
            maxiter=1,
        )
        pinned += correction
        yield np.insert(pinned, pin, 1.0)


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
    _check_method(method)
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
    _check_method(method)
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
