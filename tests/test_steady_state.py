"""Tests for steady-state analysis and BSCC decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import (
    CTMC,
    ConvergenceError,
    bottom_strongly_connected_components,
    steady_state_distribution,
    steady_state_probability,
    steady_state_values_per_state,
)
import repro.ctmc.steady_state as steady_state
from repro.ctmc.ctmc import CTMCError
from repro.ctmc.linsolve import SolverEngine
from repro.ctmc.steady_state import STATIONARY_TOLERANCE, stationary_residual


class TestBSCC:
    def test_irreducible_chain_is_one_bscc(self, two_state_chain):
        bsccs = bottom_strongly_connected_components(two_state_chain)
        assert len(bsccs) == 1
        assert list(bsccs[0]) == [0, 1]

    def test_absorbing_state_is_its_own_bscc(self, absorbing_chain):
        bsccs = bottom_strongly_connected_components(absorbing_chain)
        assert len(bsccs) == 1
        assert list(bsccs[0]) == [2]

    def test_two_absorbing_states(self):
        rates = np.array(
            [
                [0.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        chain = CTMC(rates, {0: 1.0})
        bsccs = bottom_strongly_connected_components(chain)
        assert [list(b) for b in bsccs] == [[1], [2]]

    def test_bsccs_ordered_by_smallest_state_with_sorted_members(self):
        # 0 -> {3, 4} (a closed cycle), 0 -> 1 -> {5, 2} (a closed cycle),
        # and 6 absorbing: three BSCCs whose members are not contiguous.
        rates = np.zeros((7, 7))
        for source, target in [(0, 3), (0, 1), (1, 5), (3, 4), (4, 3), (5, 2), (2, 5), (0, 6)]:
            rates[source, target] = 1.0
        bsccs = bottom_strongly_connected_components(CTMC(rates, {0: 1.0}))
        assert [list(b) for b in bsccs] == [[2, 5], [3, 4], [6]]
        assert all(b.dtype == np.dtype(int) for b in bsccs)

    def test_one_component_per_state(self):
        # A pure-death chain: every state is its own SCC, only the last is bottom.
        size = 500
        rates = np.zeros((size, size))
        rates[np.arange(size - 1), np.arange(1, size)] = 1.0
        bsccs = bottom_strongly_connected_components(CTMC(rates, {0: 1.0}))
        assert [list(b) for b in bsccs] == [[size - 1]]


class TestSteadyState:
    def test_two_state_balance(self):
        lam, mu = 0.02, 0.4
        chain = CTMC(np.array([[0.0, lam], [mu, 0.0]]), {0: 1.0}, labels={"up": [0]})
        distribution = steady_state_distribution(chain)
        assert distribution[0] == pytest.approx(mu / (lam + mu), abs=1e-12)
        assert steady_state_probability(chain, "up") == pytest.approx(mu / (lam + mu))

    def test_three_state_cycle(self):
        # A cycle with distinct rates: pi_i proportional to 1/rate_i.
        rates = np.zeros((3, 3))
        rates[0, 1], rates[1, 2], rates[2, 0] = 1.0, 2.0, 4.0
        chain = CTMC(rates, {0: 1.0})
        distribution = steady_state_distribution(chain)
        expected = np.array([1.0, 0.5, 0.25])
        expected /= expected.sum()
        assert distribution == pytest.approx(expected, abs=1e-10)

    def test_absorbing_chain_concentrates_in_absorbing_state(self, absorbing_chain):
        distribution = steady_state_distribution(absorbing_chain)
        assert distribution == pytest.approx([0.0, 0.0, 1.0], abs=1e-10)

    def test_multiple_bsccs_weighted_by_reachability(self):
        # From state 0, jump to absorbing state 1 w.p. 1/4 and state 2 w.p. 3/4.
        rates = np.array(
            [
                [0.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        chain = CTMC(rates, {0: 1.0})
        distribution = steady_state_distribution(chain)
        assert distribution == pytest.approx([0.0, 0.25, 0.75], abs=1e-10)

    def test_initial_distribution_matters_with_multiple_bsccs(self):
        rates = np.array(
            [
                [0.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        chain = CTMC(rates, {0: 1.0})
        from_state_1 = steady_state_distribution(chain, np.array([0.0, 1.0, 0.0]))
        assert from_state_1 == pytest.approx([0.0, 1.0, 0.0])

    def test_auto_method_agrees_with_direct(self, mini_space):
        chain = mini_space.chain
        direct = steady_state_distribution(chain, method="direct")
        auto = steady_state_distribution(chain)
        assert auto == pytest.approx(direct, abs=1e-12)

    def test_unknown_method_rejected(self, two_state_chain):
        # The absorbing chain's only BSCC is a single state, which the
        # solver returns early for; the method is checked before that.
        absorbing = CTMC(np.array([[0.0, 1.0], [0.0, 0.0]]), {0: 1.0})
        for chain in (two_state_chain, absorbing):
            with pytest.raises(CTMCError, match="banana"):
                steady_state_distribution(chain, method="banana")
            with pytest.raises(CTMCError, match="banana"):
                steady_state_values_per_state(chain, np.ones(chain.num_states), method="banana")

    def test_failed_direct_solve_raises_ctmc_error(self, two_state_chain, monkeypatch):
        def singular(self, matrix):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(SolverEngine, "build_factorization", singular)
        with pytest.raises(CTMCError, match="direct steady-state solve failed"):
            steady_state_distribution(two_state_chain, method="direct")

    def test_stationary_solve_raises_when_it_does_not_converge(self, monkeypatch):
        rng = np.random.default_rng(0)
        rates = rng.uniform(0.1, 3.0, (200, 200)) * (rng.random((200, 200)) < 0.05)
        chain = CTMC(rates, {0: 1.0})
        converged = steady_state_distribution(chain)
        assert stationary_residual(chain.generator_matrix(), converged) <= STATIONARY_TOLERANCE

        # One GMRES step per cycle and pin cannot meet the tolerance.
        monkeypatch.setattr(steady_state, "_GMRES_RESTART", 1)
        monkeypatch.setattr(steady_state, "_GMRES_CYCLES", 1)
        with pytest.raises(ConvergenceError, match="200-state BSCC") as raised:
            steady_state_distribution(chain)
        assert isinstance(raised.value, CTMCError)
        assert f"{STATIONARY_TOLERANCE:g}" in str(raised.value)


@given(
    lam=st.floats(min_value=1e-3, max_value=5.0),
    mu=st.floats(min_value=1e-3, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_birth_death_detailed_balance(lam, mu):
    """Property: the 2-state steady state satisfies detailed balance."""
    chain = CTMC(np.array([[0.0, lam], [mu, 0.0]]), {0: 1.0})
    distribution = steady_state_distribution(chain)
    assert distribution[0] * lam == pytest.approx(distribution[1] * mu, rel=1e-9)
    assert distribution.sum() == pytest.approx(1.0)
