"""Cross-validation of the three semantic paths (the paper's Section 2 claim).

The paper states that the PRISM (reactive-modules) translation and the
original I/O-IMC translation "lead to identical results for the constructs
occurring in this case study".  These tests verify exactly that, on models
small enough to build through all three paths:

* direct Arcade state-space generation,
* Arcade → reactive modules → CTMC,
* Arcade → I/O-IMC → compose → hide → maximal progress → CTMC,

by comparing state counts, lumping quotients and computed measures.  The
same checks also run on seeded generated facilities
(:func:`helpers.make_random_model`), not only on the hand-written models.
"""

import numpy as np
import pytest

from repro.arcade import build_state_space
from repro.arcade.to_iomc import arcade_iomc_ctmc
from repro.arcade.to_modules import arcade_to_modules
from repro.ctmc import (
    lump_ctmc,
    steady_state_distribution,
    time_bounded_reachability,
)
from repro.modules import build_ctmc
from helpers import make_mini_model, make_random_model, make_spare_model


def availability(chain) -> float:
    distribution = steady_state_distribution(chain)
    return float(distribution[chain.label_mask("operational")].sum())


def unreliability_like(chain, t: float) -> float:
    return float(time_bounded_reachability(chain, "down", t))


STRATEGIES = ["dedicated", "fcfs", "fastest_repair_first", "fastest_failure_first", "priority"]

#: Generated facilities.  The reactive-modules path encodes preemptive queues
#: only; the I/O-IMC path needs hot spares and composes slowly, so it runs on
#: the hot-spare draws with at most six components.
GENERATED = {seed: make_random_model(seed) for seed in range(30)}
MODULES_SEEDS = [
    seed for seed, model in GENERATED.items()
    if all(unit.preemptive for unit in model.repair_units)
]
IOMC_SEEDS = [
    seed for seed, model in GENERATED.items()
    if len(model.components) <= 6
    and all(component.dormancy_factor == 1.0 for component in model.components)
]


def assert_direct_and_modules_agree(model):
    direct = build_state_space(model)
    modules = build_ctmc(arcade_to_modules(model))

    assert direct.num_states == modules.num_states
    assert direct.num_transitions == modules.num_transitions
    assert availability(direct.chain) == pytest.approx(availability(modules.chain), abs=1e-10)
    for t in (1.0, 10.0):
        assert unreliability_like(direct.chain, t) == pytest.approx(
            unreliability_like(modules.chain, t), abs=1e-9
        )
    # The cost reward structures agree on the expected steady-state cost rate.
    direct_cost = steady_state_distribution(direct.chain) @ direct.reward_model.reward_structure(
        "cost"
    ).state_rewards
    modules_cost = steady_state_distribution(modules.chain) @ modules.reward_model.reward_structure(
        "cost"
    ).state_rewards
    assert direct_cost == pytest.approx(modules_cost, abs=1e-9)


def assert_direct_and_iomc_agree(model):
    direct = build_state_space(model)
    iomc_chain = arcade_iomc_ctmc(model)

    assert iomc_chain.num_states == direct.num_states
    assert availability(iomc_chain) == pytest.approx(availability(direct.chain), abs=1e-10)
    assert unreliability_like(iomc_chain, 5.0) == pytest.approx(
        unreliability_like(direct.chain, 5.0), abs=1e-9
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("crews", [1, 2])
def test_direct_and_modules_translations_agree(strategy, crews):
    assert_direct_and_modules_agree(make_mini_model(strategy, crews))


@pytest.mark.parametrize("seed", MODULES_SEEDS)
def test_direct_and_modules_translations_agree_on_generated_facilities(seed):
    assert_direct_and_modules_agree(GENERATED[seed])


@pytest.mark.parametrize("strategy", ["dedicated", "fastest_repair_first", "fastest_failure_first"])
def test_direct_and_iomc_translations_agree(strategy):
    assert_direct_and_iomc_agree(make_mini_model(strategy))


@pytest.mark.parametrize("seed", IOMC_SEEDS)
def test_direct_and_iomc_translations_agree_on_generated_facilities(seed):
    assert_direct_and_iomc_agree(GENERATED[seed])


def test_generated_facilities_cover_the_model_space():
    """The generator reaches every strategy, both disciplines and every pool mode."""
    models = GENERATED.values()
    units = [unit for model in models for unit in model.repair_units]
    assert {unit.strategy.value for unit in units} == set(STRATEGIES)
    assert {unit.preemptive for unit in units} == {True, False}
    assert {unit.crews for unit in units} == {1, 2}
    assert {len(model.repair_units) for model in models} == {1, 2}
    assert {len(model.components) for model in models} == set(range(3, 8))
    assert {model.components[0].dormancy_factor for model in models} == {0.0, 0.5, 1.0}
    for model in models:
        assert model.repair_unit_of(model.components[-1].name) is None
    # Some non-preemptive draws are checked, through the I/O-IMC path.
    assert set(IOMC_SEEDS) - set(MODULES_SEEDS)


def test_lumping_quotients_are_isomorphic_in_size():
    model = make_mini_model("fastest_repair_first", crews=2)
    direct = build_state_space(model)
    modules = build_ctmc(arcade_to_modules(model))
    direct_quotient, _ = lump_ctmc(direct.chain, respect_initial=True)
    modules_quotient, _ = lump_ctmc(modules.chain, respect_initial=True)
    assert direct_quotient.num_states == modules_quotient.num_states
    assert direct_quotient.num_transitions == modules_quotient.num_transitions


def test_spare_management_translation_agrees():
    model = make_spare_model(dormancy=0.0)
    direct = build_state_space(model)
    modules = build_ctmc(arcade_to_modules(model))
    assert direct.num_states == modules.num_states
    assert availability(direct.chain) == pytest.approx(availability(modules.chain), abs=1e-10)


def test_disaster_initial_state_translation_agrees():
    model = make_mini_model("fastest_repair_first")
    disaster = model.disaster("everything")
    direct = build_state_space(model)
    good_chain = direct.chain_for_disaster(disaster)

    modules = build_ctmc(arcade_to_modules(model, initial_failed=disaster))
    # Recovery probability to "operational" within t must agree.
    for t in (1.0, 5.0, 20.0):
        from_direct = time_bounded_reachability(good_chain, "operational", t)
        from_modules = time_bounded_reachability(modules.chain, "operational", t)
        assert from_direct == pytest.approx(from_modules, abs=1e-9)


def test_nonpreemptive_modules_translation_rejected():
    from repro.arcade.components import ArcadeModelError

    model = make_mini_model("fastest_repair_first", preemptive=False)
    with pytest.raises(ArcadeModelError):
        arcade_to_modules(model)
