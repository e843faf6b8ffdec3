"""Tests for the ArcadeModel container, spare units and the direct state-space generator."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    BasicEvent,
    FaultTree,
    KOfN,
    Or,
    RepairUnit,
    SpareManagementUnit,
    build_state_space,
)
from repro.arcade.components import ArcadeModelError
from repro.arcade.fault_tree import ServiceTree
from repro.arcade.model import Disaster
from repro.casestudy.experiments import line_state_space
from repro.casestudy.facility import build_line, paper_strategy_configurations
from repro.ctmc import steady_state_distribution
from helpers import make_mini_model, make_spare_model


class TestSpareManagementUnit:
    def test_active_members_follow_preference_order(self):
        unit = SpareManagementUnit("pumps", ("p1", "p2", "p3"), required=2)
        assert unit.active_members({"p1", "p2", "p3"}) == ("p1", "p2")
        assert unit.active_members({"p2", "p3"}) == ("p2", "p3")
        assert unit.spares == 1
        assert unit.delivers_service({"p1", "p3"})
        assert not unit.delivers_service({"p3"})

    def test_dormant_rate_applied_to_standby_member(self):
        unit = SpareManagementUnit("pumps", ("p1", "p2"), required=1)
        cold = BasicComponent("p2", 100.0, 1.0, dormancy_factor=0.0)
        assert unit.failure_rate(cold, {"p1", "p2"}) == 0.0
        assert unit.failure_rate(cold, {"p2"}) == pytest.approx(0.01)

    def test_invalid_required_count(self):
        with pytest.raises(ArcadeModelError):
            SpareManagementUnit("pumps", ("p1",), required=2)

    def test_unknown_member_query(self):
        unit = SpareManagementUnit("pumps", ("p1",), required=1)
        with pytest.raises(ArcadeModelError):
            unit.is_active("p9", {"p1"})


class TestModelValidation:
    def test_component_covered_twice_rejected(self):
        components = (BasicComponent("a", 1.0, 1.0), BasicComponent("b", 1.0, 1.0))
        units = (
            RepairUnit("u1", "fcfs", ("a",)),
            RepairUnit("u2", "fcfs", ("a", "b")),
        )
        with pytest.raises(ArcadeModelError):
            ArcadeModel("m", components, units)

    def test_unknown_component_in_fault_tree_rejected(self):
        with pytest.raises(ArcadeModelError):
            ArcadeModel(
                "m",
                (BasicComponent("a", 1.0, 1.0),),
                fault_tree=FaultTree(BasicEvent("ghost")),
            )

    def test_unknown_component_in_disaster_rejected(self):
        with pytest.raises(ArcadeModelError):
            ArcadeModel(
                "m",
                (BasicComponent("a", 1.0, 1.0),),
                disasters=(Disaster("d", ("ghost",)),),
            )

    def test_lookups(self, mini_model):
        assert mini_model.component("alpha").mttf == 100.0
        with pytest.raises(ArcadeModelError):
            mini_model.component("ghost")
        assert mini_model.repair_unit_of("alpha").name == "unit"
        assert mini_model.spare_unit_of("alpha") is None
        assert mini_model.disaster("everything").failed_components == ("alpha", "beta", "gamma")

    def test_with_repair_strategy_sweeps(self, mini_model):
        changed = mini_model.with_repair_strategy("dedicated")
        assert changed.strategy_label() == "DED"
        assert mini_model.strategy_label() == "FRF-1"
        two_crews = mini_model.with_repair_strategy("fff", crews=2)
        assert two_crews.strategy_label() == "FFF-2"

    def test_service_level_via_model(self, mini_model):
        assert mini_model.service_level([]) == 1
        assert mini_model.service_level(["alpha"]) < 1

    def test_state_cost_rate(self, mini_model):
        # One component failed (3/h) and the single crew busy (0/h idle cost saved).
        cost = mini_model.state_cost_rate(["alpha"], {"unit": 1})
        assert cost == pytest.approx(3.0)
        cost_idle = mini_model.state_cost_rate([], {"unit": 0})
        assert cost_idle == pytest.approx(1.0)


class TestStateSpace:
    def test_mini_model_single_crew_counts(self, mini_space):
        # 3 components, FRF with distinct repair rates: queue order is determined
        # by the failed set, so the reachable space is 2^3 = 8 states.
        assert mini_space.num_states == 8
        assert mini_space.with_repairs is True

    def test_dedicated_equals_power_set(self):
        space = build_state_space(make_mini_model("dedicated"))
        assert space.num_states == 8
        assert space.num_transitions == 3 * 8

    def test_reliability_space_has_no_repairs(self, mini_model):
        space = build_state_space(mini_model, with_repairs=False)
        # Without repairs, transitions only remove components: 3*4 + ... = 12.
        assert space.num_transitions == 12
        # The all-failed state is absorbing.
        distribution = steady_state_distribution(space.chain)
        # FRF policy order: gamma (MTTR 1) before alpha (2) before beta (5).
        all_failed = space.state_index(((("gamma", "alpha", "beta"),), ()))
        assert distribution[all_failed] == pytest.approx(1.0)

    def test_labels_and_service_levels(self, mini_space):
        chain = mini_space.chain
        assert chain.label_mask("operational").sum() == 1  # only the all-up state
        assert chain.label_mask("down").sum() == 7
        assert mini_space.service_levels[0] == 1
        assert set(mini_space.service_level_array()) <= {0.0, 1.0, 1 / 3, 2 / 3}

    def test_states_with_service_at_least(self, mini_space):
        everything = mini_space.states_with_service_at_least(0.0)
        assert len(everything) == mini_space.num_states
        full = mini_space.states_with_service_at_least(1)
        assert len(full) == 1

    def test_disaster_state_lookup(self, mini_space):
        index = mini_space.disaster_state("everything")
        assert mini_space.failed_components(index) == {"alpha", "beta", "gamma"}
        distribution = mini_space.initial_distribution_for_disaster("everything")
        assert distribution[index] == 1.0
        good_chain = mini_space.chain_for_disaster("everything")
        assert good_chain.initial_state == index

    def test_cost_reward_structure(self, mini_space):
        rewards = mini_space.reward_model.reward_structure("cost").state_rewards
        # All-up state: crew idle -> cost 1; all-down state: 9 (components) + 0 (busy crew).
        assert rewards[0] == pytest.approx(1.0)
        all_down = mini_space.disaster_state("everything")
        assert rewards[all_down] == pytest.approx(9.0)

    def test_max_states_limit(self, mini_model):
        with pytest.raises(ArcadeModelError):
            build_state_space(mini_model, max_states=3)

    def test_unknown_state_lookup_raises(self, mini_space):
        with pytest.raises(ArcadeModelError):
            mini_space.state_index(((("ghost",),), ()))

    def test_uncovered_components_stay_failed(self):
        components = (BasicComponent("a", 10.0, 1.0), BasicComponent("b", 20.0, 2.0))
        model = ArcadeModel(
            "partial",
            components,
            repair_units=(RepairUnit("ru", "fcfs", ("a",)),),
            fault_tree=FaultTree(Or(BasicEvent("a"), BasicEvent("b"))),
        )
        space = build_state_space(model)
        # b is never repaired: in the long run it is failed with probability 1.
        distribution = steady_state_distribution(space.chain)
        b_failed = sum(
            probability
            for index, probability in enumerate(distribution)
            if "b" in space.failed_components(index)
        )
        assert b_failed == pytest.approx(1.0, abs=1e-9)


class TestSpareStateSpace:
    def test_cold_spare_cannot_fail_while_dormant(self):
        space = build_state_space(make_spare_model(dormancy=0.0))
        # From the all-up state, pump2 (the dormant spare) cannot fail: only
        # pump1 and the valve have outgoing failure transitions.
        assert len(space.chain.successors(0)) == 2

    def test_hot_spare_can_fail_while_dormant(self):
        space = build_state_space(make_spare_model(dormancy=1.0))
        assert len(space.chain.successors(0)) == 3

    def test_cold_spare_improves_availability(self):
        cold = build_state_space(make_spare_model(dormancy=0.0))
        hot = build_state_space(make_spare_model(dormancy=1.0))
        availability_cold = float(
            steady_state_distribution(cold.chain)[cold.chain.label_mask("operational")].sum()
        )
        availability_hot = float(
            steady_state_distribution(hot.chain)[hot.chain.label_mask("operational")].sum()
        )
        assert availability_cold > availability_hot


# ---------------------------------------------------------------------------
# the ten paper chains, pinned
# ---------------------------------------------------------------------------
#: ``(line, strategy, states, transitions, fingerprint prefix, digest prefix)``
#: of every paper chain; the digest covers labels, cost rates and service
#: levels (see ``_annotation_digest``).
PAPER_CHAINS = [
    ("line1", "DED", 2048, 22528, "7cf8093aea50b2a4", "485a7a5f790fdc63"),
    ("line1", "FRF-1", 33280, 145087, "de9da5c4b4e2f4a8", "411c90e32aad4762"),
    ("line1", "FRF-2", 33280, 178355, "a4b2772a37a9019a", "fd169908805154a8"),
    ("line1", "FFF-1", 33280, 145087, "55c7cdab766abb43", "411c90e32aad4762"),
    ("line1", "FFF-2", 33280, 178355, "64e9e7d5b49ecb6a", "fd169908805154a8"),
    ("line2", "DED", 512, 4608, "f9fc3e60e2c11c95", "06e9b098c9dd1fde"),
    ("line2", "FRF-1", 2560, 10687, "08dadaeb4f352a46", "70fd17f5596ce913"),
    ("line2", "FRF-2", 2560, 13237, "98c74ca575a41941", "7941247e212f1f70"),
    ("line2", "FFF-1", 2560, 10687, "1b983e186394f3fd", "70fd17f5596ce913"),
    ("line2", "FFF-2", 2560, 13237, "1a58933805717903", "7941247e212f1f70"),
]


def _annotation_digest(space) -> str:
    digest = hashlib.sha256()
    chain = space.chain
    for name in chain.label_names:
        digest.update(name.encode())
        digest.update(np.flatnonzero(chain.label_mask(name)).astype("<i8").tobytes())
    rewards = space.reward_model.reward_structure("cost").state_rewards
    digest.update(np.asarray(rewards, dtype="<f8").tobytes())
    levels = ",".join(f"{level.numerator}/{level.denominator}" for level in space.service_levels)
    digest.update(levels.encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "line, label, states, transitions, fingerprint, digest",
    PAPER_CHAINS,
    ids=[f"{line}-{label}" for line, label, *_ in PAPER_CHAINS],
)
def test_paper_chain_expansion_is_pinned(line, label, states, transitions, fingerprint, digest):
    configuration = {
        configuration.label: configuration for configuration in paper_strategy_configurations()
    }[label]
    space = line_state_space(line, configuration)
    assert space.num_states == states
    assert space.num_transitions == transitions
    assert space.chain.fingerprint.startswith(fingerprint)
    assert _annotation_digest(space).startswith(digest)


def test_trees_are_evaluated_once_per_failed_set(monkeypatch):
    """Line 1 FRF-1 has 33,280 states but only 2^11 distinct failed sets."""
    calls = {"fault": 0, "service": 0}
    is_down = FaultTree.is_down
    service_level = ServiceTree.service_level

    def counted_is_down(self, failed):
        calls["fault"] += 1
        return is_down(self, failed)

    def counted_service_level(self, up):
        calls["service"] += 1
        return service_level(self, up)

    monkeypatch.setattr(FaultTree, "is_down", counted_is_down)
    monkeypatch.setattr(ServiceTree, "service_level", counted_service_level)
    space = build_state_space(build_line("line1", "fastest_repair_first", 1))
    assert space.num_states == 33280
    assert 0 < calls["fault"] <= 2**11
    assert 0 < calls["service"] <= 2**11
