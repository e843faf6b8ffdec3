"""Direct expansion of an Arcade model into a labelled CTMC.

This is the computational fast path used by the experiments (the reactive
modules and I/O-IMC translations are alternative routes that tests check for
agreement).  The state of the CTMC is

* one *repair queue* per repair unit — the ordered tuple of failed
  components under that unit's responsibility; the first ``crews`` entries
  are in service (see :mod:`repro.arcade.repair`), and
* the set of failed components not covered by any repair unit (they stay
  failed forever).

Transitions:

* an *up* component ``c`` fails with its effective failure rate (dormant
  rate if a spare management unit currently keeps it in standby); it is
  inserted into its repair unit's queue according to the unit's strategy,
* every component in service is repaired with its repair rate and leaves the
  queue.

Because failure and repair transitions are all exponential and no two
components share a transition, failures never occur simultaneously — the
prerequisite (noted in Section 2 of the paper) for the deterministic CTMC
translation to agree with the I/O-IMC semantics.

Each state is labelled ``"down"``/``"operational"`` via the fault tree and
``"no_service"``/``"full_service"`` via the service tree; the quantitative
service level of every state is returned alongside the chain.  The cost
model becomes a reward structure named ``"cost"``.

Many states share one failed set and differ only in queue order (a Line 1
FRF chain has 33,280 states but 2^11 = 2,048 failed sets), so
:class:`ArcadeDynamics`, which the simulator uses too, computes everything
that depends on the failed set alone once per distinct set, keyed by a
component bitmask: the up components' effective (dormancy-aware) failure
rates, the labels, the exact service level and the cost rate.  The cost
belongs here because every failed covered component sits in its unit's
queue, so a unit's busy crews are ``min(crews, |failed ∩ unit|)``.  Queue
evolution through :class:`RepairUnit` is the only per-state work.  States
are numbered breadth-first from the all-up state; state order, chain, labels
and rewards are exactly those of a per-state expansion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from repro.arcade.components import ArcadeModelError
from repro.arcade.model import ArcadeModel, Disaster
from repro.ctmc import CTMC, MarkovRewardModel, RewardStructure
from repro.ctmc.ctmc import CTMCBuilder

#: A state is a pair ``(queues, uncovered_failed)`` where ``queues`` is a
#: tuple with one repair-queue tuple per repair unit (in model order) and
#: ``uncovered_failed`` is a sorted tuple of failed components that no
#: repair unit covers.
ArcadeState = tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]


@dataclass
class ArcadeStateSpace:
    """The result of expanding an :class:`ArcadeModel` into a CTMC.

    Attributes
    ----------
    model:
        The Arcade model that was expanded.
    chain:
        The labelled CTMC (initial state = everything operational).
    reward_model:
        The chain wrapped with the ``"cost"`` reward structure.
    states:
        The explored states, index-aligned with the chain.
    service_levels:
        Exact service level (a :class:`fractions.Fraction`) per state.
    with_repairs:
        Whether repair transitions were generated (``False`` for the
        reliability model).
    """

    model: ArcadeModel
    chain: CTMC
    reward_model: MarkovRewardModel
    states: list[ArcadeState]
    service_levels: list[Fraction]
    with_repairs: bool

    def __post_init__(self) -> None:
        self._index = {state: index for index, state in enumerate(self.states)}

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.chain.num_states

    @property
    def num_transitions(self) -> int:
        return self.chain.num_transitions

    def state_index(self, state: ArcadeState) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise ArcadeModelError(f"state {state!r} was not reached during expansion") from None

    def failed_components(self, state_index: int) -> frozenset[str]:
        """The failed components of a state."""
        return frozenset(failed_components(self.states[state_index]))

    def service_level_array(self) -> np.ndarray:
        """Service levels as a float vector (index-aligned with the chain)."""
        return np.array([float(level) for level in self.service_levels])

    def states_with_service_at_least(self, threshold: float | Fraction) -> np.ndarray:
        """Indices of states whose service level is at least ``threshold``.

        This is the set ``S_{sl(x)}`` of the paper.
        """
        limit = Fraction(threshold).limit_denominator(10**6) if not isinstance(
            threshold, Fraction
        ) else threshold
        return np.array(
            [index for index, level in enumerate(self.service_levels) if level >= limit],
            dtype=int,
        )

    # ------------------------------------------------------------------
    def disaster_state(self, disaster: Disaster | str) -> int:
        """The index of the state induced by a disaster (the GOOD start state).

        The repair queues of the disaster state are built from the component
        priorities, as prescribed by the paper for Given-Occurrence-Of-
        Disaster models.
        """
        return self.state_index(disaster_state(self.model, disaster))

    def initial_distribution_for_disaster(self, disaster: Disaster | str) -> np.ndarray:
        """A point-mass initial distribution on the disaster state."""
        distribution = np.zeros(self.num_states)
        distribution[self.disaster_state(disaster)] = 1.0
        return distribution

    def chain_for_disaster(self, disaster: Disaster | str) -> CTMC:
        """The same CTMC, started in the disaster state (the GOOD model)."""
        return self.chain.with_initial_distribution(
            self.initial_distribution_for_disaster(disaster)
        )


def failed_components(state: ArcadeState) -> set[str]:
    """The failed components of a state: its queued and its uncovered ones."""
    queues, uncovered = state
    return set(uncovered).union(*queues)


def disaster_state(model: ArcadeModel, disaster: Disaster | str) -> ArcadeState:
    """The state a disaster induces, with queues in component-priority order."""
    if isinstance(disaster, str):
        disaster = model.disaster(disaster)
    components_by_name = model.components_by_name()
    failed = set(disaster.failed_components)
    queues = tuple(
        unit.initial_queue([name for name in failed if unit.covers(name)], components_by_name)
        for unit in model.repair_units
    )
    covered = {name for unit in model.repair_units for name in unit.components}
    return (queues, tuple(sorted(failed - covered)))


class _FailedSet(NamedTuple):
    """Everything about a state that depends only on its failed components."""

    #: ``(name, bit, repair-unit index or None, rate)`` per up component
    #: with a positive effective failure rate, in model order.
    failures: tuple[tuple[str, int, int | None, float], ...]
    labels: tuple[str, ...]
    service_level: Fraction
    cost_rate: float


class ArcadeDynamics:
    """The transitions of a model's states, for the builder and the simulator.

    Failed sets are component bitmasks; their facts are computed on first
    use and memoised (see the module docstring).
    """

    def __init__(self, model: ArcadeModel, with_repairs: bool = True) -> None:
        self.model = model
        self.with_repairs = with_repairs
        self._components = model.components_by_name()
        self._bit = {name: 1 << position for position, name in enumerate(model.component_names)}
        # First covering unit wins, as in ArcadeModel.repair_unit_of.
        self._unit_index: dict[str, int] = {}
        for position, unit in enumerate(model.repair_units):
            for name in unit.components:
                self._unit_index.setdefault(name, position)
        self._service_tree = model.effective_service_tree()
        self._failed_sets: dict[int, _FailedSet] = {}

    def mask(self, state: ArcadeState) -> int:
        """The bitmask of a state's failed components."""
        return sum(self._bit[name] for name in failed_components(state))

    def failed_set(self, mask: int) -> _FailedSet:
        """The memoised facts of the failed set ``mask``."""
        info = self._failed_sets.get(mask)
        if info is None:
            info = self._failed_sets[mask] = self._evaluate(mask)
        return info

    def _evaluate(self, mask: int) -> _FailedSet:
        model = self.model
        failed = {name for name, bit in self._bit.items() if mask & bit}
        up = [name for name in model.component_names if name not in failed]
        failures = []
        for name in up:
            rate = model.effective_failure_rate(name, up)
            if rate > 0.0:
                failures.append((name, self._bit[name], self._unit_index.get(name), rate))
        labels = []
        if model.fault_tree is not None:
            labels.append("down" if model.is_down(failed) else "operational")
        level = self._service_tree.service_level(up)
        if level == 0:
            labels.append("no_service")
        if level == 1:
            labels.append("full_service")
        # Every failed covered component sits in its unit's queue, so the
        # busy crews are a function of the failed set as well.
        busy = {
            unit.name: min(unit.effective_crews(), len(failed.intersection(unit.components)))
            for unit in model.repair_units
        }
        cost_rate = model.state_cost_rate(failed, busy)
        return _FailedSet(tuple(failures), tuple(labels), level, cost_rate)

    def successors(self, state: ArcadeState, mask: int) -> list[tuple[float, ArcadeState, int]]:
        """``(rate, successor, successor mask)`` per transition: failures, then repairs."""
        queues, uncovered = state
        components = self._components
        units = self.model.repair_units
        transitions = []
        for name, bit, position, rate in self.failed_set(mask).failures:
            if position is None:
                successor = (queues, tuple(sorted([*uncovered, name])))
            else:
                new_queue = units[position].insert(queues[position], components[name], components)
                successor = (queues[:position] + (new_queue,) + queues[position + 1 :], uncovered)
            transitions.append((rate, successor, mask | bit))
        if self.with_repairs:
            for position, unit in enumerate(units):
                for name in unit.in_service(queues[position]):
                    new_queue = unit.remove(queues[position], name)
                    successor = (queues[:position] + (new_queue,) + queues[position + 1 :], uncovered)
                    rate = components[name].repair_rate
                    transitions.append((rate, successor, mask & ~self._bit[name]))
        return transitions


def build_state_space(
    model: ArcadeModel,
    with_repairs: bool = True,
    max_states: int | None = None,
) -> ArcadeStateSpace:
    """Expand ``model`` into an :class:`ArcadeStateSpace`.

    Parameters
    ----------
    model:
        The Arcade model.
    with_repairs:
        If ``False``, repair transitions are omitted; the resulting chain is
        the *reliability model* in which every failure is permanent (used
        for Figure 3 of the paper, where repairs are not considered).
    max_states:
        Optional safety limit on the number of reachable states.
    """
    dynamics = ArcadeDynamics(model, with_repairs)
    repair_units = model.repair_units
    initial_state: ArcadeState = (tuple(() for _ in repair_units), ())

    index_of: dict[ArcadeState, int] = {initial_state: 0}
    states: list[ArcadeState] = [initial_state]
    masks: list[int] = [0]
    queue: deque[int] = deque([0])

    builder = CTMCBuilder()
    builder.add_state(_describe(initial_state, repair_units))
    while queue:
        source = queue.popleft()
        for rate, successor, mask in dynamics.successors(states[source], masks[source]):
            target = index_of.get(successor)
            if target is None:
                target = index_of[successor] = len(states)
                states.append(successor)
                masks.append(mask)
                builder.add_state(_describe(successor, repair_units))
                queue.append(target)
                if max_states is not None and len(states) > max_states:
                    raise ArcadeModelError(f"state space exceeds the limit of {max_states} states")
            builder.add_transition(source, target, rate)

    service_levels: list[Fraction] = []
    cost_rates = np.zeros(len(states))
    for index, mask in enumerate(masks):
        info = dynamics.failed_set(mask)
        for label in info.labels:
            builder.add_label(label, index)
        service_levels.append(info.service_level)
        cost_rates[index] = info.cost_rate

    chain = builder.build({0: 1.0})
    reward_model = MarkovRewardModel(chain, RewardStructure("cost", cost_rates))
    return ArcadeStateSpace(
        model=model,
        chain=chain,
        reward_model=reward_model,
        states=states,
        service_levels=service_levels,
        with_repairs=with_repairs,
    )


def _describe(state: ArcadeState, repair_units) -> dict:
    queues, uncovered = state
    description = {
        unit.name: list(queue) for unit, queue in zip(repair_units, queues)
    }
    if uncovered:
        description["unrepaired"] = list(uncovered)
    return description
