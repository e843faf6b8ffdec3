"""Shared model builders used by fixtures and tests alike."""

from __future__ import annotations

import random

import numpy as np
from scipy import sparse

from repro.arcade import (
    ArcadeModel,
    BasicComponent,
    BasicEvent,
    FaultTree,
    KOfN,
    Or,
    RepairUnit,
    SpareManagementUnit,
)
from repro.arcade.model import Disaster


def make_mini_model(
    strategy: str = "fastest_repair_first",
    crews: int = 1,
    preemptive: bool = True,
) -> ArcadeModel:
    """A three-component model small enough for exhaustive cross-checks."""
    components = (
        BasicComponent("alpha", mttf=100.0, mttr=2.0, priority=2),
        BasicComponent("beta", mttf=50.0, mttr=5.0, priority=1),
        BasicComponent("gamma", mttf=200.0, mttr=1.0, priority=3),
    )
    repair = RepairUnit(
        "unit",
        strategy=strategy,
        components=("alpha", "beta", "gamma"),
        crews=crews,
        preemptive=preemptive,
    )
    fault_tree = FaultTree(
        Or(BasicEvent("alpha"), BasicEvent("beta"), BasicEvent("gamma"))
    )
    disaster = Disaster("everything", ("alpha", "beta", "gamma"))
    return ArcadeModel(
        name="mini",
        components=components,
        repair_units=(repair,),
        fault_tree=fault_tree,
        disasters=(disaster,),
    )


def make_spare_model(dormancy: float = 0.0) -> ArcadeModel:
    """Two pumps (one needed) with a configurable standby mode, plus a valve."""
    components = (
        BasicComponent("pump1", mttf=100.0, mttr=4.0, dormancy_factor=dormancy),
        BasicComponent("pump2", mttf=100.0, mttr=4.0, dormancy_factor=dormancy),
        BasicComponent("valve", mttf=400.0, mttr=8.0),
    )
    repair = RepairUnit("unit", "fcfs", ("pump1", "pump2", "valve"), crews=1)
    spare = SpareManagementUnit("pumps", ("pump1", "pump2"), required=1)
    fault_tree = FaultTree(
        Or(KOfN(2, [BasicEvent("pump1"), BasicEvent("pump2")]), BasicEvent("valve"))
    )
    return ArcadeModel(
        name="spares",
        components=components,
        repair_units=(repair,),
        spare_units=(spare,),
        fault_tree=fault_tree,
    )


_STRATEGIES = ("dedicated", "fcfs", "fastest_repair_first", "fastest_failure_first", "priority")


def make_random_model(seed: int) -> ArcadeModel:
    """A seeded random facility for differential checks of the translations.

    Each draw has 3–7 components, the last of which no repair unit covers,
    and 1–2 repair units over the others with a random strategy, 1–2 crews
    and either queueing discipline.  The first 2–3 components form a spare
    pool.  Its dormancy is warm or cold when every unit is preemptive, and
    hot otherwise, so that a non-preemptive draw can still be checked
    through the I/O-IMC path (the reactive-modules path encodes preemptive
    queues only).  Mean times are drawn from short lists so that policy-key
    ties, and hence FCFS tie-breaking, are common.

    The fault tree is a small network: a k-of-n gate over stations, where
    the pool votes on its required members and every other station is a
    single component or a k-of-n gate over a few of them (k = 1 is a series
    stage, k = n a redundant one).
    """
    rng = random.Random(seed)
    names = [f"c{index}" for index in range(rng.randint(3, 7))]
    covered = names[:-1]

    groups = [covered]
    if len(covered) >= 2 and rng.random() < 0.5:
        split = rng.randint(1, len(covered) - 1)
        groups = [covered[:split], covered[split:]]
    units = tuple(
        RepairUnit(
            f"unit{index}",
            strategy=rng.choice(_STRATEGIES),
            components=tuple(group),
            crews=rng.randint(1, 2),
            preemptive=rng.random() < 0.7,
        )
        for index, group in enumerate(groups)
    )
    preemptive = all(unit.preemptive for unit in units)

    pool = names[: rng.randint(2, min(3, len(names) - 1))]
    required = rng.randint(1, len(pool) - 1)
    dormancy = rng.choice((0.0, 0.5)) if preemptive else 1.0
    components = tuple(
        BasicComponent(
            name,
            mttf=rng.choice((50.0, 100.0, 200.0)),
            mttr=rng.choice((1.0, 2.0, 4.0)),
            priority=rng.randint(0, 2),
            dormancy_factor=dormancy if name in pool else 1.0,
        )
        for name in names
    )
    spare = SpareManagementUnit("pool", tuple(pool), required=required)

    stations = [KOfN(len(pool) - required + 1, [BasicEvent(name) for name in pool])]
    rest = names[len(pool) :]
    while rest:
        size = rng.randint(1, min(3, len(rest)))
        members, rest = rest[:size], rest[size:]
        if size == 1:
            stations.append(BasicEvent(members[0]))
        else:
            stations.append(KOfN(rng.randint(1, size), [BasicEvent(name) for name in members]))
    root = stations[0] if len(stations) == 1 else KOfN(rng.randint(1, len(stations)), stations)
    return ArcadeModel(
        name=f"random{seed}",
        components=components,
        repair_units=units,
        spare_units=(spare,),
        fault_tree=FaultTree(root),
    )


def gth_stationary(generator) -> np.ndarray:
    """Stationary vector of an irreducible generator by GTH elimination.

    Grassmann–Taksar–Heyman state reduction on a dense copy: states are
    folded away from the last one down, dividing each column by the folded
    state's outflow to the states that remain, and the vector is rebuilt by
    back substitution.  Only off-diagonal rates enter, and no step
    subtracts, so every entry is accurate to relative precision however
    stiff the rates.
    """
    rates = generator.toarray() if sparse.issparse(generator) else np.array(generator, dtype=float)
    np.fill_diagonal(rates, 0.0)
    size = rates.shape[0]
    for state in range(size - 1, 0, -1):
        rates[:state, state] /= rates[state, :state].sum()
        rates[:state, :state] += np.outer(rates[:state, state], rates[state, :state])
    vector = np.zeros(size)
    vector[0] = 1.0
    for state in range(1, size):
        vector[state] = vector[:state] @ rates[:state, state]
    return vector / vector.sum()
