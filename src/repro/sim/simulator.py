"""Event-driven simulation of Arcade models.

Because every delay in an Arcade model is exponential, simulation reduces to
repeatedly sampling the race between all currently-enabled transitions:

* every *up* component may fail (at its effective, possibly dormant, rate),
* every component *in service* at its repair unit may finish repair.

The state representation, the enabled transitions and the disaster queues
come from the same code as the analytic state-space generator
(:class:`repro.arcade.statespace.ArcadeDynamics`), so the simulator
exercises the model logic, not a re-implementation of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable

import numpy as np

from repro.arcade.model import ArcadeModel, Disaster
from repro.arcade.statespace import (
    ArcadeDynamics,
    ArcadeState,
    disaster_state,
    failed_components,
)


@dataclass
class SimulationRun:
    """A single simulated trajectory.

    Attributes
    ----------
    times:
        Entry times of the visited states; ``times[0]`` is 0.
    states:
        The visited states (same encoding as the analytic state space), one
        per entry time; the last state persists until ``horizon``.
    horizon:
        The simulated time horizon.
    """

    times: list[float]
    states: list[ArcadeState]
    horizon: float

    def state_at(self, time: float) -> ArcadeState:
        """The state occupied at ``time`` (0 <= time <= horizon)."""
        if time < 0 or time > self.horizon:
            raise ValueError(f"time {time} outside the simulated horizon [0, {self.horizon}]")
        index = int(np.searchsorted(np.asarray(self.times), time, side="right")) - 1
        return self.states[max(index, 0)]

    def holding_intervals(self) -> Iterable[tuple[float, float, ArcadeState]]:
        """Yield ``(start, end, state)`` for every holding period of the run."""
        for index, state in enumerate(self.states):
            start = self.times[index]
            end = self.times[index + 1] if index + 1 < len(self.times) else self.horizon
            if end > start:
                yield start, min(end, self.horizon), state


class ArcadeSimulator:
    """Monte-Carlo simulator for an :class:`~repro.arcade.model.ArcadeModel`.

    Like :func:`repro.arcade.statespace.build_state_space`, it needs a
    model with a fault tree or a service tree.
    """

    def __init__(
        self,
        model: ArcadeModel,
        with_repairs: bool = True,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._model = model
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._dynamics = ArcadeDynamics(model, with_repairs)

    @property
    def model(self) -> ArcadeModel:
        return self._model

    # ------------------------------------------------------------------
    def initial_state(self, disaster: Disaster | str | None = None) -> ArcadeState:
        """The all-up state, or the state induced by a disaster."""
        if disaster is None:
            return (tuple(() for _ in self._model.repair_units), ())
        return disaster_state(self._model, disaster)

    # ------------------------------------------------------------------
    def simulate(
        self,
        horizon: float,
        disaster: Disaster | str | None = None,
    ) -> SimulationRun:
        """Simulate one trajectory of length ``horizon`` hours."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        state = self.initial_state(disaster)
        mask = self._dynamics.mask(state)
        times = [0.0]
        states = [state]
        clock = 0.0
        while True:
            transitions = self._dynamics.successors(state, mask)
            if not transitions:
                break
            total_rate = sum(rate for rate, _, _ in transitions)
            clock += float(self._rng.exponential(1.0 / total_rate))
            if clock >= horizon:
                break
            choice = float(self._rng.uniform(0.0, total_rate))
            cumulative = 0.0
            for rate, successor, successor_mask in transitions:
                cumulative += rate
                if choice <= cumulative:
                    state, mask = successor, successor_mask
                    break
            times.append(clock)
            states.append(state)
        return SimulationRun(times=times, states=states, horizon=horizon)

    # ------------------------------------------------------------------
    # per-state observables (shared by the estimators)
    # ------------------------------------------------------------------
    def failed_components(self, state: ArcadeState) -> set[str]:
        return failed_components(state)

    def is_operational(self, state: ArcadeState) -> bool:
        return not self._model.is_down(failed_components(state))

    def service_level(self, state: ArcadeState) -> Fraction:
        return self._dynamics.failed_set(self._dynamics.mask(state)).service_level

    def cost_rate(self, state: ArcadeState) -> float:
        return self._dynamics.failed_set(self._dynamics.mask(state)).cost_rate
