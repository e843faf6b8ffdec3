"""Repair units and repair strategies.

A repair unit (RU) is responsible for a set of components.  When components
fail they enter the unit's *repair queue*; the unit's ``crews`` foremost
queue entries are *in service*, i.e. actively being repaired (each at its
own repair rate).  The **strategy** determines where a newly-failed
component is inserted into the queue:

``DEDICATED``
    Every component effectively has its own crew — all failed components are
    repaired in parallel; the queue order is irrelevant (and is kept in a
    canonical order so that the state space stays minimal, matching the
    ``2^n`` states of the paper's Table 1).
``FCFS``
    First-come-first-served: new failures are appended at the end.
``FASTEST_REPAIR_FIRST`` (FRF)
    Components with a shorter MTTR (larger repair rate) are repaired first;
    ties are broken first-come-first-served, as prescribed in Section 2 of
    the paper.
``FASTEST_FAILURE_FIRST`` (FFF)
    Components with a shorter MTTF (larger failure rate) are repaired first;
    ties FCFS.
``PRIORITY``
    Components with a smaller priority number are repaired first; ties FCFS.
    This is the "non-preemptive priority scheduling" the paper's abstract
    refers to when the priorities are chosen by the operator.

Two queueing disciplines are supported:

* ``preemptive`` (default): the queue is always kept in policy order, so a
  newly failed high-priority component moves ahead of lower-priority
  components even if one of those is currently in service.  Because repair
  times are exponential, no work is lost by pre-emption, and the reachable
  state space is independent of the number of crews (the observation made
  for Table 1 of the paper).
* ``non_preemptive``: a new arrival is never inserted ahead of a component
  that is already in service.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence

from repro.arcade.components import ArcadeModelError, BasicComponent


class RepairStrategy(enum.Enum):
    """The repair-scheduling strategies compared in the paper."""

    DEDICATED = "dedicated"
    FCFS = "fcfs"
    FASTEST_REPAIR_FIRST = "fastest_repair_first"
    FASTEST_FAILURE_FIRST = "fastest_failure_first"
    PRIORITY = "priority"

    @staticmethod
    def from_string(value: str) -> "RepairStrategy":
        """Parse a strategy name; accepts the paper's abbreviations too."""
        normalised = value.strip().lower().replace("-", "_").replace(" ", "_")
        aliases = {
            "ded": RepairStrategy.DEDICATED,
            "dedicated": RepairStrategy.DEDICATED,
            "fcfs": RepairStrategy.FCFS,
            "first_come_first_served": RepairStrategy.FCFS,
            "first_come_first_serve": RepairStrategy.FCFS,
            "frf": RepairStrategy.FASTEST_REPAIR_FIRST,
            "fastest_repair_first": RepairStrategy.FASTEST_REPAIR_FIRST,
            "fff": RepairStrategy.FASTEST_FAILURE_FIRST,
            "fastest_failure_first": RepairStrategy.FASTEST_FAILURE_FIRST,
            "priority": RepairStrategy.PRIORITY,
            "prio": RepairStrategy.PRIORITY,
        }
        try:
            return aliases[normalised]
        except KeyError:
            raise ArcadeModelError(f"unknown repair strategy {value!r}") from None

    def short_name(self, crews: int | None = None) -> str:
        """The paper's abbreviation, e.g. ``"FRF-2"``."""
        base = {
            RepairStrategy.DEDICATED: "DED",
            RepairStrategy.FCFS: "FCFS",
            RepairStrategy.FASTEST_REPAIR_FIRST: "FRF",
            RepairStrategy.FASTEST_FAILURE_FIRST: "FFF",
            RepairStrategy.PRIORITY: "PRIO",
        }[self]
        if crews is None or self is RepairStrategy.DEDICATED:
            return base
        return f"{base}-{crews}"


#: The component attribute that orders each strategy's queue (smaller first).
#: FCFS and DEDICATED keys are all equal, so they have no entry.
_POLICY_ATTRIBUTE = {
    RepairStrategy.FASTEST_REPAIR_FIRST: "mttr",
    RepairStrategy.FASTEST_FAILURE_FIRST: "mttf",
    RepairStrategy.PRIORITY: "priority",
}


@dataclass(frozen=True)
class RepairUnit:
    """A repair unit: a strategy, a number of crews and a set of components.

    Parameters
    ----------
    name:
        Unique repair-unit name.
    strategy:
        The scheduling strategy (a :class:`RepairStrategy` or its string name).
    components:
        Names of the components under this unit's responsibility.
    crews:
        Number of repair crews (ignored for ``DEDICATED``, which behaves as
        if there were a crew per component).
    preemptive:
        Queueing discipline, see the module docstring.
    """

    name: str
    strategy: RepairStrategy
    components: tuple[str, ...]
    crews: int = 1
    preemptive: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):
            object.__setattr__(self, "strategy", RepairStrategy.from_string(self.strategy))
        object.__setattr__(self, "components", tuple(self.components))
        if not self.name:
            raise ArcadeModelError("a repair unit needs a non-empty name")
        if not self.components:
            raise ArcadeModelError(f"repair unit {self.name!r} is responsible for no components")
        if len(set(self.components)) != len(self.components):
            raise ArcadeModelError(f"repair unit {self.name!r} lists a component twice")
        if self.crews < 1:
            raise ArcadeModelError(f"repair unit {self.name!r} needs at least one crew")
        # Resolved once: ``insert`` reads one attribute per queued entry
        # instead of building a policy key for it on every call.
        object.__setattr__(self, "_policy_attribute", _POLICY_ATTRIBUTE.get(self.strategy))

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short label such as ``"FRF-2"`` used in tables and figures."""
        return self.strategy.short_name(self.crews)

    def effective_crews(self) -> int:
        """The number of crews actually available (``DEDICATED`` ⇒ one per component)."""
        if self.strategy is RepairStrategy.DEDICATED:
            return len(self.components)
        return self.crews

    def covers(self, component_name: str) -> bool:
        return component_name in self.components

    # ------------------------------------------------------------------
    # queue mechanics
    # ------------------------------------------------------------------
    def policy_key(self, component: BasicComponent) -> tuple:
        """The sort key of ``component`` under this unit's strategy.

        Smaller keys are repaired earlier.  FCFS and DEDICATED use a constant
        key, so insertion order is preserved.
        """
        attribute = self._policy_attribute
        return (0,) if attribute is None else (getattr(component, attribute),)

    def insert(
        self,
        queue: Sequence[str],
        component: BasicComponent,
        components_by_name: Mapping[str, BasicComponent],
    ) -> tuple[str, ...]:
        """Insert a newly failed ``component`` into ``queue``.

        Returns the new queue (a tuple).  The insertion point follows the
        strategy's policy order with FCFS tie-breaking; under the
        non-preemptive discipline the insertion point never lies before the
        components currently in service.
        """
        if component.name in queue:
            raise ArcadeModelError(
                f"component {component.name!r} is already in the repair queue of {self.name!r}"
            )
        if self.strategy is RepairStrategy.DEDICATED:
            # Canonical order (by name) keeps the state space minimal; every
            # queued component is in service anyway.
            return tuple(sorted([*queue, component.name]))

        position = len(queue)
        attribute = self._policy_attribute
        if attribute is not None:
            key = getattr(component, attribute)
            for index, queued_name in enumerate(queue):
                if getattr(components_by_name[queued_name], attribute) > key:
                    position = index
                    break
        if not self.preemptive:
            in_service = min(self.effective_crews(), len(queue))
            position = max(position, in_service)
        updated = list(queue)
        updated.insert(position, component.name)
        return tuple(updated)

    def in_service(self, queue: Sequence[str]) -> tuple[str, ...]:
        """The components of ``queue`` currently being repaired."""
        if self.strategy is RepairStrategy.DEDICATED:
            return tuple(queue)
        return tuple(queue[: self.effective_crews()])

    def remove(self, queue: Sequence[str], component_name: str) -> tuple[str, ...]:
        """Remove a repaired component from the queue."""
        if component_name not in queue:
            raise ArcadeModelError(
                f"component {component_name!r} is not in the repair queue of {self.name!r}"
            )
        return tuple(name for name in queue if name != component_name)

    def idle_crews(self, queue: Sequence[str]) -> int:
        """Number of idle crews in the given queue state."""
        total = self.effective_crews()
        return total - min(total, len(self.in_service(queue)))

    def busy_crews(self, queue: Sequence[str]) -> int:
        """Number of busy crews in the given queue state."""
        return self.effective_crews() - self.idle_crews(queue)

    def initial_queue(
        self,
        failed: Iterable[str],
        components_by_name: Mapping[str, BasicComponent],
    ) -> tuple[str, ...]:
        """Build the repair queue for a Given-Occurrence-Of-Disaster state.

        The order in which the disaster's components failed is unknown, so —
        following Section 5 of the paper — the components' *priorities*
        define the arrival order before the strategy's own policy order is
        applied.
        """
        queue: tuple[str, ...] = ()
        ordered = sorted(
            failed,
            key=lambda name: (components_by_name[name].priority, name),
        )
        for name in ordered:
            queue = self.insert(queue, components_by_name[name], components_by_name)
        return queue

    def with_strategy(self, strategy: RepairStrategy | str, crews: int | None = None) -> "RepairUnit":
        """Return a copy with a different strategy (and optionally crew count)."""
        if isinstance(strategy, str):
            strategy = RepairStrategy.from_string(strategy)
        return RepairUnit(
            name=self.name,
            strategy=strategy,
            components=self.components,
            crews=self.crews if crews is None else crews,
            preemptive=self.preemptive,
        )
