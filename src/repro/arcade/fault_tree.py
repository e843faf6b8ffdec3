"""Fault trees and quantitative service trees.

Arcade defines when a system is *down* through a fault tree over the failure
modes of its basic components.  The DSN 2010 paper additionally derives a
*quantitative service tree* from the fault tree by swapping AND and OR gates
and giving the gates a quantitative interpretation over service values in
``[0, 1]``:

* quantitative AND — the minimum of its inputs (a series bottleneck),
* quantitative OR — the average of its inputs (the delivered fraction of a
  redundant phase),
* voting / spare phases — the capped fraction ``min(1, Σ inputs / required)``,
  so that spare components "do not create extra service intervals"
  (Section 5 of the paper).

Fault-tree nodes evaluate over the *failed* component set; service-tree
nodes evaluate over the *up* component set and return a float in ``[0, 1]``.
The duality is implemented by :meth:`FaultTree.to_service_tree`:

=====================  ============================================
fault-tree gate         dual service-tree gate
=====================  ============================================
basic event (failed)    component up value (0 or 1)
``Or``                  quantitative AND (minimum)
``And``                 quantitative OR (average)
``KOfN(k, n inputs)``   capped fraction with ``required = n - k + 1``
=====================  ============================================

Note that a plain ``Or`` over ``n`` basic events is the special case
``KOfN(1, n)``; its dual is the capped fraction with ``required = n``, i.e.
exactly the average — so the table above is consistent with the paper's
"substitute AND by OR and vice versa" description.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence, Set
from fractions import Fraction

from repro.arcade.components import ArcadeModelError

_ZERO, _ONE = Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# fault-tree nodes (evaluate over the set of FAILED components)
# ---------------------------------------------------------------------------
class FaultTreeNode:
    """Base class for fault-tree nodes."""

    __slots__ = ()

    def evaluate(self, failed: Set[str]) -> bool:
        """Whether this subtree's failure condition holds given ``failed``."""
        raise NotImplementedError

    def components(self) -> frozenset[str]:
        """The component names mentioned in the subtree."""
        raise NotImplementedError

    def to_service_node(self) -> "ServiceTreeNode":
        """The dual service-tree node (see module docstring)."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class BasicEvent(FaultTreeNode):
    """The failure of a single component."""

    component: str

    def evaluate(self, failed: Set[str]) -> bool:
        return self.component in failed

    def components(self) -> frozenset[str]:
        return frozenset({self.component})

    def to_service_node(self) -> "ServiceTreeNode":
        return ComponentService(self.component)

    def __str__(self) -> str:
        return self.component


@dataclass(frozen=True, slots=True)
class Or(FaultTreeNode):
    """Failure of *any* child causes this subtree to fail."""

    children: tuple[FaultTreeNode, ...]

    def __init__(self, *children: FaultTreeNode | Iterable[FaultTreeNode]) -> None:
        object.__setattr__(self, "children", _flatten(children))
        if len(self.children) < 1:
            raise ArcadeModelError("an OR gate needs at least one child")

    def evaluate(self, failed: Set[str]) -> bool:
        return any(child.evaluate(failed) for child in self.children)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def to_service_node(self) -> "ServiceTreeNode":
        return MinService(tuple(child.to_service_node() for child in self.children))

    def __str__(self) -> str:
        return "OR(" + ", ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True, slots=True)
class And(FaultTreeNode):
    """Only the failure of *all* children causes this subtree to fail."""

    children: tuple[FaultTreeNode, ...]

    def __init__(self, *children: FaultTreeNode | Iterable[FaultTreeNode]) -> None:
        object.__setattr__(self, "children", _flatten(children))
        if len(self.children) < 1:
            raise ArcadeModelError("an AND gate needs at least one child")

    def evaluate(self, failed: Set[str]) -> bool:
        return all(child.evaluate(failed) for child in self.children)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def to_service_node(self) -> "ServiceTreeNode":
        return AverageService(tuple(child.to_service_node() for child in self.children))

    def __str__(self) -> str:
        return "AND(" + ", ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True, slots=True)
class KOfN(FaultTreeNode):
    """Voting gate: the subtree fails once at least ``k`` children have failed.

    With ``n`` children this models a phase that needs ``n - k + 1`` of its
    members to be operational (e.g. the "(3+1)" pump group of Line 1 fails
    once 2 of the 4 pumps have failed).
    """

    k: int
    children: tuple[FaultTreeNode, ...]

    def __init__(self, k: int, children: Iterable[FaultTreeNode]) -> None:
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "children", _flatten([children]))
        if not 1 <= self.k <= len(self.children):
            raise ArcadeModelError(
                f"KOfN gate: k={self.k} must be between 1 and the number of children "
                f"({len(self.children)})"
            )

    @property
    def required_up(self) -> int:
        """Members that must be operational for the phase to deliver full service."""
        return len(self.children) - self.k + 1

    def evaluate(self, failed: Set[str]) -> bool:
        count = sum(1 for child in self.children if child.evaluate(failed))
        return count >= self.k

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def to_service_node(self) -> "ServiceTreeNode":
        return CappedFractionService(
            tuple(child.to_service_node() for child in self.children),
            required=self.required_up,
        )

    def __str__(self) -> str:
        return f"{self.k}-of-{len(self.children)}(" + ", ".join(
            str(child) for child in self.children
        ) + ")"


def _flatten(items: Iterable) -> tuple[FaultTreeNode, ...]:
    flattened: list[FaultTreeNode] = []
    for item in items:
        if isinstance(item, FaultTreeNode):
            flattened.append(item)
        elif isinstance(item, str):
            flattened.append(BasicEvent(item))
        else:
            for inner in item:
                if isinstance(inner, str):
                    flattened.append(BasicEvent(inner))
                elif isinstance(inner, FaultTreeNode):
                    flattened.append(inner)
                else:
                    raise ArcadeModelError(f"cannot use {inner!r} as a fault-tree child")
    return tuple(flattened)


# ---------------------------------------------------------------------------
# service-tree nodes (evaluate over the set of UP components, return [0, 1])
# ---------------------------------------------------------------------------
class ServiceTreeNode:
    """Base class for quantitative service-tree nodes."""

    __slots__ = ()

    def evaluate(self, up: Set[str]) -> Fraction:
        """The service level delivered by this subtree (an exact fraction)."""
        raise NotImplementedError

    def components(self) -> frozenset[str]:
        raise NotImplementedError

    def attainable_levels(self) -> frozenset[Fraction]:
        """All service values this subtree can possibly produce.

        Computed compositionally (without enumerating global states); used to
        derive the paper's service intervals X1, X2, ... exactly.
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class ComponentService(ServiceTreeNode):
    """Service contribution of a single component: 1 if up, 0 if failed."""

    component: str

    def evaluate(self, up: Set[str]) -> Fraction:
        return _ONE if self.component in up else _ZERO

    def components(self) -> frozenset[str]:
        return frozenset({self.component})

    def attainable_levels(self) -> frozenset[Fraction]:
        return frozenset({Fraction(0), Fraction(1)})

    def __str__(self) -> str:
        return self.component


@dataclass(frozen=True, slots=True)
class MinService(ServiceTreeNode):
    """Quantitative AND: the bottleneck (minimum) of the children."""

    children: tuple[ServiceTreeNode, ...]

    def evaluate(self, up: Set[str]) -> Fraction:
        return min(child.evaluate(up) for child in self.children)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def attainable_levels(self) -> frozenset[Fraction]:
        # The minimum of independent children can attain any child level that
        # is <= the maximum of every other child; since every child can reach
        # 1 and 0, the union of all child levels is attainable (and 0 always is).
        levels: set[Fraction] = set()
        for child in self.children:
            levels |= child.attainable_levels()
        return frozenset(levels)

    def __str__(self) -> str:
        return "MIN(" + ", ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True, slots=True)
class AverageService(ServiceTreeNode):
    """Quantitative OR: the average of the children (delivered fraction)."""

    children: tuple[ServiceTreeNode, ...]

    def evaluate(self, up: Set[str]) -> Fraction:
        total = sum((child.evaluate(up) for child in self.children), _ZERO)
        return total / len(self.children)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def attainable_levels(self) -> frozenset[Fraction]:
        sums = {Fraction(0)}
        for child in self.children:
            child_levels = child.attainable_levels()
            sums = {existing + level for existing in sums for level in child_levels}
        return frozenset(total / len(self.children) for total in sums)

    def __str__(self) -> str:
        return "AVG(" + ", ".join(str(child) for child in self.children) + ")"


@dataclass(frozen=True, slots=True)
class CappedFractionService(ServiceTreeNode):
    """Spare/voting phase: ``min(1, Σ children / required)``.

    ``required`` is the number of members needed for full service; surplus
    (spare) members raise reliability but not the service level, so they do
    not create additional service intervals.
    """

    children: tuple[ServiceTreeNode, ...]
    required: int

    def evaluate(self, up: Set[str]) -> Fraction:
        total = sum((child.evaluate(up) for child in self.children), _ZERO)
        return min(_ONE, total / self.required)

    def components(self) -> frozenset[str]:
        return frozenset().union(*(child.components() for child in self.children))

    def attainable_levels(self) -> frozenset[Fraction]:
        sums = {Fraction(0)}
        for child in self.children:
            child_levels = child.attainable_levels()
            sums = {existing + level for existing in sums for level in child_levels}
        return frozenset(min(Fraction(1), total / self.required) for total in sums)

    def __str__(self) -> str:
        return (
            f"CAP[{self.required}](" + ", ".join(str(child) for child in self.children) + ")"
        )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultTree:
    """A fault tree: the system is *down* in states where the root evaluates true."""

    root: FaultTreeNode
    name: str = "system_down"

    def is_down(self, failed: Iterable[str]) -> bool:
        """Whether the system is down when exactly ``failed`` components are failed."""
        return self.root.evaluate(frozenset(failed))

    def is_operational(self, failed: Iterable[str]) -> bool:
        return not self.is_down(failed)

    def components(self) -> frozenset[str]:
        return self.root.components()

    def to_service_tree(self) -> "ServiceTree":
        """Derive the quantitative service tree by gate dualisation."""
        return ServiceTree(self.root.to_service_node(), name=f"{self.name}_service")

    def __str__(self) -> str:
        return str(self.root)


@dataclass(frozen=True)
class ServiceTree:
    """A quantitative service tree mapping component states to a level in [0, 1]."""

    root: ServiceTreeNode
    name: str = "service"

    def service_level(self, up: Iterable[str]) -> Fraction:
        """The exact service level when exactly ``up`` components are operational."""
        return self.root.evaluate(frozenset(up))

    def delivers_service(self, up: Iterable[str]) -> bool:
        """Whether *some* service is delivered (level strictly positive)."""
        return self.service_level(up) > 0

    def components(self) -> frozenset[str]:
        return self.root.components()

    def attainable_levels(self) -> tuple[Fraction, ...]:
        """All attainable service levels, sorted ascending (includes 0 and 1)."""
        return tuple(sorted(self.root.attainable_levels()))

    def service_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The paper's service intervals ``X1, X2, ...``.

        Consecutive positive attainable levels bound half-open intervals
        ``[level_i, level_{i+1})``; the final interval is the degenerate
        ``[1, 1]``.  Every threshold ``x`` inside one interval yields the same
        set ``S_{sl(x)}`` and hence the same survivability curve.
        """
        levels = [level for level in self.attainable_levels() if level > 0]
        intervals: list[tuple[Fraction, Fraction]] = []
        for index, level in enumerate(levels):
            if level == 1:
                intervals.append((Fraction(1), Fraction(1)))
            else:
                intervals.append((level, levels[index + 1]))
        return tuple(intervals)

    def __str__(self) -> str:
        return str(self.root)
