"""One counter mechanism for every layer: declare fields, derive the rest.

A counter class is a dataclass deriving from :class:`Counters`.  Its field
declarations are the whole specification; ``absorb`` (merging one object
into another, e.g. per-unit or per-shard snapshots into an aggregate),
``summary()`` (one line for the CLI and logs) and the Prometheus text of
``/metrics`` are derived from them:

* a plain number is a counter — summed by ``absorb``, exported as
  ``<prefix>_<name>_total``;
* a :func:`maximum` field is a high-water mark — merged with ``max``,
  exported as the gauge ``<prefix>_<name>``;
* a :func:`labelled` dict holds one counter (or one nested counter object)
  per label value, such as an artifact ``kind`` or a ``shard`` index —
  merged key by key, exported as one labelled sample per key;
* a nested :class:`Counters` object or :class:`LatencyHistogram` is merged
  through its own ``absorb`` and exported under the same prefix (a
  histogram as ``<prefix>_<name>_seconds``);
* :attr:`Counters.derived` names read-only properties that are reported
  next to the fields (``sweeps_saved``, ``coalesced_per_flush``).

:func:`prometheus_text` renders ``(prefix, counters)`` sections as one
text exposition.  ``GET /metrics`` of either service front,
``python -m repro serve --metrics`` and ``python -m repro optimize
--metrics`` all print its output.

:class:`SessionStats` is the one *work* counter: the uniformization sweep,
the linear-solver engine, the stationary solver and the analysis session
all write the same object, and the scenario service nests it in its own
stats.  The module is stdlib-only so every layer can import it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysis.planner import ExecutionPlan


def maximum() -> Any:
    """A high-water-mark field: merged with ``max``, exported as a gauge."""
    return field(default=0, metadata={"maximum": True})


def labelled(label: str, of: type = int, prefix: str | None = None) -> Any:
    """A dict field holding one ``of`` value per label value.

    ``of`` is ``int`` for plain per-key counters or a :class:`Counters`
    class whose fields each become one labelled series.  ``prefix``
    overrides the section prefix of these series.
    """
    return field(
        default_factory=dict, metadata={"label": label, "of": of, "prefix": prefix}
    )


def exported_as(metric: str) -> Any:
    """A counter field whose series name differs from the field name."""
    return field(default=0, metadata={"metric": metric})


#: Flush-latency bucket upper bounds in seconds: sub-millisecond flushes up
#: to multi-second portfolio batches, roughly log-spaced (Prometheus style).
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass
class LatencyHistogram:
    """A fixed-bucket latency histogram (Prometheus-compatible shape).

    ``counts[i]`` is the number of observations with value at most
    ``bounds[i]`` *exclusive of earlier buckets* (plain, not cumulative);
    ``counts[-1]`` is the overflow bucket.  :meth:`metric_lines` renders the
    cumulative ``_bucket``/``_sum``/``_count`` series of the Prometheus text
    exposition format.
    """

    bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    counts: list[int] = field(default_factory=list)
    observations: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        elif len(self.counts) != len(self.bounds) + 1:
            raise ValueError("counts must have one entry per bucket plus overflow")

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        seconds = float(seconds)
        index = 0
        while index < len(self.bounds) and seconds > self.bounds[index]:
            index += 1
        self.counts[index] += 1
        self.observations += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def quantile_bound(self, quantile: float) -> float:
        """The smallest bucket bound covering ``quantile`` of observations.

        Returns ``inf`` when the quantile falls into the overflow bucket and
        ``nan`` when nothing was observed; an upper *bound*, not an
        interpolated estimate — honest about the bucket resolution.
        """
        if not self.observations:
            return float("nan")
        needed = quantile * self.observations
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            if cumulative >= needed:
                return bound
        return float("inf")

    def summary(self) -> str:
        """One line for CLI output and logs."""
        if not self.observations:
            return "flush_latency: (no flushes)"
        mean = self.total_seconds / self.observations
        return (
            f"flush_latency: n={self.observations} mean={mean * 1e3:.1f}ms "
            f"p50<={self.quantile_bound(0.5) * 1e3:.1f}ms "
            f"p95<={self.quantile_bound(0.95) * 1e3:.1f}ms "
            f"max={self.max_seconds * 1e3:.1f}ms"
        )

    def absorb(self, other: "LatencyHistogram") -> None:
        """Merge another histogram of identical bucket bounds into this one.

        Mismatched bounds would silently mis-bucket, so they raise.
        """
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bucket bounds")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.observations += other.observations
        self.total_seconds += other.total_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    def metric_lines(self, name: str) -> list[str]:
        """Prometheus text-format ``_bucket``/``_sum``/``_count`` series."""
        lines = [f"# TYPE {name} histogram"]
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            lines.append(f'{name}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {self.observations}')
        lines.append(f"{name}_sum {self.total_seconds:.6f}")
        lines.append(f"{name}_count {self.observations}")
        return lines


def _format(value: Any, places: int = 6) -> str:
    return f"{value:.{places}f}" if isinstance(value, float) else str(value)


def series(name: str, kind: str, samples: dict[str, Any]) -> list[str]:
    """One Prometheus ``# TYPE`` line and its samples.

    ``samples`` maps a label text (``'shard="0"'``, or ``""`` for none) to
    the sample's value.
    """
    return [f"# TYPE {name} {kind}"] + [
        f"{name}{{{labels}}} {_format(value)}" if labels else f"{name} {_format(value)}"
        for labels, value in samples.items()
    ]


class Counters:
    """Base of the counter dataclasses; see the module docstring."""

    #: Read-only properties reported after the fields, mapped to their
    #: Prometheus type (``"counter"`` or ``"gauge"``).
    derived: ClassVar[dict[str, str]] = {}

    def absorb(self, other: "Counters") -> None:
        """Accumulate ``other`` (an object of the same class) field by field."""
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            of = spec.metadata.get("of")
            if of is int:
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            elif of is not None:
                for key, counters in theirs.items():
                    mine.setdefault(key, of()).absorb(counters)
            elif isinstance(mine, (Counters, LatencyHistogram)):
                mine.absorb(theirs)
            elif spec.metadata.get("maximum"):
                setattr(self, spec.name, max(mine, theirs))
            else:
                setattr(self, spec.name, mine + theirs)

    def summary(self) -> str:
        """One line for CLI output and logs: every non-zero counter.

        Nested counter objects and histograms follow as ``|``-separated
        segments of their own.
        """
        parts: list[str] = []
        segments: list[str] = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, (Counters, LatencyHistogram)):
                segments.append(value.summary())
            elif "of" in spec.metadata:
                for column, per_key in _columns(spec, value).items():
                    parts += [f"{column}[{key}]={n}" for key, n in per_key.items() if n]
            elif value:
                parts.append(f"{spec.name}={_format(value, 3)}")
        parts += [
            f"{name}={_format(getattr(self, name), 3)}"
            for name in self.derived
            if getattr(self, name)
        ]
        title = re.sub(r"(?<!^)(?=[A-Z])", "_", type(self).__name__.removesuffix("Stats"))
        return " | ".join([f"{title.lower()}: {' '.join(parts) or '(idle)'}", *segments])

    def metric_lines(self, prefix: str) -> list[str]:
        """The Prometheus series of every field, named under ``prefix``."""
        lines: list[str] = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            name = f"{prefix}_{spec.metadata.get('metric', spec.name)}"
            if isinstance(value, Counters):
                lines += value.metric_lines(prefix)
            elif isinstance(value, LatencyHistogram):
                lines += value.metric_lines(f"{name}_seconds")
            elif "of" in spec.metadata:
                base = spec.metadata["prefix"] or prefix
                label = spec.metadata["label"]
                for column, per_key in _columns(spec, value).items():
                    samples = {f'{label}="{key}"': n for key, n in per_key.items()}
                    lines += series(f"{base}_{column}_total", "counter", samples)
            elif spec.metadata.get("maximum"):
                lines += series(name, "gauge", {"": value})
            else:
                lines += series(f"{name}_total", "counter", {"": value})
        for name, kind in self.derived.items():
            suffix = "_total" if kind == "counter" else ""
            lines += series(f"{prefix}_{name}{suffix}", kind, {"": getattr(self, name)})
        return lines


def _columns(spec: Any, value: dict) -> dict[str, dict[Any, Any]]:
    """A :func:`labelled` field as ``{column: {key: number}}``, keys sorted.

    Plain per-key counters form one column named after the field; per-key
    counter objects form one column per field of their class.
    """
    of = spec.metadata["of"]
    if of is int:
        return {spec.name: dict(sorted(value.items()))}
    return {
        column.name: {key: getattr(item, column.name) for key, item in sorted(value.items())}
        for column in fields(of)
    }


def prometheus_text(
    sections: list[tuple[str, Counters]], extra: list[str] = ()
) -> str:
    """The Prometheus text exposition of ``(prefix, counters)`` sections.

    ``extra`` lines (already rendered with :func:`series`) are appended.
    """
    lines = [line for prefix, counters in sections for line in counters.metric_lines(prefix)]
    return "\n".join([*lines, *extra]) + "\n"


@dataclass
class SessionStats(Counters):
    """The work counters of sweeps, solves and plans, aggregated over runs.

    One object is written by every layer: the uniformization sweep
    (:func:`repro.ctmc.uniformization.poisson_mixture_sweep`), the linear
    solver engine (:class:`repro.ctmc.linsolve.SolverEngine`), the BSCC
    stationary solver and the analysis session / scenario service (plan
    counters).  ``repro.ctmc.uniformization.ENGINE_STATS`` is a process-wide
    instance every sweep also writes.

    Attributes
    ----------
    requests, groups:
        Measure requests executed and the planned groups they formed.
    sweeps:
        Vector-power sweeps (one per engine invocation with a non-trivial
        grid).
    matvecs:
        Sparse matrix–vector products, counted per *column*: one application
        of the operator to a ``(num_states, B)`` block counts as ``B``.
    applies:
        Operator applications (each mat–vec or mat–mat product counts once);
        the gap to ``matvecs`` is what multi-initial batching amortises.
    sparse_flops:
        Estimated multiply–adds of the sweeps: ``nnz(operator) × columns``
        per application, the unit the batched-sweep benchmarks gate on.
    equivalent_nnz:
        Non-zeros traversed by sweep applications, ``Σ applies ×
        nnz(source CSR operator)``; dense GEMMs report the *source* CSR count
        so the unit stays comparable across backends.
    sweep_seconds:
        Wall-clock seconds inside the sweeps.
    factorizations:
        LU factorizations actually *built* (cache hits do not count — the
        warm-path benchmarks gate on this staying zero for repeats).
    dense_factorizations:
        How many of ``factorizations`` used the dense LAPACK LU.
    linear_solves, solved_columns:
        Triangular solve calls against a factorization and the right-hand
        side columns they carried (what RHS stacking amortises).
    factor_seconds, solve_seconds:
        Wall-clock seconds building factorizations / running solves.
    stationary_solves, stationary_seconds:
        BSCC stationary vectors actually solved (cache hits do not count)
        and their wall-clock seconds.
    lumped_groups, lumped_states_before, lumped_states_after:
        Groups that ran on a lumping quotient and the state counts of their
        chains before and after lumping.
    lump_failures:
        Groups whose quotient build failed (they ran on the full chain).
    """

    requests: int = 0
    groups: int = 0
    sweeps: int = 0
    matvecs: int = 0
    applies: int = 0
    sparse_flops: int = 0
    equivalent_nnz: int = 0
    sweep_seconds: float = 0.0
    factorizations: int = 0
    dense_factorizations: int = 0
    linear_solves: int = 0
    solved_columns: int = 0
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0
    stationary_solves: int = 0
    stationary_seconds: float = 0.0
    lumped_groups: int = 0
    lumped_states_before: int = 0
    lumped_states_after: int = 0
    lump_failures: int = 0

    def absorb_plan(self, plan: "ExecutionPlan") -> None:
        """Account for an executed plan's requests, groups and lumping.

        The single bookkeeping site shared by the analysis session and the
        scenario service's flush, so the two never drift.
        """
        self.requests += plan.num_requests
        self.groups += plan.num_groups
        self.lump_failures += plan.lump_failures
        for group in plan.groups:
            if group.lumped is not None:
                self.lumped_groups += 1
                self.lumped_states_before += group.chain.num_states
                self.lumped_states_after += group.lumped.num_blocks
