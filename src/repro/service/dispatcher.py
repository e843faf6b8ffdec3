"""The asyncio scenario service: queued submissions, coalesced sweeps.

:class:`ScenarioService` is the multi-client front end over the batched
analysis machinery.  Many concurrent clients ``await service.submit(...)``
(or :meth:`~ScenarioService.submit_scenario` with a registry name); a
single dispatcher task collects submissions across callers for a short
*coalescing window* — cut short when the *size cap* is reached — and then
flushes the whole batch through one :func:`repro.analysis.build_plan` /
execution-unit pass:

* requests from different clients that agree on (chain, rate, grid,
  epsilon) merge into one group and therefore one uniformization sweep, so
  ``N`` clients asking for the same curve family cost no more sweeps than
  one batched session;
* independent execution units (regular groups, bundled interval
  signatures) run concurrently on a worker thread pool;
* every submission owns a future that is resolved with exactly its own
  :class:`~repro.analysis.MeasureResult` slice — a poisoned request fails
  its *own* future (at validation or execution time) without wedging the
  dispatcher or the rest of its batch;
* expensive intermediates (absorbing transforms, lumping quotients,
  uniformized operators, Fox–Glynn windows) persist across flushes in a
  process-wide :class:`repro.service.ArtifactCache`, so a repeat portfolio
  sweep recomputes none of them.

A quick example — three clients sharing one service::

    async def client(service, disaster):
        request = survivability_request(space, disaster, 1, times)
        result = await service.submit(request)
        return result.squeezed

    async with ScenarioService(lump=True) as service:
        curves = await asyncio.gather(
            *(client(service, d) for d in disasters)
        )
        print(service.stats.summary())
"""

from __future__ import annotations

import asyncio
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.analysis import (
    MeasureRequest,
    MeasureResult,
    SessionStats,
    build_plan,
    execution_units,
    normalise_request,
)
from repro.ctmc.engines import default_worker_count, normalise_engine_mode
from repro.ctmc.linsolve import LinearSolveStats
from repro.ctmc.uniformization import DEFAULT_EPSILON, UniformizationStats
from repro.service.cache import GLOBAL_ARTIFACTS, ArtifactCache, CacheStats
from repro.service.registry import ScenarioRegistry, paper_registry

#: Default coalescing window in seconds: long enough for an event-loop tick
#: burst of client submissions to land in one flush, short enough to stay
#: interactive.
DEFAULT_COALESCE_WINDOW = 0.01

#: Default size cap: a flush is triggered early once this many requests are
#: pending, bounding both latency and batch memory.
DEFAULT_MAX_BATCH = 256


class ServiceClosed(RuntimeError):
    """Raised by futures of submissions that a closing service abandoned."""


class QueueFull(RuntimeError):
    """Raised by ``submit()`` when the bounded pending queue is at capacity.

    Backpressure is synchronous and cheap: the rejected submission never
    enters the queue, so it cannot poison other callers or occupy a slot a
    retry could use.  Clients are expected to back off and resubmit (the
    HTTP front end maps this to ``503``).
    """


class ScenarioTimeout(TimeoutError):
    """Raised by ``submit()`` when a per-request deadline expires.

    The deadline cancels only the submitting caller's future: the shared
    flush keeps running for its other members, and a result arriving after
    the deadline is discarded instead of resolving a stale future.
    """


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

        Used when aggregating per-shard snapshots into one ``/metrics``
        dump; mismatched bounds would silently mis-bucket, so they raise.
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


@dataclass
class ServiceStats:
    """Counters describing what the service did across its lifetime.

    ``session`` aggregates the usual planner/executor work counters
    (requests, groups, sweeps, matvecs, lumping compression, linear-solver
    factorizations) over every flush; the service-level counters describe
    the queueing layer above, and ``flush_latency`` histograms the
    wall-clock duration of each flush (validation + planning + execution).
    """

    submissions: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    timeouts: int = 0
    flushes: int = 0
    largest_flush: int = 0
    session: SessionStats = field(default_factory=SessionStats)
    flush_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def coalesced_per_flush(self) -> float:
        """Mean number of submissions sharing one plan (1.0 = no coalescing)."""
        return self.session.requests / self.flushes if self.flushes else 0.0

    def absorb(self, other: "ServiceStats") -> None:
        """Accumulate another stats object (e.g. one shard's snapshot)."""
        self.submissions += other.submissions
        self.completed += other.completed
        self.failed += other.failed
        self.rejected += other.rejected
        self.timeouts += other.timeouts
        self.flushes += other.flushes
        self.largest_flush = max(self.largest_flush, other.largest_flush)
        self.session.absorb(other.session)
        self.flush_latency.absorb(other.flush_latency)

    def summary(self) -> str:
        """One line for CLI output and logs."""
        backpressure = (
            f" rejected={self.rejected} timeouts={self.timeouts}"
            if self.rejected or self.timeouts
            else ""
        )
        return (
            f"service: submissions={self.submissions} flushes={self.flushes} "
            f"coalesced/flush={self.coalesced_per_flush:.1f} "
            f"largest_flush={self.largest_flush} failed={self.failed}"
            f"{backpressure} | "
            + self.session.summary()
            + " | "
            + self.flush_latency.summary()
        )

    def metrics(self, prefix: str = "repro_service") -> str:
        """A ``/metrics``-style text dump of every counter (Prometheus format).

        Printed by ``python -m repro serve --metrics`` and intended to be
        served verbatim by a future HTTP front end.
        """
        counters = {
            "submissions_total": self.submissions,
            "completed_total": self.completed,
            "failed_total": self.failed,
            "rejected_total": self.rejected,
            "timeouts_total": self.timeouts,
            "flushes_total": self.flushes,
            "largest_flush": self.largest_flush,
            "requests_total": self.session.requests,
            "groups_total": self.session.groups,
            "sweeps_total": self.session.sweeps,
            "matvecs_total": self.session.matvecs,
            "applies_total": self.session.applies,
            "sparse_flops_total": self.session.sparse_flops,
            "equivalent_nnz_total": self.session.equivalent_nnz,
            "factorizations_total": self.session.factorizations,
            "dense_factorizations_total": self.session.dense_factorizations,
            "linear_solves_total": self.session.linear_solves,
            "solved_columns_total": self.session.solved_columns,
            "stationary_solves_total": self.session.stationary_solves,
            "lumped_groups_total": self.session.lumped_groups,
            "lump_failures_total": self.session.lump_failures,
        }
        lines: list[str] = []
        for name, value in counters.items():
            metric = f"{prefix}_{name}"
            kind = "gauge" if name == "largest_flush" else "counter"
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {value}")
        lines.extend(self.flush_latency.metric_lines(f"{prefix}_flush_latency_seconds"))
        return "\n".join(lines)


async def await_with_deadline(
    future: asyncio.Future,
    timeout: float | None,
    stats: Any,
    detail: Callable[[], str | None] | None = None,
) -> Any:
    """Await a submission future under a per-request deadline.

    Expiry cancels *this* future only (``asyncio.wait_for`` semantics):
    siblings in the same flush are untouched.  Shared by the in-process
    dispatcher and the sharded front so their timeout semantics (counter,
    exception type, message) cannot drift; ``stats`` only needs a
    ``timeouts`` attribute.  ``detail``, when given, is called at expiry to
    append where the request was stuck (e.g. parked behind a shard restart)
    to the timeout message.
    """
    if timeout is None:
        return await future
    try:
        return await asyncio.wait_for(future, timeout)
    except asyncio.TimeoutError:
        stats.timeouts += 1
        message = f"scenario request did not complete within {timeout}s"
        extra = detail() if detail is not None else None
        if extra:
            message = f"{message} ({extra})"
        raise ScenarioTimeout(message) from None


@dataclass
class _Pending:
    """One queued submission: the request plus the caller's future."""

    request: MeasureRequest
    future: asyncio.Future


class ScenarioService:
    """Queued multi-client front end over the batched analysis session.

    Parameters
    ----------
    coalesce_window:
        Seconds the dispatcher keeps collecting submissions after the first
        pending one before flushing (``0`` flushes every loop tick).
    max_batch:
        Pending-request count that cuts the window short.
    max_pending:
        Bound on the number of queued-but-unflushed submissions; beyond it
        ``submit()`` raises :class:`QueueFull` instead of enqueueing
        (``None`` = unbounded, the default).
    default_timeout:
        Per-request deadline in seconds applied when ``submit()`` is not
        given an explicit one; expiry raises :class:`ScenarioTimeout` and
        cancels only that caller's future (``None`` = no deadline).
    lump:
        Solve every group on its ordinary-lumpability quotient (quotients
        are cached process-wide per (chain, observable signature)).
    batched:
        ``False`` plans one group per request (comparison runs only).
    epsilon:
        Default Poisson-truncation error for requests without one.
    artifacts:
        The :class:`ArtifactCache` to use; defaults to the process-wide
        :data:`repro.service.GLOBAL_ARTIFACTS`.  Pass a fresh cache for
        isolated measurements.
    max_workers:
        Worker threads executing independent groups concurrently; ``None``
        uses :func:`repro.ctmc.engines.default_worker_count`, which bounds
        the pool so dense-BLAS kernels running on the workers cannot
        oversubscribe the machine.
    registry:
        Scenario registry backing :meth:`submit_scenario`; defaults to the
        paper's figure families (:func:`repro.service.paper_registry`).
    engine:
        Default numeric backend for submissions that do not set one — one
        of :data:`repro.ctmc.engines.ENGINE_MODES` (``None`` = process
        default, normally ``"auto"``).
    dtype:
        Default sweep lane (``"float64"``/``"float32"``) for submissions
        that do not set one (``None`` = process default).
    """

    def __init__(
        self,
        *,
        coalesce_window: float = DEFAULT_COALESCE_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int | None = None,
        default_timeout: float | None = None,
        lump: bool = False,
        batched: bool = True,
        epsilon: float = DEFAULT_EPSILON,
        artifacts: ArtifactCache | None = None,
        max_workers: int | None = None,
        registry: ScenarioRegistry | None = None,
        engine: str | None = None,
        dtype=None,
    ) -> None:
        if coalesce_window < 0:
            raise ValueError("coalesce_window must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1 (or None)")
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError("default_timeout must be positive (or None)")
        self.coalesce_window = float(coalesce_window)
        self.max_batch = int(max_batch)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.default_timeout = (
            None if default_timeout is None else float(default_timeout)
        )
        self.lump = lump
        self.batched = batched
        self.default_epsilon = float(epsilon)
        self.artifacts = artifacts if artifacts is not None else GLOBAL_ARTIFACTS
        self.registry = registry if registry is not None else paper_registry()
        self.engine = None if engine is None else normalise_engine_mode(engine)
        self.dtype = dtype
        self.stats = ServiceStats()
        self.max_workers = default_worker_count(max_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-service"
        )
        self._pending: list[_Pending] = []
        self._arrival: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None  # set while nothing is queued/in flight
        self._dispatcher: asyncio.Task | None = None
        self._flushing = False
        self._closed = False
        self._drain_requested = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "ScenarioService":
        self._ensure_running()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _ensure_running(self) -> None:
        if self._closed:
            raise ServiceClosed("the scenario service has been closed")
        if self._dispatcher is None or self._dispatcher.done():
            if self._dispatcher is not None and not self._dispatcher.cancelled():
                # A crashed dispatcher must not be respawned silently: the
                # root cause is surfaced (once) before the replacement runs.
                error = self._dispatcher.exception()
                if error is not None:
                    warnings.warn(
                        f"scenario-service dispatcher crashed and is being "
                        f"restarted ({type(error).__name__}: {error})",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            self._arrival = asyncio.Event()
            self._idle = asyncio.Event()
            self._idle.set()
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="scenario-service-dispatcher"
            )

    async def close(self, drain: bool = True) -> None:
        """Stop the dispatcher (after flushing pending work, by default).

        Draining cuts the coalescing window short: whatever is pending is
        flushed immediately rather than waiting out ``coalesce_window``.
        """
        if self._closed:
            return
        if drain:
            self._drain_requested = True
            if self._arrival is not None:
                self._arrival.set()  # wake the window wait immediately
            if self._idle is not None and (self._pending or self._flushing):
                await self._idle.wait()
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for pending in self._pending:
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceClosed("service closed before the request was executed")
                )
        self._pending.clear()
        self._pool.shutdown(wait=False)

    def cache_stats(self) -> CacheStats:
        """Snapshot of the artifact cache's per-kind hit/miss counters."""
        return self.artifacts.stats()

    def metrics_text(self) -> str:
        """The full Prometheus text dump: service counters plus cache counters.

        What ``GET /metrics`` of the HTTP front end serves for a
        single-process service (the sharded service aggregates one of these
        per shard).  Optimizer counters ride along whenever the policy
        optimizer has run in this process.
        """
        from repro.optimize.stats import global_optimizer_stats

        return (
            self.stats.metrics()
            + "\n"
            + self.cache_stats().metrics()
            + "\n"
            + global_optimizer_stats().metrics()
            + "\n"
        )

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def _enqueue(self, request: MeasureRequest) -> asyncio.Future:
        self._ensure_running()
        if (
            self.max_pending is not None
            and len(self._pending) >= self.max_pending
        ):
            self.stats.rejected += 1
            raise QueueFull(
                f"scenario service has {len(self._pending)} pending submissions "
                f"(max_pending={self.max_pending}); back off and resubmit"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(_Pending(request=request, future=future))
        self.stats.submissions += 1
        assert self._arrival is not None and self._idle is not None
        self._idle.clear()
        self._arrival.set()
        return future

    async def _await_with_deadline(
        self, future: asyncio.Future, timeout: float | None
    ) -> MeasureResult:
        """Await under the effective deadline; the dispatcher later skips
        futures the expiry cancelled."""
        timeout = self.default_timeout if timeout is None else timeout
        return await await_with_deadline(future, timeout, self.stats)

    async def submit(
        self, request: MeasureRequest, timeout: float | None = None
    ) -> MeasureResult:
        """Queue one request and await its result.

        The call coalesces with every other submission pending in the same
        window; the returned result is exactly the slice this request would
        have received from a standalone session (values equal to 1e-12).
        With the pending queue at ``max_pending`` the call raises
        :class:`QueueFull` without enqueueing; ``timeout`` (or the service's
        ``default_timeout``) bounds the wait and raises
        :class:`ScenarioTimeout` on expiry, cancelling only this future.
        """
        future = self._enqueue(request)
        return await self._await_with_deadline(future, timeout)

    async def submit_many(
        self, requests: list[MeasureRequest], timeout: float | None = None
    ) -> list[MeasureResult]:
        """Queue several requests at once and await all their results.

        Raises the first failure, but only after every future has settled —
        so sibling failures are all retrieved (no orphaned exceptions) and
        the dispatcher is never left with half-awaited futures.  The
        optional ``timeout`` applies per request, not to the batch total.
        """
        futures: list[asyncio.Future] = []
        try:
            for request in requests:
                futures.append(self._enqueue(request))
        except QueueFull:
            # All-or-nothing: cancelling the partial batch makes the
            # dispatcher drop it before planning, so a rejected caller is
            # never billed for half a family computing in the background.
            for future in futures:
                future.cancel()
            raise
        settled = await asyncio.gather(
            *(self._await_with_deadline(future, timeout) for future in futures),
            return_exceptions=True,
        )
        for outcome in settled:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(settled)

    async def submit_scenario(
        self, name: str, points: int | None = None, timeout: float | None = None
    ) -> list[tuple[MeasureRequest, MeasureResult]]:
        """Expand a registered scenario and await the whole family.

        Returns ``(request, result)`` pairs so callers can use the request
        tags ``(scenario, line, ..., strategy)`` to reassemble curves.
        Expansion may build case-study state spaces (seconds of work on a
        cold process), so it runs on the worker pool, keeping the event
        loop — and every other client's submissions — responsive.
        """
        self._ensure_running()
        requests = await asyncio.get_running_loop().run_in_executor(
            self._pool, partial(self.registry.expand, name, points=points)
        )
        results = await self.submit_many(requests, timeout=timeout)
        return list(zip(requests, results))

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._arrival is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._arrival.wait()
            self._arrival.clear()
            if not self._pending:
                continue
            # Coalescing window: keep collecting until it elapses or the
            # size cap is reached.  Submissions landing mid-flush queue up
            # for the next round.
            if self.coalesce_window > 0.0:
                deadline = loop.time() + self.coalesce_window
                while (
                    len(self._pending) < self.max_batch
                    and not self._drain_requested
                ):
                    remaining = deadline - loop.time()
                    if remaining <= 0.0:
                        break
                    try:
                        await asyncio.wait_for(self._arrival.wait(), remaining)
                    except asyncio.TimeoutError:
                        break
                    self._arrival.clear()
            else:
                # Window 0: give the current event-loop tick a chance to
                # finish enqueueing (clients started together still merge).
                await asyncio.sleep(0)
                self._arrival.clear()
            # The size cap genuinely bounds the flush: overflow from a
            # burst stays queued and immediately triggers the next round.
            batch = self._pending[: self.max_batch]
            self._pending = self._pending[self.max_batch :]
            if self._pending:
                self._arrival.set()
            # Submissions whose deadline expired while queued are already
            # cancelled; planning them would waste the whole flush's sweep
            # budget on results nobody can receive.
            batch = [pending for pending in batch if not pending.future.done()]
            if not batch:
                if not self._pending:
                    self._idle.set()
                continue
            self._flushing = True
            try:
                await self._flush(batch)
            except BaseException as error:
                # The dispatcher must never strand an in-flight batch: on
                # cancellation (close(drain=False)) or an unexpected escape
                # from _flush, every unresolved future of the batch is
                # failed so awaiting clients wake up.
                abandon = (
                    ServiceClosed("service closed while the request was in flight")
                    if isinstance(error, asyncio.CancelledError)
                    else error
                )
                for pending in batch:
                    self._fail(pending, abandon)
                if isinstance(error, asyncio.CancelledError):
                    raise
                # Otherwise stay alive and keep serving later submissions.
            finally:
                self._flushing = False
                if not self._pending:
                    self._idle.set()

    def _validate_and_plan(
        self, batch: list[_Pending]
    ) -> tuple[list[_Pending], list[tuple[_Pending, BaseException]], Any]:
        """Validate each request and plan the survivors (worker-pool side).

        Runs entirely off the event loop: per-submission validation means a
        poisoned request is rejected here — failing only its own future —
        and never reaches the shared plan.  (The survivors are normalised a
        second time inside ``build_plan``; deriving the masks/vectors is
        trivial next to the sweeps, and keeping the planner self-contained
        is worth the duplication.)
        """
        survivors: list[_Pending] = []
        rejected: list[tuple[_Pending, BaseException]] = []
        for pending in batch:
            try:
                normalise_request(pending.request)
            except Exception as error:
                rejected.append((pending, error))
            else:
                survivors.append(pending)
        plan = None
        if survivors:
            plan = build_plan(
                [pending.request for pending in survivors],
                lump=self.lump,
                batched=self.batched,
                default_epsilon=self.default_epsilon,
                artifacts=self.artifacts,
                default_engine=self.engine,
                default_dtype=self.dtype,
            )
        return survivors, rejected, plan

    async def _flush(self, batch: list[_Pending]) -> None:
        self.stats.flushes += 1
        self.stats.largest_flush = max(self.stats.largest_flush, len(batch))
        started = time.perf_counter()
        try:
            await self._flush_batch(batch)
        finally:
            self.stats.flush_latency.observe(time.perf_counter() - started)

    async def _flush_batch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        try:
            survivors, rejected, plan = await loop.run_in_executor(
                self._pool, partial(self._validate_and_plan, batch)
            )
        except Exception as error:
            # Planning over *validated* requests is essentially infallible
            # (lumping failures degrade to unlumped groups inside
            # build_plan); this is a genuine last resort.
            for pending in batch:
                self._fail(pending, error)
            return
        for pending, error in rejected:
            self._fail(pending, error)
        if plan is None:
            return

        results: list[MeasureResult | None] = [None] * plan.num_requests
        errors: dict[int, BaseException] = {}
        engines: list[UniformizationStats] = []
        linears: list[LinearSolveStats] = []

        async def run_unit(unit) -> None:
            # Units write disjoint results slots, so they may run
            # concurrently; a failing unit poisons only its own members.
            engine = UniformizationStats()
            linear = LinearSolveStats()
            try:
                await loop.run_in_executor(
                    self._pool, unit.run, results, engine, self.artifacts, linear
                )
            except Exception as error:
                for index in unit.request_indices:
                    errors[index] = error
            engines.append(engine)
            linears.append(linear)

        await asyncio.gather(*(run_unit(unit) for unit in execution_units(plan)))

        session = self.stats.session
        session.absorb_plan(plan)
        for engine in engines:
            session.absorb_engine(engine)
        for linear in linears:
            session.absorb_linear(linear)

        for position, pending in enumerate(survivors):
            if position in errors:
                self._fail(pending, errors[position])
            elif results[position] is None:
                self._fail(
                    pending,
                    RuntimeError("request was not resolved by any execution unit"),
                )
            elif not pending.future.done():
                self.stats.completed += 1
                pending.future.set_result(results[position])

    def _fail(self, pending: _Pending, error: BaseException) -> None:
        if not pending.future.done():
            self.stats.failed += 1
            pending.future.set_exception(error)
