"""Spans around the program's layer entry points, recorded from outside.

The traced run (``--trace 1``) wraps the public functions that form each
layer at the module attribute their callers look up (their *call-site
bindings*), e.g. ``repro.casestudy.experiments.build_state_space`` rather
than the defining module, so the program itself is unchanged.  Each call
records one span: name, start, end, parent span and request id.  Spans
stay in memory and are written out when the run ends.

A layer's self time is its span's duration minus the part of it covered by
child spans.  Work done inside an artifact-cache factory belongs to the
layer that asked the cache (``steady_state`` for a cached stationary
solve, ``uniformization`` for a cached operator), so ``cache.lookup`` keeps
only the bookkeeping of ``ArtifactCache.get_or_create``.

Spans are parented through a context variable: asyncio tasks inherit their
creator's span, while calls shipped to an executor thread start a new root
there.  Work coalesced across requests therefore carries no request id.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (module or class path, attribute, layer).  Each binding is the name the
#: calling code resolves at call time, so patching it intercepts the call.
LAYER_BINDINGS = (
    ("repro.casestudy.experiments", "build_state_space", "arcade.expand"),
    ("repro.service.registry:ScenarioRegistry", "expand", "registry.expand"),
    ("repro.analysis.session", "build_plan", "analysis.plan"),
    ("repro.service.dispatcher", "build_plan", "analysis.plan"),
    ("repro.analysis.session", "execute_plan", "analysis.execute"),
    ("repro.analysis.executor:ExecutionUnit", "run", "analysis.execute"),
    ("repro.analysis.planner", "lumping_partition", "lumping.partition"),
    ("repro.analysis.planner", "lump_ctmc", "lumping.quotient"),
    ("repro.ctmc.steady_state", "bottom_strongly_connected_components", "steady_state.bscc"),
    ("repro.analysis.executor", "steady_state_distribution_block", "steady_state.stationary"),
    ("repro.ctmc.linsolve:SolverEngine", "build_factorization", "linsolve.factor"),
    ("repro.analysis.executor", "evaluate_grid_block", "uniformization.sweep"),
    ("repro.analysis.executor", "poisson_mixture_sweep", "uniformization.sweep"),
    ("repro.ctmc.uniformization", "poisson_mixture_sweep", "uniformization.sweep"),
    ("repro.service.cache", "fox_glynn", "foxglynn.window"),
    ("repro.ctmc.uniformization", "fox_glynn", "foxglynn.window"),
    ("repro.analysis.executor", "fox_glynn", "foxglynn.window"),
    ("repro.service.cache:ArtifactCache", "get_or_create", "cache.lookup"),
    ("repro.service.dispatcher:ScenarioService", "submit_many", "dispatcher.submit"),
    ("repro.service.shard:ShardedScenarioService", "submit", "shard.submit"),
)

#: Spans that are not work of a layer: the portfolio root and spans that
#: cover a whole request while the work runs elsewhere (another thread or
#: process).  Coverage leaves them out.
NOT_WORK = frozenset(
    {"portfolio.run", "service.submit_scenario", "dispatcher.submit", "shard.submit"}
)

_CACHE_BUILD = "cache.build"

#: The innermost open span of the current context: (span id, request id).
_CURRENT: contextvars.ContextVar[tuple[int, int | None] | None] = (
    contextvars.ContextVar("perfbench_span", default=None)
)


class Tracer:
    """In-memory span store; spans are ``(id, parent, name, start, end, request)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self.counters: dict[str, int] = defaultdict(int)
        self._counter_lock = threading.Lock()  # counted layers run on worker threads

    # ------------------------------------------------------------------
    def _open(self, new_request: bool) -> tuple[int, int | None, int | None]:
        current = _CURRENT.get()
        parent, request = current if current is not None else (None, None)
        if new_request:
            request = next(self._requests)
        return next(self._ids), parent, request

    def wrap(self, function, layer: str, new_request: bool = False):
        """``function`` recording one ``layer`` span per call."""
        tracer = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span, parent, request = tracer._open(new_request)
                token = _CURRENT.set((span, request))
                start = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    tracer.spans.append((span, parent, layer, start, end, request))

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span, parent, request = tracer._open(new_request)
            token = _CURRENT.set((span, request))
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                tracer.spans.append((span, parent, layer, start, end, request))

        return traced

    def wrap_cache_lookup(self, get_or_create):
        """``ArtifactCache.get_or_create`` with its factory in a child span."""
        lookup = self.wrap(get_or_create, "cache.lookup")
        tracer = self

        @functools.wraps(get_or_create)
        def traced(cache, kind, key, factory, weight=1):
            return lookup(cache, kind, key, tracer.wrap(factory, _CACHE_BUILD), weight)

        return traced

    def count(self, name: str, amount: int) -> None:
        with self._counter_lock:
            self.counters[name] += amount

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every binding of :data:`LAYER_BINDINGS`; call once per process."""
        import importlib

        for target, attribute, layer in LAYER_BINDINGS:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            if layer == "cache.lookup":
                wrapped = self.wrap_cache_lookup(original)
            elif layer == "arcade.expand":
                wrapped = self.wrap(self._counting_states(original), layer)
            elif layer == "linsolve.factor":
                wrapped = self.wrap(self._counting_factor_states(original), layer)
            else:
                wrapped = self.wrap(original, layer)
            setattr(owner, attribute, wrapped)

    def _counting_states(self, build_state_space):
        @functools.wraps(build_state_space)
        def counted(*args, **kwargs):
            space = build_state_space(*args, **kwargs)
            self.count("arcade.states", space.num_states)
            return space

        return counted

    def _counting_factor_states(self, build_factorization):
        @functools.wraps(build_factorization)
        def counted(engine, matrix):
            self.count("linsolve.factor_states", matrix.shape[0])
            return build_factorization(engine, matrix)

        return counted

    # ------------------------------------------------------------------
    def summary(self, start: float = float("-inf"), end: float = float("inf")) -> dict:
        """Per-layer self seconds, total seconds and calls of spans ending in a window.

        Also returns ``covered_s``: the length of the union of the span
        intervals of layer work (everything outside :data:`NOT_WORK`)
        clipped to ``[start, end]`` — the part of the window during which
        some traced layer was running.
        """
        spans = [span for span in self.spans if start < span[4] <= end]
        by_id = {span[0]: span for span in self.spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            if span[1] is not None:
                children[span[1]].append((span[3], span[4]))
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in spans:
            span_id, parent, layer, begin, finish, _ = span
            own = finish - begin - _union_length(children.get(span_id, ()), begin, finish)
            if layer == _CACHE_BUILD:
                layer = _factory_owner(span, by_id)
            else:
                calls[layer] += 1
                total_s[layer] += finish - begin
            self_s[layer] += own
        busy = [(span[3], span[4]) for span in spans if span[2] not in NOT_WORK]
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "covered_s": _union_length(busy, start, end),
        }

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds, perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            for span_id, parent, layer, start, end, request in self.spans:
                stream.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def _factory_owner(span: tuple, by_id: dict) -> str:
    """The layer that asked the cache for the artifact ``span`` built."""
    current = span
    while current is not None and current[2] in (_CACHE_BUILD, "cache.lookup"):
        current = by_id.get(current[1])
    return current[2] if current is not None else _CACHE_BUILD


def _union_length(intervals, low: float, high: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(begin, low), min(end, high))
        for begin, end in intervals
        if end > low and begin < high
    )
    total = 0.0
    current_start = current_end = None
    for begin, end in clipped:
        if current_end is None or begin > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = begin, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def wrapper_cost_s(calls: int, samples: int = 20000) -> float:
    """Computed tracing cost: calls × the measured per-call cost of a wrapper.

    Times a traced no-op against the bare no-op on a private tracer, so the
    estimate reflects this interpreter on this machine.
    """
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap(noop, "probe")
    best = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        for _ in range(samples):
            traced()
        middle = time.perf_counter()
        for _ in range(samples):
            noop()
        finish = time.perf_counter()
        best = min(best, ((middle - begin) - (finish - middle)) / samples)
    return calls * max(best, 0.0)
