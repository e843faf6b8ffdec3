"""Async scenario service: queued multi-client analysis with shared caches.

The service layer turns the batched analysis session into a long-lived,
multi-client component — the repo's step from "fast library call" toward
the heavy-traffic north star:

* :class:`ScenarioService` — an asyncio front end; many clients
  ``await submit(...)`` measure requests (or registered scenario names), a
  micro-batching dispatcher coalesces submissions across callers into one
  plan per flush and executes independent groups on a worker pool, with
  bounded-queue backpressure (:class:`QueueFull`) and per-request deadlines
  (:class:`ScenarioTimeout`);
* :class:`ShardedScenarioService` — the multi-process front:
  scenario portfolios partitioned across N spawn workers (one service +
  artifact cache each) with per-shard chain ownership via fingerprint
  routing and a shared-nothing stats-snapshot protocol for ``/metrics``.
  The front is *supervised*: dead workers respawn with exponential backoff
  under a restart budget, wedged workers are caught by heartbeat pings,
  in-flight requests retry transparently and a down shard's chains fail
  over to the next alive shard;
* :class:`ChaosPolicy` / :class:`ChaosEvent` — seeded deterministic fault
  injection (kill/wedge/corrupt/delay/drop) wired into the worker side of
  the shard protocol, driving the chaos tests and the
  ``benchmarks/bench_perf_resilience.py`` gate;
* :class:`ScenarioHTTPServer` — a minimal asyncio HTTP server
  (``POST /scenario``, ``GET /registry``, ``GET /metrics``) over either
  front (``python -m repro serve --http PORT [--shards N]``);
* :class:`ArtifactCache` / :data:`GLOBAL_ARTIFACTS` — the process-wide,
  bounded, hit/miss-instrumented store of absorbing transforms, lumping
  quotients, uniformized operators and Fox–Glynn windows, keyed by stable
  chain fingerprints so artifacts survive across flushes, sessions and
  rebuilt chains;
* :class:`ScenarioRegistry` / :func:`paper_registry` — named scenario
  specs for the paper's strategy × disaster × service-level grid, expanded
  into concrete requests on demand.

See ``examples/scenario_service.py`` for a runnable multi-client demo and
``python -m repro serve`` for the portfolio-sweeping CLI.
"""

from repro.counters import DEFAULT_LATENCY_BUCKETS, LatencyHistogram
from repro.service.cache import (
    DEFAULT_MAX_ENTRIES,
    GLOBAL_ARTIFACTS,
    ArtifactCache,
    CacheKindStats,
    CacheStats,
)
from repro.service.chaos import (
    CHAOS_ACTIONS,
    CHAOS_SEED_ENV,
    ChaosEvent,
    ChaosPolicy,
    chaos_seed,
)
from repro.service.dispatcher import (
    DEFAULT_COALESCE_WINDOW,
    DEFAULT_MAX_BATCH,
    QueueFull,
    ScenarioService,
    ScenarioTimeout,
    ServiceClosed,
    ServiceStats,
)
from repro.service.http import ScenarioHTTPServer
from repro.service.registry import (
    MEASURES,
    ScenarioRegistry,
    ScenarioSpec,
    paper_registry,
)
from repro.service.shard import (
    DEFAULT_NUM_SHARDS,
    ShardCrashed,
    ShardedScenarioService,
    ShardedServiceStats,
    ShardSnapshot,
    shard_for_fingerprint,
)

__all__ = [
    "ArtifactCache",
    "CHAOS_ACTIONS",
    "CHAOS_SEED_ENV",
    "CacheKindStats",
    "CacheStats",
    "ChaosEvent",
    "ChaosPolicy",
    "DEFAULT_COALESCE_WINDOW",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_NUM_SHARDS",
    "GLOBAL_ARTIFACTS",
    "LatencyHistogram",
    "MEASURES",
    "QueueFull",
    "ScenarioHTTPServer",
    "ScenarioRegistry",
    "ScenarioService",
    "ScenarioSpec",
    "ScenarioTimeout",
    "ServiceClosed",
    "ServiceStats",
    "ShardCrashed",
    "ShardSnapshot",
    "ShardedScenarioService",
    "ShardedServiceStats",
    "chaos_seed",
    "paper_registry",
    "shard_for_fingerprint",
]
