"""The system under test, started by ``run.py`` as a process of its own.

    python perfbench/system.py portfolio --seconds S [--trace-out FILE]
    python perfbench/system.py serve {inproc,sharded} [--trace-out FILE]

Both modes import the program from ``src/`` and then print one JSON line
``{"ready": ...}`` on stdout; ``run.py`` times set-up up to that line.  All
further stdout lines are JSON replies to one-word commands read from stdin:

``portfolio``
    ``run``: one cold ``run_all_experiments()`` on empty caches, then warm
    repeats in the same interpreter (state spaces cached) for about ``S``
    seconds, at least one (:func:`another_warm_round`); replies with every
    table and curve and the timings.  ``exit``: quit without running.
``serve``
    An HTTP front (``ScenarioHTTPServer``) on an ephemeral port over
    ``ScenarioService()`` (``inproc``) or ``ShardedScenarioService(2,
    lump=True)`` (``sharded``).  ``snapshot``: the service's public
    counters and, when tracing, the per-layer summary of the spans that
    ended since the previous snapshot.  ``report``: reply with peak memory
    (and, when tracing the sharded front, the computed wire bytes of every
    registry scenario once), then shut down.  ``exit``: the same without the wire
    bytes, for set-ups that serve nothing.

With ``--trace-out`` the layer entry points are wrapped (see
``tracing.py``) and the spans are written to ``FILE`` at exit.  The module
body imports only the standard library and ``tracing``, and does nothing
else: the shard workers are spawned and re-import this file as their main
module.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, wrapper_cost_s

#: The experiment functions ``run_all_experiments`` calls — a library
#: user's requests, timed individually for the latency percentiles.
EXPERIMENTS = (
    "table1_state_space",
    "table2_availability",
    "figure3_reliability",
    "figure4_5_survivability_line1",
    "figure6_7_costs_line1",
    "figure8_9_survivability_line2",
    "figure10_11_costs_line2",
)


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, default=_plain) + "\n")
    sys.stdout.flush()


def _plain(value):
    """JSON fallback for numpy scalars and arrays."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot encode {type(value).__name__}")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live descendant."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:  # the process ended meanwhile
            continue
    return total_kb / 1024.0


def _descendants(root: int) -> list[int]:
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def another_warm_round(warm_walls: list[float], seconds: float) -> bool:
    """Whether the warm phase, ``seconds`` long, has room for one more round.

    It stops before a round that would likely end past ``seconds``, judged
    by the median warm round so far, so a run overshoots by less than one
    round however fast or slow the program is.
    """
    if not warm_walls:
        return True
    return sum(warm_walls) + statistics.median(warm_walls) <= seconds


def _tracer(trace_out: str | None):
    if not trace_out:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def _trace_summary(tracer, start: float, end: float) -> dict | None:
    if tracer is None:
        return None
    return {**tracer.summary(start, end), "counters": dict(tracer.counters)}


def _finish_trace(tracer, trace_out: str | None) -> dict | None:
    if tracer is None:
        return None
    tracer.write(Path(trace_out))
    return {"spans": len(tracer.spans), "cost_s": wrapper_cost_s(len(tracer.spans))}


# ----------------------------------------------------------------------
# portfolio: python -m repro all, in-process
# ----------------------------------------------------------------------
def _suite_json(suite) -> dict:
    tables = {
        name: {"headers": list(table.headers), "rows": [list(row) for row in table.rows]}
        for name, table in suite.tables.items()
    }
    figures = {
        name: {
            "times": figure.times.tolist(),
            "series": {label: values.tolist() for label, values in figure.series.items()},
        }
        for name, figure in suite.figures.items()
    }
    return {"tables": tables, "figures": figures}


def portfolio(seconds: float, trace_out: str | None) -> None:
    tracer = _tracer(trace_out)
    from repro.analysis import SessionStats
    from repro.casestudy import experiments

    emit({"ready": True})
    if sys.stdin.readline().strip() != "run":
        return
    latencies: list[tuple[str, float]] = []

    def timed(name, function):
        def call(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                latencies.append((name, time.perf_counter() - started))

        return call

    for name in EXPERIMENTS:
        setattr(experiments, name, timed(name, getattr(experiments, name)))
    run = experiments.run_all_experiments
    if tracer is not None:
        run = tracer.wrap(run, "portfolio.run")

    passes = []
    while len(passes) < 2 or another_warm_round(
        [one["wall_s"] for one in passes[1:]], seconds
    ):
        stats = SessionStats()
        latencies.clear()
        started = time.perf_counter()
        suite = run(stats=stats)
        ended = time.perf_counter()
        passes.append(
            {
                "wall_s": ended - started,
                "latencies": list(latencies),
                "session": dataclasses.asdict(stats),
                "trace": _trace_summary(tracer, started, ended),
                "results": _suite_json(suite),
            }
        )
    emit(
        {
            "passes": passes,
            "peak_rss_mb": peak_rss_mb(),
            "trace_cost": _finish_trace(tracer, trace_out),
        }
    )


# ----------------------------------------------------------------------
# serve: the HTTP front over one of the two backends
# ----------------------------------------------------------------------
def _service_json(stats) -> dict:
    return {
        "flushes": stats.flushes,
        "submissions": stats.submissions,
        "session": dataclasses.asdict(stats.session),
    }


def _cache_json(cache) -> dict:
    return {
        kind: {"hits": counts.hits, "misses": counts.misses, "evictions": counts.evictions}
        for kind, counts in cache.kinds.items()
    }


async def _snapshot(service, sharded: bool, tracer, start: float, end: float) -> dict:
    from repro.service import CacheStats, ServiceStats

    if sharded:
        combined_service, combined_cache = ServiceStats(), CacheStats()
        alive = 0
        for snapshot in await service.shard_snapshots():
            if snapshot.service is not None:
                alive += 1
                combined_service.absorb(snapshot.service)
                combined_cache.absorb(snapshot.cache)
        front = service.stats
        shard = {
            "alive": alive,
            "routed": {str(index): count for index, count in front.routed.items()},
            "retries": front.retries,
            "restarts": sum(front.restarts.values()),
        }
    else:
        combined_service, combined_cache = service.stats, service.cache_stats()
        shard = None
    return {
        "at": end,
        "service": _service_json(combined_service),
        "cache": _cache_json(combined_cache),
        "shard": shard,
        "trace": _trace_summary(tracer, start, end),
    }


def _wire_bytes_per_registry(registry) -> int:
    """Computed: ``len(pickle.dumps(request))`` over every registry scenario."""
    import pickle

    return sum(
        len(pickle.dumps(request))
        for name in registry.names
        for request in registry.expand(name)
    )


async def _wait_for_workers(service, deadline_s: float = 120.0) -> None:
    """Return once every shard worker has answered a stats probe."""
    give_up = time.monotonic() + deadline_s
    while True:
        snapshots = await service.shard_snapshots()
        if all(snapshot.service is not None for snapshot in snapshots):
            return
        if time.monotonic() > give_up:
            raise RuntimeError("shard workers did not come up")
        await asyncio.sleep(0.05)


async def serve(backend: str, trace_out: str | None) -> None:
    tracer = _tracer(trace_out)
    from repro.service import ScenarioHTTPServer, ScenarioService, ShardedScenarioService

    sharded = backend == "sharded"
    service = ShardedScenarioService(2, lump=True) if sharded else ScenarioService()
    final: dict = {}
    async with service:
        if sharded:
            await _wait_for_workers(service)
        server = ScenarioHTTPServer(service)
        await server.start()
        if tracer is not None:
            service.submit_scenario = tracer.wrap(
                service.submit_scenario, "service.submit_scenario", new_request=True
            )
        emit({"ready": True, "port": server.address[1]})
        loop = asyncio.get_running_loop()
        last = time.perf_counter()
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command != "snapshot":
                break
            now = time.perf_counter()
            emit(await _snapshot(service, sharded, tracer, last, now))
            last = now
        final["peak_rss_mb"] = peak_rss_mb()
        if command == "report" and tracer is not None and sharded:
            final["wire_bytes_per_registry"] = _wire_bytes_per_registry(service.registry)
        await server.close()
    final["trace_cost"] = _finish_trace(tracer, trace_out)
    emit(final)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("portfolio", "serve"))
    parser.add_argument("backend", nargs="?", choices=("inproc", "sharded"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    if args.mode == "portfolio":
        portfolio(args.seconds, args.trace_out)
    else:
        asyncio.run(serve(args.backend, args.trace_out))


if __name__ == "__main__":
    main()
