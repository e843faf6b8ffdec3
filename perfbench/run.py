"""The repository benchmark: paper portfolio and scenario serving, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
The last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it carries the run's details (seed,
sample counts, per-round times).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` is a separate traced run that reports the per-layer
metrics.  Workloads, metrics and their rationale: ``perfbench/README.md``.

``--write-reference`` stores this run's first (cold) outputs as the
workload's committed reference instead of checking against it.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from system import another_warm_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
#: Spans of the latest traced run of each workload (ignored by git).
TRACE_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("paper_cold", "serve_inproc", "serve_sharded")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Largest accepted deviation from the reference, relative to max(1, |ref|).
TOLERANCE = 1e-12
#: A run must end within this many seconds; children are killed after it.
RUN_DEADLINE_S = 170.0
#: HTTP connections of the one client process.
CONNECTIONS = 2


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
class Child:
    """A ``system.py`` process speaking JSON lines over stdin/stdout."""

    def __init__(self, arguments: list[str], deadline: float) -> None:
        self.deadline = deadline
        self.port: int | None = None
        self.started = time.perf_counter()
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), environment.get("PYTHONPATH")))
        )
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "system.py"), *arguments],
            cwd=ROOT,
            env=environment,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its own process group, shard workers included
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def read(self) -> dict:
        remaining = self.deadline - time.perf_counter()
        try:
            line = self._lines.get(timeout=max(remaining, 0.0))
        except queue.Empty:
            raise HarnessError("system process did not answer in time") from None
        if line is None:
            raise HarnessError(f"system process exited with {self.process.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.read()

    def finish(self, command: str = "exit") -> dict | None:
        """Send the last command, collect the reply (``None`` if the process
        ended without one) and reap the process."""
        try:
            self.process.stdin.write(command + "\n")
            self.process.stdin.close()
            reply = self._lines.get(timeout=max(self.deadline - time.perf_counter(), 0.0))
        except queue.Empty:
            raise HarnessError("system process did not answer in time") from None
        finally:
            self.stop()
        return None if reply is None else json.loads(reply)

    def stop(self, grace_s: float = 15.0) -> None:
        """Let the process end (closing stdin asks it to), then kill what is left
        of its process group and reap it."""
        try:
            self.process.stdin.close()
        except OSError:  # the process already went away
            pass
        try:
            self.process.wait(timeout=min(grace_s, max(self.deadline - time.perf_counter(), 1.0)))
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:  # nothing left in the group
            pass
        self.process.wait()


def start_system(arguments: list[str], deadline: float, port_check: bool) -> tuple[Child, float]:
    """Start the system; return it with its set-up time (start until ready)."""
    child = Child(arguments, deadline)
    try:
        ready = child.read()
        if port_check:
            status, _ = request(connect(ready["port"], deadline), "GET", "/registry")
            if status != 200:
                raise HarnessError(f"GET /registry answered {status}")
            child.port = ready["port"]
    except BaseException:
        child.stop()
        raise
    return child, time.perf_counter() - child.started


def set_up(arguments: list[str], deadline: float, port_check: bool) -> tuple[Child, list[float]]:
    """Set the system up :data:`SETUPS` times; keep the last one running."""
    times = []
    for attempt in range(SETUPS):
        child, seconds = start_system(arguments, deadline, port_check)
        times.append(seconds)
        if attempt < SETUPS - 1:
            child.finish()
    return child, times


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
def connect(port: int, deadline: float) -> http.client.HTTPConnection:
    """A connection whose requests cannot outlive the run's deadline."""
    timeout = max(deadline - time.perf_counter(), 1.0)
    return http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)


def request(connection, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def deviations(value, reference) -> int:
    """Number of entries of ``value`` differing from ``reference``.

    Numbers may differ by ``TOLERANCE * max(1, |reference|)``; everything
    else (strings, ``null`` for non-finite values, shapes, keys) must match.
    """
    if isinstance(reference, dict):
        if not isinstance(value, dict) or value.keys() != reference.keys():
            return 1
        return sum(deviations(value[key], reference[key]) for key in reference)
    if isinstance(reference, list):
        if not isinstance(value, list) or len(value) != len(reference):
            return 1
        return sum(deviations(item, expected) for item, expected in zip(value, reference))
    if isinstance(reference, bool) or not isinstance(reference, (int, float)):
        return int(value != reference)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 1
    if math.isinf(reference) or math.isnan(reference):
        return int(not (value == reference or (math.isnan(reference) and math.isnan(value))))
    return int(not abs(value - reference) <= TOLERANCE * max(1.0, abs(reference)))


def curves(body: bytes) -> list[dict]:
    """The values of a ``POST /scenario`` response (tags, grids, curves)."""
    return [
        {"tag": curve["tag"], "times": curve["times"], "values": curve["values"]}
        for curve in json.loads(body)["curves"]
    ]


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise HarnessError(f"missing reference {path}")
    return json.loads(path.read_text())


def save_reference(workload: str, reference: dict) -> None:
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / f"{workload}.json").write_text(json.dumps(reference, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def delta(after: dict, before: dict) -> dict:
    """Field-wise ``after - before`` of two nested counter dictionaries."""
    result = {}
    for key, value in after.items():
        earlier = before.get(key, 0) if isinstance(before, dict) else 0
        if isinstance(value, dict):
            result[key] = delta(value, earlier if isinstance(earlier, dict) else {})
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            result[key] = value - (earlier or 0)
        else:
            result[key] = value
    return result


def per_run(cold: float, warm: float, warm_rounds: int) -> float:
    """A cold round plus one average warm round (see README, "Traced run")."""
    return cold + (warm / warm_rounds if warm_rounds else 0.0)


def src_loc() -> int:
    """Lines of the Python files under ``src/repro``."""
    total = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        with open(path, "rb") as stream:
            total += sum(1 for _ in stream)
    return total


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def paper_cold(args, deadline: float, trace_out: Path | None) -> dict:
    """A fresh interpreter runs ``run_all_experiments()`` cold, then warm."""
    arguments = ["portfolio", "--seconds", str(args.seconds)]
    if trace_out is not None:
        arguments += ["--trace-out", str(trace_out)]
    child, setups = set_up(arguments, deadline, port_check=False)
    report = child.finish("run")
    if report is None:
        raise HarnessError("portfolio run gave no report")
    passes = report["passes"]
    results = [one["results"] for one in passes]
    if args.write_reference:
        save_reference("paper_cold", results[0])
    reference = load_reference("paper_cold")
    attempted = failed = 0
    for result in results:
        for family in ("tables", "figures"):
            for name, expected in reference[family].items():
                attempted += 1
                failed += deviations(result[family].get(name), expected) > 0
    warm = passes[1:]
    return {
        "setups": setups,
        "cold_s": passes[0]["wall_s"],
        "warm_rounds": [one["wall_s"] for one in warm],
        "latencies": [pair for one in warm for pair in one["latencies"]],
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": report["peak_rss_mb"],
        "phases": [
            {"wall_s": one["wall_s"], "session": one["session"], "trace": one["trace"]}
            for one in passes
        ],
        "trace_cost": report["trace_cost"],
    }


def serve(args, deadline: float, trace_out: Path | None) -> dict:
    """Two keep-alive connections replay the seeded registry order, round by round."""
    arguments = ["serve", args.workload.removeprefix("serve_")]
    if trace_out is not None:
        arguments += ["--trace-out", str(trace_out)]
    child, setups = set_up(arguments, deadline, port_check=True)
    try:
        return _drive(args, child, setups, deadline)
    finally:
        child.stop()


def _drive(args, child: Child, setups: list[float], deadline: float) -> dict:
    connections = [connect(child.port, deadline) for _ in range(CONNECTIONS)]
    _, body = request(connections[0], "GET", "/registry")
    names = [spec["name"] for spec in json.loads(body)["scenarios"]]
    order = names[:]
    random.Random(args.seed).shuffle(order)

    def post(index: int, name: str) -> tuple:
        payload = json.dumps({"name": name}).encode()
        started = time.perf_counter()
        try:
            status, body = request(connections[index], "POST", "/scenario", payload)
        except (OSError, http.client.HTTPException) as error:
            status, body = None, repr(error).encode()
            connections[index].close()
        return name, status, time.perf_counter() - started, body

    rounds: list[tuple[float, list[tuple]]] = []
    snapshots = [child.ask("snapshot")]
    with ThreadPoolExecutor(max_workers=CONNECTIONS) as pool:

        def one_round() -> None:
            # Every connection asks for the same scenario at the same time,
            # so a request's latency is that scenario's work (shared by
            # coalescing), not whichever scenario the seed paired it with.
            started = time.perf_counter()
            outcomes = []
            for name in order:
                futures = [pool.submit(post, index, name) for index in range(CONNECTIONS)]
                outcomes.extend(future.result() for future in futures)
                if time.perf_counter() > deadline:
                    raise HarnessError("the run passed its deadline")
            rounds.append((time.perf_counter() - started, outcomes))

        one_round()
        snapshots.append(child.ask("snapshot"))
        warm_walls: list[float] = []
        while another_warm_round(warm_walls, args.seconds):
            one_round()
            warm_walls.append(rounds[-1][0])
        snapshots.append(child.ask("snapshot"))
    for connection in connections:
        connection.close()
    final = child.finish("report")

    if args.write_reference:
        save_reference(
            args.workload,
            {name: curves(body) for name, status, _, body in rounds[0][1] if status == 200},
        )
    reference = load_reference(args.workload)
    attempted = failed = 0
    for _, outcomes in rounds:
        for name, status, _, body in outcomes:
            attempted += 1
            if status != 200:
                failed += 1
                continue
            failed += deviations(curves(body), reference.get(name)) > 0
    warm = rounds[1:]
    return {
        "setups": setups,
        "cold_s": rounds[0][0],
        "warm_rounds": [wall for wall, _ in warm],
        "latencies": [(name, seconds) for _, outcomes in warm for name, _, seconds, _ in outcomes],
        "response_bytes": [sum(len(body) for *_, body in outcomes) for _, outcomes in warm],
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": final["peak_rss_mb"],
        "snapshots": snapshots,
        "wire_bytes_per_registry": final.get("wire_bytes_per_registry", 0),
        "trace_cost": final["trace_cost"],
        "order": order,
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def scenario_latencies_ms(run: dict) -> dict[str, float]:
    """Median warm latency of each scenario (experiment, for ``paper_cold``)."""
    names = sorted({name for name, _ in run["latencies"]})
    return {
        name: statistics.median(
            seconds * 1e3 for other, seconds in run["latencies"] if other == name
        )
        for name in names
    }


def end_to_end(run: dict) -> dict:
    # Every scenario is requested equally often, so percentiles of the
    # per-scenario medians estimate the request-latency percentiles; taken
    # over raw requests, the 50th percentile falls between two scenarios
    # and is decided by the single slowest request of the faster one.
    deciles = statistics.quantiles(scenario_latencies_ms(run).values(), n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(run["setups"]), "s"),
        "cold_s": (run["cold_s"], "s"),
        "warm_round_s": (statistics.median(run["warm_rounds"]), "s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def phases(run: dict) -> tuple[dict, dict, int]:
    """The cold phase, the summed warm phase and the number of warm rounds.

    A phase holds ``wall_s``, ``session`` (``SessionStats`` fields),
    ``trace`` (per-layer summary; counters as deltas) and, when serving,
    ``service``/``cache``/``shard`` counter deltas.
    """
    if "phases" in run:  # paper_cold: one phase per pass
        passes = run["phases"]
        counters = [one["trace"]["counters"] for one in passes]
        for index in range(len(passes) - 1, 0, -1):
            passes[index]["trace"]["counters"] = delta(counters[index], counters[index - 1])
        return passes[0], _sum_phases(passes[1:]), len(passes) - 1
    snapshots = run["snapshots"]
    for index in range(len(snapshots) - 1, 0, -1):
        later, earlier = snapshots[index], snapshots[index - 1]
        trace = later["trace"]
        if trace is not None:
            trace["counters"] = delta(trace["counters"], earlier["trace"]["counters"])
        snapshots[index] = {
            "wall_s": later["at"] - earlier["at"],
            "service": delta(later["service"], earlier["service"]),
            "session": delta(later["service"]["session"], earlier["service"]["session"]),
            "cache": delta(later["cache"], earlier["cache"]),
            "shard": None if later["shard"] is None else delta(later["shard"], earlier["shard"]),
            "trace": trace,
        }
    return snapshots[1], snapshots[2], len(run["warm_rounds"])


def _sum_phases(items: list[dict]) -> dict:
    total: dict = {}
    for item in items:
        total = _add(total, item)
    return total


def _add(left, right):
    if isinstance(right, dict):
        left = left if isinstance(left, dict) else {}
        return {key: _add(left.get(key), right.get(key)) for key in left.keys() | right.keys()}
    if isinstance(right, (int, float)) and not isinstance(right, bool):
        return (left or 0) + right
    return left if right is None else right


def per_layer(run: dict, workload: str) -> dict:
    cold, warm, rounds = phases(run)

    def combined(read) -> float:
        return per_run(read(cold), read(warm), rounds)

    def self_s(layer: str) -> float:
        return combined(lambda phase: phase["trace"]["self_s"].get(layer, 0.0))

    def calls(layer: str) -> float:
        return combined(lambda phase: phase["trace"]["calls"].get(layer, 0))

    def counter(name: str) -> float:
        return combined(lambda phase: phase["trace"]["counters"].get(name, 0))

    def session(field: str) -> float:
        return combined(lambda phase: phase["session"].get(field, 0))

    def service(field: str) -> float:
        return combined(lambda phase: (phase.get("service") or {}).get(field, 0))

    def shard(field: str, key: str | None = None) -> float:
        def read(phase):
            value = (phase.get("shard") or {}).get(field, {} if key else 0)
            return value.get(key, 0) if key is not None else value

        return combined(read)

    serving = workload != "paper_cold"
    metrics = {
        "arcade.expand_s": (self_s("arcade.expand"), "s"),
        "arcade.expand_calls": (calls("arcade.expand"), "count"),
        "arcade.states": (counter("arcade.states"), "count"),
        "registry.expand_s": (self_s("registry.expand"), "s"),
        "analysis.plan_s": (self_s("analysis.plan"), "s"),
        "analysis.execute_s": (self_s("analysis.execute"), "s"),
        "analysis.groups": (session("groups"), "count"),
        "lumping.partition_s": (self_s("lumping.partition"), "s"),
        "lumping.quotient_s": (self_s("lumping.quotient"), "s"),
        "lumping.states_in": (session("lumped_states_before"), "count"),
        "lumping.states_out": (session("lumped_states_after"), "count"),
        "steady_state.bscc_s": (self_s("steady_state.bscc"), "s"),
        "steady_state.bscc_calls": (calls("steady_state.bscc"), "count"),
        "steady_state.stationary_s": (self_s("steady_state.stationary"), "s"),
        "linsolve.factor_s": (self_s("linsolve.factor"), "s"),
        "linsolve.factorizations": (session("factorizations"), "count"),
        "linsolve.factor_states": (counter("linsolve.factor_states"), "count"),
        "uniformization.sweep_s": (self_s("uniformization.sweep"), "s"),
        "uniformization.sweeps": (session("sweeps"), "count"),
        "uniformization.matvecs": (session("matvecs"), "count"),
        "uniformization.flops": (session("sparse_flops"), "count"),
        # Computed: one float64 value plus one int32 column index per
        # traversed CSR non-zero; vectors are not counted.
        "uniformization.bytes_computed": (session("equivalent_nnz") * 12, "bytes"),
        "foxglynn.window_s": (self_s("foxglynn.window"), "s"),
        "foxglynn.windows": (calls("foxglynn.window"), "count"),
    }
    warm_cache = warm.get("cache") or {}
    for kind in CACHE_KINDS:
        counts = warm_cache.get(kind, {})
        lookups = counts.get("hits", 0) + counts.get("misses", 0)
        metrics[f"cache.hit_ratio.{kind}"] = (
            counts.get("hits", 0) / lookups if lookups else 0.0,
            "ratio",
        )
    evictions = sum(counts.get("evictions", 0) for counts in warm_cache.values())
    metrics["cache.evictions"] = (evictions / rounds, "count")
    metrics["cache.lookup_s"] = (self_s("cache.lookup"), "s")
    flushes = service("flushes")
    metrics["dispatcher.submit_s"] = (self_s("dispatcher.submit"), "s")
    metrics["dispatcher.flushes"] = (flushes, "count")
    metrics["dispatcher.coalesced_per_flush"] = (
        session("requests") / flushes if flushes else 0.0,
        "ratio",
    )
    # Every connection's request is expanded and pickled on its own.
    wire_bytes = run.get("wire_bytes_per_registry", 0) * CONNECTIONS
    metrics["shard.wire_bytes_computed"] = (float(wire_bytes), "bytes")
    metrics["shard.submit_s"] = (self_s("shard.submit"), "s")
    sharded = workload == "serve_sharded"
    metrics["shard.worker_sweep_s"] = (session("sweep_seconds") if sharded else 0.0, "s")
    metrics["shard.worker_factor_s"] = (session("factor_seconds") if sharded else 0.0, "s")
    metrics["shard.routed.0"] = (shard("routed", "0"), "count")
    metrics["shard.routed.1"] = (shard("routed", "1"), "count")
    metrics["shard.retries"] = (shard("retries"), "count")
    metrics["shard.restarts"] = (shard("restarts"), "count")
    if serving:
        warm_latency = sum(seconds for _, seconds in run["latencies"])
        inside = warm["trace"]["total_s"].get("service.submit_scenario", 0.0)
        overhead_ms = (warm_latency - inside) / len(run["latencies"]) * 1e3
        response_bytes = statistics.mean(run["response_bytes"])
    else:
        overhead_ms = response_bytes = 0.0
    metrics["http.overhead_ms"] = (overhead_ms, "ms")
    metrics["http.response_bytes"] = (float(response_bytes), "bytes")
    wall = combined(lambda phase: phase["wall_s"])
    covered = combined(lambda phase: phase["trace"]["covered_s"])
    measured = cold["wall_s"] + warm["wall_s"]
    metrics["trace.overhead_ratio"] = (run["trace_cost"]["cost_s"] / measured, "ratio")
    metrics["trace.unaccounted_ratio"] = (1.0 - covered / wall, "ratio")
    metrics["repo.src_loc"] = (float(src_loc()), "lines")
    return metrics


#: Artifact kinds whose warm hit ratio is reported.
CACHE_KINDS = ("bscc", "stationary", "factorization", "quotient", "transformed", "operator", "foxglynn")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    trace_out = TRACE_DIR / f"{args.workload}.spans.jsonl" if args.trace else None
    try:
        if args.workload == "paper_cold":
            run = paper_cold(args, deadline, trace_out)
        else:
            run = serve(args, deadline, trace_out)
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    metrics = per_layer(run, args.workload) if args.trace else end_to_end(run)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setups_s": run["setups"],
        "cold_s": run["cold_s"],
        "warm_rounds_s": run["warm_rounds"],
        "latency_samples": len(run["latencies"]),
        "median_latency_ms": scenario_latencies_ms(run),
        "order": run.get("order"),
    }
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
