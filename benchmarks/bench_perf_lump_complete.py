"""Perf benchmark — lumping coverage of interval-until bundles.

Lumped bounded-reachability sweeps (Fig. 4/5) are gated in
``bench_perf_batched_sweep``; this gate covers the interval-until family:

* **Interval-until bundles (Fig. 8/9 family)** — the Line 2 survivability
  thresholds with a strictly positive lower bound ``a``, one bundle per
  repair strategy.  Lumped, each bundle runs its backward phase on the
  quotient of the target-absorbed chain and its forward phase on the
  quotient of the safe-restricted chain (seeded with the quantized phase-2
  values).  Gates: >= 3x sweep-work reduction (``equivalent_nnz``, which
  unifies the CSR and dense-BLAS lanes), <= 1e-12 agreement with the
  unlumped bundle, and a warm repeat with **zero quotient-kind cache
  misses**.

Long-run measures (Table 2) are not lumped: their stationary solve costs
less on the full chain than the partition refinement does.  Their warm
cache behaviour is gated by the tier-1 test
``test_repeat_portfolio_incurs_zero_longrun_cache_misses``.

The sessions run at ``epsilon=1e-14`` so Poisson-truncation noise sits
well below the 1e-12 agreement gate (the lumped backward phase keys its
Fox-Glynn windows on the quotient's own, smaller uniformization rate, so
the two lanes genuinely use different windows).

Measurements land in ``BENCH_lump_complete.json`` (override with
``REPRO_BENCH_LUMP_JSON``) for the CI artifact upload.  Setting
``REPRO_BENCH_FAST=1`` trims the portfolio to two repair strategies; all
gates hold there too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
from bench_support import run_once

from repro.analysis import AnalysisSession, MeasureKind, MeasureRequest, SessionStats
from repro.casestudy.experiments import line_service_interval_lower, line_state_space
from repro.casestudy.facility import DISASTER_2, LINE2, PAPER_STRATEGIES
from repro.service import ArtifactCache

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
STRATEGIES = PAPER_STRATEGIES[:2] if FAST else PAPER_STRATEGIES
INTERVAL_POINTS = 7 if FAST else 15
INTERVAL_LOWER = 10.0
BENCH_JSON = Path(os.environ.get("REPRO_BENCH_LUMP_JSON", "BENCH_lump_complete.json"))


def _record(key: str, payload: dict) -> None:
    """Merge one gate's measurements into the shared JSON document."""
    document = {}
    if BENCH_JSON.exists():
        try:
            document = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = {}
    document[key] = payload
    BENCH_JSON.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _interval_requests() -> list[MeasureRequest]:
    """The Fig. 8/9 survivability family as interval-until measures.

    Same Line 2 chains, disaster and service threshold as the paper's
    figures, but with a positive lower bound: "the service level is
    recovered somewhere in ``[a, t]``" — the measure family the figures'
    plain reachability curves degenerate from at ``a = 0``.
    """
    threshold = line_service_interval_lower(LINE2, 0)
    times = INTERVAL_LOWER + np.linspace(0.0, 80.0, INTERVAL_POINTS)
    requests = []
    for configuration in STRATEGIES:
        space = line_state_space(LINE2, configuration)
        requests.append(
            MeasureRequest(
                chain=space.chain,
                times=times,
                kind=MeasureKind.INTERVAL_REACHABILITY,
                target=space.states_with_service_at_least(threshold),
                lower=INTERVAL_LOWER,
                initial_distributions=space.initial_distribution_for_disaster(
                    DISASTER_2
                ),
                tag=configuration.label,
            )
        )
    return requests


def _run_interval(lump: bool, cache: ArtifactCache | None):
    stats = SessionStats()
    session = AnalysisSession(
        lump=lump, artifacts=cache, stats=stats, epsilon=1e-14
    )
    indices = [session.add(request) for request in _interval_requests()]
    results = session.execute()
    values = [np.asarray(results[index].squeezed) for index in indices]
    blocks = [results[index].lumped_states for index in indices]
    return values, blocks, stats


def test_interval_bundles_run_on_quotients(benchmark):
    """Fig. 8/9 interval bundles: quotient sweeps, >= 3x work reduction."""
    unlumped_values, unlumped_blocks, unlumped_stats = _run_interval(False, None)
    assert all(blocks is None for blocks in unlumped_blocks)

    cache = ArtifactCache()
    cold_values, cold_blocks, cold_stats = _run_interval(True, cache)
    warm_snapshot = cache.stats()
    (warm_values, _, _) = run_once(benchmark, lambda: _run_interval(True, cache))
    deltas = cache.stats().misses_since(warm_snapshot)

    deviation = max(
        float(np.max(np.abs(lumped - unlumped)))
        for lumped, unlumped in zip(cold_values, unlumped_values)
    )
    reduction = unlumped_stats.equivalent_nnz / max(cold_stats.equivalent_nnz, 1)
    full_states = _interval_requests()[0].chain.num_states
    print()
    print(
        f"Fig. 8/9 interval bundles ({len(STRATEGIES)} strategies, "
        f"a={INTERVAL_LOWER}, {INTERVAL_POINTS} points): quotient blocks "
        f"{cold_blocks} vs {full_states} full states, equivalent_nnz "
        f"{unlumped_stats.equivalent_nnz} -> {cold_stats.equivalent_nnz} "
        f"({reduction:.1f}x), max deviation {deviation:.2e}, warm miss "
        f"deltas {deltas}"
    )
    _record(
        "interval_bundles",
        {
            "strategies": len(STRATEGIES),
            "full_states": full_states,
            "quotient_blocks": cold_blocks,
            "equivalent_nnz_unlumped": unlumped_stats.equivalent_nnz,
            "equivalent_nnz_lumped": cold_stats.equivalent_nnz,
            "reduction": reduction,
            "max_deviation": deviation,
            "warm_quotient_misses": deltas.get("quotient", 0),
        },
    )
    # Gate (a): every bundle actually ran on a quotient.
    assert all(blocks is not None and blocks < full_states for blocks in cold_blocks)
    # Gate (b): >= 3x sweep-work reduction on the lumped bundles.
    assert reduction >= 3.0
    # Gate (c): lumped values agree with the unlumped bundles.
    assert deviation <= 1e-12
    # Gate (d): the warm repeat rebuilds no quotients and re-lumps nothing.
    assert deltas.get("quotient", 0) == 0
    for warm, cold in zip(warm_values, cold_values):
        np.testing.assert_array_equal(warm, cold)

