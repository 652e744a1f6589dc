"""Session warm-start benchmark (perf trajectory: ``BENCH_session.json``).

Measures the value of :class:`repro.AllocationSession` for the
production query pattern — re-solving one graph + probability family
under varying budgets:

* **cold** — a fresh ``repro.solve`` per budget (what a session-less
  caller pays: RR sampling, KPT estimation and pagerank orders restart
  from zero every call);
* **warm** — one session solving the same budget sequence; solves after
  the first adopt the already-drawn RR stores and sample only if they
  need more sets than any earlier solve did.

The report embeds the session's sampler counters, so the mechanism is
visible next to the wall-clock numbers: the warm pass should show ~one
cold solve's worth of ``sets_sampled`` for the *whole* budget sweep.

Run standalone: ``PYTHONPATH=src python benchmarks/bench_session_reuse.py``,
or via ``pytest benchmarks/bench_session_reuse.py`` (structure checks
only — wall-clock ratios from one machine would fail spuriously
elsewhere).  Like the other ``BENCH_*.json`` files, the committed
numbers extend the trajectory; re-run on your own host to compare.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.api import AllocationSession, EngineSpec, solve
from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.experiments.datasets import build_dataset

try:  # package import (pytest from the repo root)
    from benchmarks.trajectory import append_entry
except ImportError:  # standalone: python benchmarks/<script>.py
    from trajectory import append_entry

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_session.json"

WORKLOAD = dict(
    dataset="epinions_syn",
    n=2_000,
    h=8,
    singleton_rr_samples=2_000,
    eps=0.3,
    theta_cap=20_000,
    seed=11,
    budget_factors=(1.0, 0.75, 0.5, 1.25, 0.9),
)


def _build():
    ds = build_dataset(
        WORKLOAD["dataset"],
        n=WORKLOAD["n"],
        h=WORKLOAD["h"],
        singleton_rr_samples=WORKLOAD["singleton_rr_samples"],
    )
    instance = ds.build_instance(incentive_model="linear", alpha=1.0)
    spec = EngineSpec(
        eps=WORKLOAD["eps"],
        theta_cap=WORKLOAD["theta_cap"],
        opt_lower=ds.opt_lower_bounds(instance.h),
        seed=WORKLOAD["seed"],
    )
    return ds, instance, spec


def _with_budgets(instance: RMInstance, factor: float) -> RMInstance:
    advertisers = [
        Advertiser(index=i, cpe=instance.cpe(i), budget=instance.budget(i) * factor)
        for i in range(instance.h)
    ]
    return RMInstance(
        instance.graph, advertisers, instance.ad_probs, instance.incentives
    )


def run_benchmark() -> dict:
    ds, instance, spec = _build()
    factors = WORKLOAD["budget_factors"]
    queries = [_with_budgets(instance, f) for f in factors]

    cold_times = []
    cold_revenue = []
    for query in queries:
        t0 = time.perf_counter()
        result = solve(query, "TI-CSRM", spec)
        cold_times.append(time.perf_counter() - t0)
        cold_revenue.append(result.total_revenue)

    warm_times = []
    warm_revenue = []
    with AllocationSession(instance.graph, spec=spec) as session:
        for query in queries:
            t0 = time.perf_counter()
            result = session.solve(query, "TI-CSRM")
            warm_times.append(time.perf_counter() - t0)
            warm_revenue.append(result.total_revenue)
        stats = session.stats

    first, rest = warm_times[0], warm_times[1:]
    cold_rest = cold_times[1:]
    report = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workload": dict(WORKLOAD, budget_factors=list(factors)),
        "cold": {
            "times_s": [round(t, 4) for t in cold_times],
            "total_s": round(sum(cold_times), 4),
            "revenue": [round(r, 1) for r in cold_revenue],
        },
        "warm_session": {
            "times_s": [round(t, 4) for t in warm_times],
            "total_s": round(sum(warm_times), 4),
            "first_solve_s": round(first, 4),
            "revenue": [round(r, 1) for r in warm_revenue],
            "session_stats": stats,
        },
        "speedup": {
            "warm_resolve_vs_cold": round(
                (sum(cold_rest) / len(cold_rest)) / max(sum(rest) / len(rest), 1e-9), 2
            )
            if rest
            else None,
            "sweep_total": round(sum(cold_times) / max(sum(warm_times), 1e-9), 2),
        },
        "note": (
            "warm_resolve_vs_cold compares the mean per-solve time after the "
            "session's first (store-filling) solve against the mean cold solve; "
            "session_stats.sets_sampled shows the sampling the whole sweep "
            "actually performed"
        ),
    }
    return report


def main() -> None:
    report = run_benchmark()
    append_entry(RESULT_PATH, report)  # append-only: history is kept
    print(json.dumps(report, indent=2))
    print(f"# written to {RESULT_PATH}")


# -- pytest wrappers (structure only; see module docstring) -------------
def test_report_structure():
    report = run_benchmark()
    assert report["warm_session"]["session_stats"]["solves"] == len(
        WORKLOAD["budget_factors"]
    )
    assert len(report["cold"]["times_s"]) == len(WORKLOAD["budget_factors"])
    # The warm sweep must not sample more sets than one cold solve per
    # distinct theta requirement — i.e. far fewer than solves × theta.
    stats = report["warm_session"]["session_stats"]
    assert stats["stored_sets"] <= WORKLOAD["theta_cap"] * WORKLOAD["h"]


if __name__ == "__main__":
    main()
