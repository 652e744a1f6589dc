"""Output checks applied to every op, and self-tests of the checks.

An op counts towards ``ok_ratio`` only when every check passes.  The
checks use the instance the benchmark built, never the program's own
accounting, except where the check is about that accounting (reported
payments against budgets).
"""

from __future__ import annotations

import math

import numpy as np

from ruler import RRSample, score, stream


def budget_slack() -> float:
    """The engine's absolute budget slack: its feasibility test allows it."""
    from repro.core.ti_engine import _BUDGET_SLACK

    return float(_BUDGET_SLACK)


def check_allocation(seed_sets, n: int, h: int, blocked=None) -> list[str]:
    """Partition matroid: one ad per node, nodes in range, none blocked."""
    failures = []
    if len(seed_sets) != h:
        failures.append(f"{len(seed_sets)} seed sets for {h} ads")
    flat = np.asarray([int(v) for seeds in seed_sets for v in seeds], dtype=np.int64)
    if flat.size:
        if flat.min() < 0 or flat.max() >= n:
            failures.append("seed outside [0, n)")
            return failures
        if np.unique(flat).size != flat.size:
            failures.append("a node is seeded for two ads (or twice)")
        if blocked is not None and blocked[flat].any():
            failures.append("a blocked node was seeded")
    return failures


def check_payments(
    seed_sets, revenue_per_ad, cost_per_ad, budgets, incentives
) -> list[str]:
    """Reported payment ≤ budget + slack; reported seed cost is Σ incentives."""
    failures = []
    slack = budget_slack()
    for ad, seeds in enumerate(seed_sets):
        cost = float(sum(float(incentives[ad][v]) for v in seeds))
        if not math.isclose(cost, cost_per_ad[ad], rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"ad {ad}: reported seed cost {cost_per_ad[ad]} != {cost}")
        payment = revenue_per_ad[ad] + cost_per_ad[ad]
        if not payment <= budgets[ad] + slack:
            failures.append(f"ad {ad}: payment {payment} exceeds budget {budgets[ad]}")
    return failures


def check_result(instance, result, blocked=None) -> list[str]:
    """Both checks for an in-process :class:`AllocationResult`."""
    seed_sets = result.allocation.seed_sets()
    h = instance.h
    return check_allocation(seed_sets, instance.n, h, blocked) + check_payments(
        seed_sets,
        list(result.revenue_per_ad),
        list(result.seeding_cost_per_ad),
        [instance.budget(i) for i in range(h)],
        instance.incentives,
    )


def checker_selftest() -> list[str]:
    """Feed the checks infeasible allocations; each must be refused.

    Returns the cases the checks wrongly accepted (empty when sound).
    """
    n, h = 10, 2
    incentives = [np.ones(n), np.ones(n)]
    blocked = np.zeros(n, dtype=bool)
    blocked[9] = True
    cases = {
        "shared node": check_allocation([[1, 2], [2, 3]], n, h),
        "blocked node": check_allocation([[1], [9]], n, h, blocked),
        "node out of range": check_allocation([[1], [10]], n, h),
        "over budget": check_payments([[1], [2]], [5.0, 1.0], [1.0, 1.0], [5.0, 5.0], incentives),
        "misreported cost": check_payments([[1], [2]], [1.0, 1.0], [1.0, 3.0], [5.0, 5.0], incentives),
    }
    accepted = [name for name, failures in cases.items() if not failures]
    if check_allocation([[1, 2], [3]], n, h, blocked) or check_payments(
        [[1], [2]], [3.0, 1.0], [1.0, 1.0], [4.0, 4.0], incentives
    ):
        accepted.append("feasible allocation refused")
    return accepted


def ruler_selfcheck() -> dict:
    """The ruler against ``evaluate_allocation_mc`` on a small instance.

    Both estimate the same revenue, from independent randomness; they
    must agree within a 95% confidence interval of their difference.
    The Monte-Carlo side's error comes from the spread of repeated
    independent evaluations.  Seeds are fixed: the check is about the
    ruler, not about a workload.
    """
    import repro
    from repro.experiments.datasets import build_epinions_syn
    from repro.experiments.harness import evaluate_allocation_mc

    dataset = build_epinions_syn(n=400, h=3, seed=11, singleton_rr_samples=2_000)
    instance = dataset.build_instance(alpha=1.0)
    result = repro.solve(instance, "TI-CARM", repro.EngineSpec(seed=0, theta_cap=4_000))
    sample = RRSample(instance.graph, instance.ad_probs[0], 200_000, stream(0, 99))
    cpes = [instance.cpe(i) for i in range(instance.h)]
    ruler, ruler_se = score(sample, result.allocation.seed_sets(), cpes)
    reps = [evaluate_allocation_mc(instance, result, n_runs=60, seed=k) for k in range(10)]
    mc = float(np.mean(reps))
    mc_se = float(np.std(reps, ddof=1) / math.sqrt(len(reps)))
    z = abs(ruler - mc) / math.sqrt(ruler_se**2 + mc_se**2)
    return {"ruler": ruler, "mc": mc, "z": z, "ok": bool(z <= 1.96)}
