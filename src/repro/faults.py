"""Deterministic fault injection for chaos testing.

Long-running execution (grid sweeps, the serving layer, live graph
updates) has to survive failing cells, rejected or slow queries and
interrupted mutations.  Testing those paths with real resource
exhaustion is flaky by construction, so this module provides a seeded
:class:`FaultPlan` that fires *reproducible* faults at named seams:

======================  ================================================
seam                    fired by
======================  ================================================
``cell.raise``          :func:`repro.experiments.grid.run_grid` just
                        before a cell solves — the cell raises
                        :class:`~repro.errors.FaultInjectedError`.
``cell.delay``          same point — the cell sleeps ``delay_s``
                        seconds first (trips the per-cell timeout).
``serve.reject``        :meth:`repro.serve.server.ReproServer` at
                        request admission — the tagged request is
                        rejected 429 even though the queue has room.
``serve.delay``         the serve solver loop just before a query
                        solves — the solver sleeps ``delay_s`` seconds
                        (backs the queue up / trips query deadlines).
``mutate.delay``        :meth:`AllocationSession.apply_edge_updates`
                        between invalidation and resampling — the
                        session sleeps ``delay_s`` seconds with the
                        store partially rewritten, widening the window
                        in which chaos tests interrupt a mutation.
======================  ================================================

Rules fire either on deterministic arrival ordinals (``at`` /
``count``) or probabilistically from a stream seeded by
``(plan.seed, rule index)`` — both reproducible run-to-run.  The seams
consult the *installed* plan (:func:`install_fault_plan` /
:func:`fault_plan`), which defaults to ``None``: with no plan
installed every seam is a no-op, so production code pays one ``is
None`` check.

Usage::

    from repro.faults import FaultPlan, FaultRule, fault_plan

    plan = FaultPlan([FaultRule(seam="cell.raise", at=0)], seed=3)
    with fault_plan(plan):
        run_grid(spec, manifest)   # the first cell raises and is
                                   # quarantined; a resume re-runs it
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro._rng import as_generator
from repro.errors import FaultInjectedError, SpecError

#: The named seams a rule may target (see the module docstring).
SEAMS = (
    "cell.raise",
    "cell.delay",
    "serve.reject",
    "serve.delay",
    "mutate.delay",
)


@dataclass(frozen=True)
class FaultRule:
    """One fault trigger of a :class:`FaultPlan`.

    ``at``/``count`` select deterministic arrival ordinals at the seam
    (0-based: ``at=2, count=3`` fires on the 3rd–5th arrivals);
    ``probability`` switches the rule to a seeded Bernoulli draw per
    arrival instead.  ``key``, when set, restricts the rule to arrivals
    whose context key matches (e.g. a grid ``cell_id``) — ordinals
    still count *all* arrivals at the seam, so ``at`` stays a property
    of global execution order.  ``delay_s`` is the sleep for the delay
    seams; ``message`` is carried into the injected exception.
    """

    seam: str
    at: int = 0
    count: int = 1
    probability: float | None = None
    key: str | None = None
    delay_s: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise SpecError(f"unknown fault seam {self.seam!r}; options: {SEAMS}")
        if self.at < 0 or self.count < 1:
            raise SpecError(
                f"fault rule needs at >= 0 and count >= 1, got at={self.at}, "
                f"count={self.count}"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise SpecError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_s < 0:
            raise SpecError(f"delay_s must be non-negative, got {self.delay_s}")


class FaultPlan:
    """A seeded, replayable set of :class:`FaultRule` triggers.

    The plan keeps one arrival counter per seam and one RNG stream per
    probabilistic rule (seeded by ``(seed, rule index)``), so the exact
    same sequence of :meth:`fire` calls produces the exact same faults
    — chaos tests replay instead of sleep-and-hope.  :meth:`reset`
    rewinds everything for a second identical pass.
    """

    def __init__(self, rules=(), seed: int = 0) -> None:
        self.rules = tuple(rules)
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise SpecError(f"FaultPlan rules must be FaultRule, got {rule!r}")
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        """Rewind arrival counters and per-rule RNG streams."""
        self._arrivals: dict[str, int] = {seam: 0 for seam in SEAMS}
        self._fired: dict[str, int] = {seam: 0 for seam in SEAMS}
        self._rngs = {
            index: as_generator(np.random.SeedSequence([self.seed, index]))
            for index, rule in enumerate(self.rules)
            if rule.probability is not None
        }

    def fire(self, seam: str, key: str | None = None) -> FaultRule | None:
        """Record one arrival at *seam*; the rule that fires, if any.

        Every probabilistic rule watching the seam consumes exactly one
        draw per arrival (whether or not an earlier rule already
        matched), so adding or removing one rule never perturbs another
        rule's stream.
        """
        if seam not in SEAMS:
            raise SpecError(f"unknown fault seam {seam!r}; options: {SEAMS}")
        ordinal = self._arrivals[seam]
        self._arrivals[seam] = ordinal + 1
        hit: FaultRule | None = None
        for index, rule in enumerate(self.rules):
            if rule.seam != seam:
                continue
            if rule.probability is not None:
                draw = self._rngs[index].random()
                matched = draw < rule.probability
            else:
                matched = rule.at <= ordinal < rule.at + rule.count
            if matched and rule.key is not None and rule.key != key:
                matched = False
            if matched and hit is None:
                hit = rule
        if hit is not None:
            self._fired[seam] += 1
        return hit

    def maybe_raise(
        self, seam: str, key: str | None = None, exc_type=FaultInjectedError
    ) -> None:
        """Raise *exc_type* if a rule fires at *seam* (else no-op)."""
        rule = self.fire(seam, key=key)
        if rule is not None:
            raise exc_type(f"[fault:{seam}] {rule.message}")

    @property
    def stats(self) -> dict:
        """Per-seam ``{"arrivals": ..., "fired": ...}`` observability."""
        return {
            seam: {"arrivals": self._arrivals[seam], "fired": self._fired[seam]}
            for seam in SEAMS
            if self._arrivals[seam] or self._fired[seam]
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(rules={len(self.rules)}, seed={self.seed})"


# ----------------------------------------------------------------------
# The installed plan (no-op default)
# ----------------------------------------------------------------------
_lock = threading.Lock()
_ACTIVE: FaultPlan | None = None


def install_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install *plan* as the process-wide active plan; returns the previous.

    ``None`` uninstalls (the production default: every seam no-ops).
    """
    global _ACTIVE
    if plan is not None and not isinstance(plan, FaultPlan):
        raise SpecError(f"expected a FaultPlan or None, got {type(plan).__name__}")
    with _lock:
        previous, _ACTIVE = _ACTIVE, plan
    return previous


def active_fault_plan() -> FaultPlan | None:
    """The currently installed plan (``None`` when chaos is off)."""
    return _ACTIVE


@contextmanager
def fault_plan(plan: FaultPlan):
    """Scoped install: active inside the ``with``, previous plan restored after."""
    previous = install_fault_plan(plan)
    try:
        yield plan
    finally:
        install_fault_plan(previous)


def fire(seam: str, plan: FaultPlan | None = None, key: str | None = None):
    """Seam-side helper: fire on *plan*, falling back to the installed one.

    Returns the matched :class:`FaultRule` or ``None``; with no plan in
    play this is the no-op fast path every seam takes in production.
    """
    plan = plan if plan is not None else _ACTIVE
    if plan is None:
        return None
    return plan.fire(seam, key=key)
