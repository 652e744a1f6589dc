"""The unified public solver API.

Three pieces turn the four Section-5 algorithms (and any user-defined
variant) into one surface:

* :class:`~repro.api.spec.EngineSpec` — a frozen, validated bundle of
  every engine knob with a JSON-able ``to_dict`` / ``from_dict``
  round-trip.  ``ExperimentConfig``, grid-spec ``config`` blocks and
  CLI flags all compile down to it instead of carrying parallel copies.
* the **algorithm registry** — :func:`~repro.api.registry.register_algorithm`
  turns a ``(candidate rule, selector)`` pair (built-in string rules or
  user callables) into a named algorithm the whole stack — harness,
  grids, CLI — can run.
* :func:`~repro.api.solve.solve` — the one-call entrypoint
  ``repro.solve(instance, "TI-CSRM", spec)``, plus
  :class:`~repro.api.session.AllocationSession` which keeps RR samples,
  KPT estimates and pagerank orders warm across repeated solves over
  the same graph and probability family.

See docs/ARCHITECTURE.md §9 for the full contract.
"""

from repro.api.spec import EngineSpec
from repro.api.registry import (
    AlgorithmDef,
    BUILTIN_ALGORITHMS,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.api.solve import solve
from repro.api.session import AllocationSession

__all__ = [
    "EngineSpec",
    "AlgorithmDef",
    "BUILTIN_ALGORITHMS",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "unregister_algorithm",
    "solve",
    "AllocationSession",
]
