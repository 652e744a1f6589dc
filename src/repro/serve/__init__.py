"""``repro.serve`` — allocation-as-a-service over a warm session pool.

The batch layers (``repro.solve``, the grid runner) pay full sampling
cost per invocation or per sweep; this package turns the same engine
into a long-running daemon that keeps
:class:`~repro.api.session.AllocationSession` objects warm *across*
requests, so repeated queries over the same ``(dataset, probability
family)`` reuse RR sets, KPT estimates and pagerank orders they
already paid for.  See docs/ARCHITECTURE.md §13 for the design contracts
(pool keying, admission/backpressure, LRU eviction, drain).

Layout:

* :mod:`repro.serve.schema` — :class:`QueryRequest` validation and the
  JSON request/response shapes.
* :mod:`repro.serve.pool` — :class:`SessionPool`, the LRU warm-session
  pool under a global byte budget.
* :mod:`repro.serve.server` — :class:`ReproServer` /
  :class:`ServeConfig`, the HTTP frontend + single solver loop.
* :mod:`repro.serve.client` — the thin stdlib client the ``repro
  query`` CLI wraps.
"""

from repro.serve.schema import QueryRequest, error_payload, pool_key, result_payload
from repro.serve.pool import PoolEntry, SessionPool
from repro.serve.server import ReproServer, ServeConfig
from repro.serve import client

__all__ = [
    "QueryRequest",
    "pool_key",
    "result_payload",
    "error_payload",
    "PoolEntry",
    "SessionPool",
    "ReproServer",
    "ServeConfig",
    "client",
]
