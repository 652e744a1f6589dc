"""Per-layer spans recorded around the program's public calls.

The traced pass installs thin wrappers around a fixed table of public
functions and methods (``LAYERS``), all from this file: nothing under
``src/`` knows it is being traced.  Each wrapper records one span; a
span's *self* time is its duration minus the spans it encloses on the
same thread, so ``rrset.tim.kpt`` excludes the sampling nested inside
KPT and ``core.ti_engine`` is the engine's own loop.  Spans are
aggregated in memory (time and calls per layer) and read out when the
traced passes end; the untraced passes run with no wrapper installed.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


def _count_arg(args, kwargs) -> int:
    # sample_batch_flat(self, count, rng=None, *, roots=None)
    return int(kwargs["count"] if "count" in kwargs else args[1])


def _engine_result(tracer: "Tracer", result) -> None:
    tracer.add("core.ti_engine.rounds", result.extras["rounds"])
    tracer.add("rrset.collection.store_bytes", result.extras["memory"]["store_bytes"])


def _update_report(tracer: "Tracer", report) -> None:
    tracer.add("api.session.invalidation_rate", report["invalidation_rate"])


def _layers():
    """``(owner, attribute, span name, count fn, result fn)`` per public call."""
    import repro.api.session as session_mod
    from repro.api.session import AllocationSession
    from repro.core.ti_engine import TIEngine
    from repro.rrset.backend import ParallelBackend, SerialBackend
    from repro.rrset.collection import RRCollection, SharedRRCollection, SharedRRStore
    from repro.rrset.tim import KPTEstimator
    from repro.serve.pool import SessionPool
    from repro.serve.server import ReproServer

    table = [
        (SerialBackend, "sample_batch_flat", "rrset.backend.sample", _count_arg, None),
        (ParallelBackend, "sample_batch_flat", "rrset.backend.sample", _count_arg, None),
        (KPTEstimator, "estimate", "rrset.tim.kpt", None, None),
        (TIEngine, "run", "core.ti_engine", None, _engine_result),
        (RRCollection, "add_sets_flat", "rrset.collection.ingest", None, None),
        (SharedRRStore, "extend_flat", "rrset.collection.ingest", None, None),
        (SharedRRCollection, "adopt", "rrset.collection.ingest", None, None),
        (SharedRRStore, "sets_touching", "rrset.collection.invalidate", None, None),
        (SharedRRStore, "replace_sets", "rrset.collection.invalidate", None, None),
        (session_mod, "compile_updates", "graph.updates.compile", None, None),
        (AllocationSession, "apply_edge_updates", "api.session.update", None, _update_report),
        (SessionPool, "lease", "serve.pool.lease", None, None),
        (ReproServer, "submit", "serve.server.submit", None, None),
    ]
    for cls in (RRCollection, SharedRRCollection):
        for name in ("best_node", "best_node_by_ratio", "max_residual_fraction"):
            table.append((cls, name, "rrset.collection.argmax", None, None))
        table.append((cls, "mark_covered_by", "rrset.collection.cover", None, None))
    return table


class Tracer:
    """Span stack per thread; self time, total time and calls per span name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        # [name, start, time covered by child spans]
        self._stack().append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack().pop()
        duration = time.perf_counter() - start
        stack = self._stack()
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[name] += duration - child
            self.total_s[name] += duration
            self.calls[name] += 1

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.values[key] += float(value)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every call in the layer table."""
        for owner, attr, name, count, on_result in _layers():
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count, on_result))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore the original callables, in reverse order."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, count, on_result):
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                tracer.add(name + ".count", count(args, kwargs))
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced


def layer_metrics(tracer: Tracer, ops: int, op_s: float) -> dict[str, float]:
    """Per-op layer figures from traced passes of *ops* ops lasting *op_s*.

    ``op_s`` is the summed duration of the benchmark's own per-op span
    (``bench.op``).  The serve layers cross threads — the client waits
    on the main thread, ``submit`` runs on an HTTP handler thread and
    the engine on the solver thread — so they are taken as differences
    of totals, which is exact under one closed-loop caller.
    """
    s, t, c, v = tracer.self_s, tracer.total_s, tracer.calls, tracer.values
    submit = t.get("serve.server.submit", 0.0)
    http = op_s - submit if submit else 0.0
    overhead = (
        submit - t.get("core.ti_engine", 0.0) - t.get("serve.pool.lease", 0.0)
        if submit
        else 0.0
    )
    per = {
        "rrset.backend.sample_s": s.get("rrset.backend.sample", 0.0),
        "rrset.backend.sets": v.get("rrset.backend.sample.count", 0.0),
        "rrset.tim.kpt_s": s.get("rrset.tim.kpt", 0.0),
        "rrset.tim.kpt_calls": c.get("rrset.tim.kpt", 0),
        "rrset.collection.argmax_s": s.get("rrset.collection.argmax", 0.0),
        "rrset.collection.cover_s": s.get("rrset.collection.cover", 0.0),
        "rrset.collection.cover_calls": c.get("rrset.collection.cover", 0),
        "core.ti_engine.self_s": s.get("core.ti_engine", 0.0),
        "core.ti_engine.rounds": v.get("core.ti_engine.rounds", 0.0),
        "rrset.collection.ingest_s": s.get("rrset.collection.ingest", 0.0),
        "rrset.collection.adopt_calls": c.get("rrset.collection.ingest", 0),
        "rrset.collection.store_bytes": v.get("rrset.collection.store_bytes", 0.0),
        "graph.updates.compile_s": s.get("graph.updates.compile", 0.0),
        "rrset.collection.invalidate_s": s.get("rrset.collection.invalidate", 0.0),
        "api.session.update_s": s.get("api.session.update", 0.0),
        "api.session.invalidation_rate": v.get("api.session.invalidation_rate", 0.0),
        "serve.pool.lease_s": s.get("serve.pool.lease", 0.0),
        "serve.server.overhead_ms": 1e3 * overhead,
        "serve.client.http_ms": 1e3 * http,
    }
    out = {key: value / ops for key, value in per.items()}
    # Every layer's self time, over the time of the ops that contain it.
    # Outside serve, the remainder is the op span's own self time: code
    # between the benchmark's call and the first wrapped layer.
    if submit:
        covered = op_s
    else:
        covered = op_s - s.get("bench.op", 0.0)
    out["trace.coverage_ratio"] = covered / op_s
    return out


#: Which end-to-end metric each layer metric should move, and on which
#: workload.  Printed in every run's provenance block so that a change
#: can name the layer it claims to move and where.
LAYER_MAP = {
    "rrset.backend.sample_s": {
        "calls": "SamplerBackend.sample_batch_flat",
        "moves": ["ops_per_s", "op_p50_ms"],
        "on": "cold_solve (most of the op); about 0 on serve_warm",
    },
    "rrset.tim.kpt_s": {
        "calls": "KPTEstimator.estimate (self time, sampling excluded)",
        "moves": ["ops_per_s", "op_p50_ms"],
        "on": "cold_solve, live_update; 0 on serve_warm (singleton OPT bounds)",
    },
    "rrset.collection.argmax_s": {
        "calls": "best_node, best_node_by_ratio, max_residual_fraction",
        "moves": ["op_p50_ms", "op_p90_ms"],
        "on": "serve_warm, live_update; a small share of cold_solve",
    },
    "rrset.collection.cover_s": {
        "calls": "mark_covered_by",
        "moves": ["op_p50_ms", "op_p90_ms"],
        "on": "serve_warm, live_update; a small share of cold_solve",
    },
    "core.ti_engine.self_s": {
        "calls": "TIEngine.run minus its traced children",
        "moves": ["op_p50_ms", "op_p90_ms"],
        "on": "serve_warm, live_update",
    },
    "rrset.collection.ingest_s": {
        "calls": "RRCollection.add_sets_flat, SharedRRStore.extend_flat, SharedRRCollection.adopt",
        "moves": ["op_p50_ms", "peak_rss_mb"],
        "on": "serve_warm (adoption); cold_solve (RSS)",
    },
    "graph.updates.compile_s": {
        "calls": "compile_updates as bound in repro.api.session",
        "moves": ["op_p50_ms", "ops_per_s"],
        "on": "live_update only",
    },
    "rrset.collection.invalidate_s": {
        "calls": "SharedRRStore.sets_touching, SharedRRStore.replace_sets",
        "moves": ["op_p50_ms", "ops_per_s"],
        "on": "live_update only",
    },
    "api.session.update_s": {
        "calls": "AllocationSession.apply_edge_updates minus its traced children",
        "moves": ["op_p50_ms", "ops_per_s"],
        "on": "live_update only",
    },
    "serve.pool.lease_s": {
        "calls": "SessionPool.lease",
        "moves": ["op_p50_ms"],
        "on": "serve_warm only",
    },
    "serve.server.overhead_ms": {
        "calls": "ReproServer.submit minus engine run and lease",
        "moves": ["op_p50_ms"],
        "on": "serve_warm only",
    },
    "serve.client.http_ms": {
        "calls": "client round trip minus ReproServer.submit",
        "moves": ["op_p50_ms"],
        "on": "serve_warm only",
    },
}
