"""The three closed-loop workloads: ``cold_solve``, ``serve_warm``, ``live_update``.

Each workload is driven by one caller that issues its next op only
after the previous one returned.  Every input — op seeds, queries,
edge batches, blocked masks, hold-out samples — is drawn here from the
workload seed with numpy, outside the timed region; the program sees
only the generated inputs.  All three run on the same graph, the
program's ``epinions_syn`` analog at ``n=5000`` whose ``h=8`` ads share
one probability vector, so one hold-out sample per graph scores every
ad (``cold_solve`` allocates the first four).

An op's time is the sum of its timed sections (``Timer``).  Input
generation and the cheap checks run between sections.  The checks that
need data of the benchmark's own (a checking copy of the dataset, the
hold-out rulers) wait for :meth:`Workload.finish`, after the ops: while
the ops run, the process holds the program's memory plus little more
than the seed sets kept for scoring, so its peak RSS is the program's.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection

import numpy as np

from checks import check_allocation, check_payments, check_result
from ruler import RRSample, in_csr, score, stream

DATASET = {"name": "epinions_syn", "n": 5000, "h": 8}
#: Hold-out sample size per distinct (graph, probability vector).
RULER_SETS = 100_000
ALPHA = 1.0


@dataclass
class OpRecord:
    seconds: float
    failures: list[str] = field(default_factory=list)
    #: Kept for :meth:`Workload.finish`: the seed sets of a scored op,
    #: and on ``serve_warm`` the query and the fields of its response
    #: that the deferred checks read.
    seed_sets: list | None = None
    response: tuple | None = None
    revenue: float | None = None


class Timer:
    """Accumulates the timed sections of one op (and spans them if traced)."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        if self.tracer is not None:
            self.tracer.begin("bench.op")
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.end()


def _build_dataset():
    from repro.experiments.datasets import build_dataset, clear_dataset_cache

    clear_dataset_cache()  # each set-up builds from scratch
    return build_dataset(DATASET["name"], n=DATASET["n"], h=DATASET["h"])


class Workload:
    """Base: ``setup`` (repeatable), ``op(i)``, ``close``, ``finish``."""

    name = ""
    why = ""
    #: Ops scored on the hold-out ruler: a fixed prefix, so
    #: ``revenue_holdout`` (and the peak RSS, read at its end) repeat
    #: for a seed.  Every run completes at least this many ops.
    scored_ops = 0
    #: Ops per pass in a traced run (fixed, so counts repeat exactly).
    trace_ops = 0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpRecord:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def finish(self, records: list[OpRecord]) -> None:
        """Deferred checks, and hold-out revenue of the scored prefix.

        Runs after ``close``; appends to each record's failures."""

    def timer(self) -> Timer:
        return Timer(self.tracer)


class ColdSolve(Workload):
    name = "cold_solve"
    why = (
        "time to an allocation for a library user: repro.solve TI-CSRM at engine "
        "defaults, where RR sampling and KPT carry the op"
    )
    scored_ops = 8
    trace_ops = 6
    #: Ads in the instance: the first 4 of the dataset's 8, so that a
    #: 30 s run holds ~18 ops of ~1.6 s rather than ~9 of ~3.3 s.
    ads = 4

    def setup(self) -> None:
        self.dataset = _build_dataset()
        self.instance = self.dataset.build_instance(alpha=ALPHA, h=self.ads)
        self.seeds = stream(self.seed, 1, 1)

    def op(self, i: int) -> OpRecord:
        import repro

        spec = repro.EngineSpec(seed=int(self.seeds.integers(0, 2**31)))
        with self.timer() as t:
            result = repro.solve(self.instance, "TI-CSRM", spec)
        record = OpRecord(t.seconds, check_result(self.instance, result))
        if i < self.scored_ops:
            record.seed_sets = result.allocation.seed_sets()
        return record

    def finish(self, records: list[OpRecord]) -> None:
        scored = [r for r in records if r.seed_sets is not None]
        if not scored:
            return
        instance = self.instance
        ruler = RRSample(
            instance.graph, instance.ad_probs[0], RULER_SETS, stream(self.seed, 1, 2)
        )
        for record in scored:
            record.revenue = score(ruler, record.seed_sets, _cpes(instance))[0]


class ServeWarm(Workload):
    name = "serve_warm"
    why = (
        "warm TI-CSRM queries over one HTTP connection to an in-process ReproServer: "
        "no sampling, the selection loop and store adoption carry the op"
    )
    scored_ops = 80
    trace_ops = 40

    def setup(self) -> None:
        from repro.experiments.config import ExperimentConfig
        from repro.serve.server import ReproServer, ServeConfig

        self.close()
        # Engine defaults (eps, ell, theta cap, KPT samples) for the
        # daemon's sessions; OPT_s bounds come from the dataset.
        config = ExperimentConfig(
            eps=0.1, ell=1.0, theta_cap=200_000, kpt_max_samples=5_000, seed=self.seed
        )
        self.server = ReproServer(ServeConfig(config=config))
        self.server.start()
        self.solver = threading.Thread(target=self.server.run, name="solver")
        self.solver.start()
        host, port = self.server.address.rsplit(":", 1)
        self.conn = HTTPConnection(host, int(port), timeout=120)
        self.queries = stream(self.seed, 2, 1)
        self.pending: list[dict] = []
        # Fills the pooled session (cold sampling).
        status, payload = self._post(self._query())
        if status != 200:
            raise RuntimeError(f"first query failed: {status} {payload}")

    def _query(self) -> dict:
        if not self.pending:
            # A block is a full grid over the three axes that set the
            # op's cost — CPE, alpha and budget in engagements (budget /
            # CPE) — with a uniform draw inside each cell, in shuffled
            # order: runs on different seeds see the same query mix, so
            # their medians compare.
            rng = self.queries
            cells = np.array(list(itertools.product(range(3), range(2), range(2))))
            k = len(cells)
            cpes = np.array([1.0, 1.5, 2.0])[cells[:, 0]]
            alphas = 0.5 + (cells[:, 1] + rng.random(k)) / 2
            engagements = 400.0 + 300.0 * (cells[:, 2] + rng.random(k))
            seeds = rng.integers(0, 2**31, k)
            self.pending = [
                {
                    "dataset": dict(DATASET),
                    "algorithm": "TI-CSRM",
                    "alpha": float(alphas[j]),
                    "budget": float(cpes[j] * engagements[j]),
                    "cpe": float(cpes[j]),
                    "seed": int(seeds[j]),
                }
                for j in rng.permutation(k)
            ]
        return self.pending.pop()

    def _post(self, query: dict) -> tuple[int, dict]:
        self.conn.request(
            "POST", "/solve", json.dumps(query), {"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def op(self, i: int) -> OpRecord:
        query = self._query()
        with self.timer() as t:
            status, payload = self._post(query)
        record = OpRecord(t.seconds)
        if status != 200:
            record.failures.append(f"HTTP {status}: {payload.get('error_type')}")
            return record
        if payload.get("effective_seed") != query["seed"]:
            record.failures.append("response does not echo the query seed")
        record.response = (
            query,
            payload["allocation"],
            payload["revenue_per_ad"],
            payload["seeding_cost_per_ad"],
        )
        if i < self.scored_ops:
            record.seed_sets = payload["allocation"]
        return record

    def finish(self, records: list[OpRecord]) -> None:
        # The benchmark's own copy of the dataset, to check responses.
        dataset = _build_dataset()
        ruler = None
        for record in records:
            if record.response is None:
                continue
            query, seed_sets, revenue, cost = record.response
            instance = dataset.build_instance(
                alpha=query["alpha"],
                budget_override=query["budget"],
                cpe_override=query["cpe"],
            )
            record.failures += check_allocation(seed_sets, instance.n, instance.h)
            record.failures += check_payments(
                seed_sets,
                revenue,
                cost,
                [instance.budget(k) for k in range(instance.h)],
                instance.incentives,
            )
            if record.seed_sets is not None:
                if ruler is None:
                    ruler = RRSample(
                        instance.graph, instance.ad_probs[0], RULER_SETS, stream(self.seed, 2, 2)
                    )
                record.revenue = score(ruler, seed_sets, _cpes(instance))[0]

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        self.conn.close()
        server.begin_drain()
        self.solver.join()
        self.server = None


class EdgeModel:
    """The benchmark's own view of the live graph: sorted arc keys + probs.

    Draws each update batch and applies it to itself, so the program's
    mutated graph can be checked against it and the re-solve's instance
    carries probabilities the benchmark chose.  Batches depend only on
    the starting arcs and the generator, so a model rebuilt from the
    same start replays them exactly.
    """

    def __init__(self, n: int, keys, probs, rng: np.random.Generator) -> None:
        self.n = int(n)
        self.keys = keys
        self.probs = probs
        self.rng = rng

    @classmethod
    def of_graph(cls, graph, probs, rng: np.random.Generator) -> "EdgeModel":
        n = int(graph.n)
        tails, heads = graph.edge_array()
        keys = tails.astype(np.int64) * n + heads
        order = np.argsort(keys)
        return cls(n, keys[order], np.asarray(probs, dtype=np.float64)[order], rng)

    def batch(self, size: int) -> list[tuple]:
        """``size`` updates on distinct arcs: deletes, set_probs, inserts."""
        rng, n = self.rng, self.n
        n_del = n_ins = size // 3
        n_set = size - n_del - n_ins
        picked = rng.choice(self.keys.size, n_del + n_set, replace=False)
        deleted = self.keys[picked[:n_del]]
        reset = picked[n_del:]
        # Keep probabilities in the weighted-cascade range: re-weights
        # scale the old value, inserts draw from the graph's own values.
        new_probs = np.minimum(self.probs[reset] * rng.uniform(0.5, 1.5, n_set), 0.2)
        inserted = np.empty(0, dtype=np.int64)
        while inserted.size < n_ins:
            cand = rng.integers(0, n, size=(2 * n_ins, 2))
            cand = cand[cand[:, 0] != cand[:, 1]]
            keys = cand[:, 0] * n + cand[:, 1]
            keys = keys[~np.isin(keys, self.keys)]
            inserted = np.unique(np.concatenate([inserted, keys]))
        inserted = rng.permutation(inserted)[:n_ins]
        insert_probs = self.probs[rng.integers(0, self.probs.size, n_ins)]

        probs = self.probs.copy()
        probs[reset] = new_probs
        keep = ~np.isin(self.keys, deleted)
        keys = np.concatenate([self.keys[keep], inserted])
        probs = np.concatenate([probs[keep], insert_probs])
        order = np.argsort(keys)
        updates = [("delete", int(k // n), int(k % n)) for k in deleted]
        updates += [
            ("set_prob", int(k // n), int(k % n), float(p))
            for k, p in zip(self.keys[reset], new_probs)
        ]
        updates += [
            ("insert", int(k // n), int(k % n), float(p))
            for k, p in zip(inserted, insert_probs)
        ]
        self.keys, self.probs = keys[order], probs[order]
        return updates

    def graph(self):
        """The model's graph in the in-CSR form :class:`RRSample` reads."""
        tails, heads = np.divmod(self.keys, self.n)
        return in_csr(self.n, tails, heads)

    def probs_for(self, graph) -> np.ndarray | None:
        """Probabilities in *graph*'s edge order; ``None`` if its arcs differ."""
        tails, heads = graph.edge_array()
        keys = tails.astype(np.int64) * self.n + heads
        if keys.size != self.keys.size:
            return None
        pos = np.searchsorted(self.keys, keys)
        pos = np.minimum(pos, self.keys.size - 1)
        if not np.array_equal(self.keys[pos], keys):
            return None
        return self.probs[pos]


class LiveUpdate(Workload):
    name = "live_update"
    why = (
        "writes then reads: one apply_edge_updates batch of ~50 arcs, then a TI-CARM "
        "re-solve on the mutated graph in a warm AllocationSession"
    )
    scored_ops = 20
    trace_ops = 50
    batch_size = 50
    blocked_nodes = 50

    def setup(self) -> None:
        import repro

        self.close()
        dataset = _build_dataset()
        self.base = dataset.build_instance(alpha=ALPHA)
        self.edges = EdgeModel.of_graph(
            dataset.graph, dataset.ad_probs[0], stream(self.seed, 3, 1)
        )
        self.start = (self.edges.keys, self.edges.probs)
        self.blocked_rng = stream(self.seed, 3, 2)
        self.session = repro.AllocationSession(
            dataset.graph, spec=repro.EngineSpec(seed=self.seed)
        )
        first = self.session.solve(self.base, "TI-CARM")
        if check_result(self.base, first):
            raise RuntimeError("first TI-CARM solve failed its checks")

    def op(self, i: int) -> OpRecord:
        from repro.core.instance import RMInstance

        session = self.session
        updates = self.edges.batch(self.batch_size)
        before = session.stats["sets_sampled"]
        with self.timer() as t:
            report = session.apply_edge_updates(updates)
        record = OpRecord(0.0)
        drawn = session.stats["sets_sampled"] - before
        if drawn != report["invalidated_sets"]:
            record.failures.append(
                f"resampled {drawn} sets for {report['invalidated_sets']} invalidated"
            )
        probs = self.edges.probs_for(session.graph)
        if probs is None:
            record.failures.append("mutated graph's arcs differ from the batch applied")
            record.seconds = t.seconds
            return record
        base = self.base
        instance = RMInstance(
            session.graph, base.advertisers, [probs] * base.h, base.incentives
        )
        blocked = np.zeros(base.n, dtype=bool)
        blocked[self.blocked_rng.choice(base.n, self.blocked_nodes, replace=False)] = True
        with t:
            result = session.solve(instance, "TI-CARM", blocked=blocked)
        record.seconds = t.seconds
        record.failures += check_result(instance, result, blocked)
        if i < self.scored_ops:
            record.seed_sets = result.allocation.seed_sets()
        return record

    def finish(self, records: list[OpRecord]) -> None:
        # Replays the batches on a model rebuilt from the starting arcs:
        # after batch i it holds the graph that op i re-solved on (the
        # op checked that the program's graph matched it).
        keys, probs = self.start
        edges = EdgeModel(self.base.n, keys, probs, stream(self.seed, 3, 1))
        cpes = _cpes(self.base)
        for i, record in enumerate(records[: self.scored_ops]):
            edges.batch(self.batch_size)
            if record.seed_sets is None:
                continue
            ruler = RRSample(edges.graph(), edges.probs, RULER_SETS, stream(self.seed, 3, 3, i))
            record.revenue = score(ruler, record.seed_sets, cpes)[0]

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
            self.session = None


def _cpes(instance) -> list[float]:
    return [instance.cpe(k) for k in range(instance.h)]


WORKLOADS = {cls.name: cls for cls in (ColdSolve, ServeWarm, LiveUpdate)}
