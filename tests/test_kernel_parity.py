"""Kernel-seam parity: the numba batch kernel is bit-identical to numpy.

The seam (:mod:`repro.rrset.kernels`) promises that ``kernel="numba"``
consumes the *exact same RNG stream* as the numpy reference and returns
bit-identical ``(members, indptr)`` CSR pairs — whether numba is
installed (JIT-compiled) or not (the same loops run interpreted).  Four
layers of evidence:

1. hypothesis property sweeps over random graphs/seeds/counts, at every
   execution tier: serial sampler, ``workers == 1`` parallel delegate,
   and the ``workers >= 2`` shard-plan merge;
2. golden seeded TI-CSRM / TI-CARM allocations pinned to literal seed
   sets, asserted across (kernel, backend, spill) combinations;
3. degenerate graphs through the seam: empty graph, single node,
   isolated nodes, and a self-loop/duplicate-arc edge list reloaded via
   ``ingest_edge_list``;
4. a subprocess import guard proving ``import repro`` (and the numba
   kernel spelling itself) works with numba blocked from importing.

Heavier sweeps and multi-shard engine runs carry ``@pytest.mark.slow`` (excluded
by default; CI's kernel-parity job runs ``-m "slow or not slow"``).
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineSpec, solve
from repro.errors import EstimationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.graph.io import ingest_edge_list
from repro.rrset.kernels import (
    KERNELS,
    NUMBA_AVAILABLE,
    resolve_batch_kernel,
    resolve_kernel,
    sample_batch_flat_kernel_numba,
)
from repro.rrset.backend import ParallelBackend, SerialBackend
from repro.rrset.sampler import RRSampler, sample_batch_flat_kernel


def _batch(graph, probs, count, seed, kernel):
    """One seeded batch through the seam + the post-batch stream probe.

    The probe (one extra ``rng.random()``) turns "same output" into
    "same output *and* same RNG stream position" — the stronger
    property that makes kernels interchangeable mid-run.
    """
    sampler = RRSampler(graph, probs, kernel=kernel)
    rng = np.random.default_rng(seed)
    members, indptr = sampler.sample_batch_flat(count, rng)
    return members, indptr, rng.random()


def assert_kernel_parity(graph, probs, count, seed):
    m_np, i_np, probe_np = _batch(graph, probs, count, seed, "numpy")
    m_nb, i_nb, probe_nb = _batch(graph, probs, count, seed, "numba")
    np.testing.assert_array_equal(m_np, m_nb)
    np.testing.assert_array_equal(i_np, i_nb)
    assert probe_np == probe_nb  # identical stream position afterwards
    assert m_nb.dtype == np.int64 and i_nb.dtype == np.int64


def _er_graph(n, p, graph_seed, probs_seed, scale=1.0):
    g = erdos_renyi(n, p, seed=graph_seed)
    probs = np.random.default_rng(probs_seed).random(g.m) * scale
    return g, probs


# ----------------------------------------------------------------------
# Seam resolution
# ----------------------------------------------------------------------
class TestResolve:
    def test_legal_spellings(self):
        assert KERNELS == ("numpy", "numba", "auto")
        assert resolve_kernel("numpy") == "numpy"
        # Explicit "numba" passes through even without numba installed
        # (interpreted fallback) so parity suites run anywhere.
        assert resolve_kernel("numba") == "numba"
        assert resolve_kernel(None) == resolve_kernel("auto")
        assert resolve_kernel("auto") == (
            "numba" if NUMBA_AVAILABLE else "numpy"
        )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(EstimationError, match="unknown kernel"):
            resolve_kernel("gpu")
        g = erdos_renyi(5, 0.5, seed=1)
        with pytest.raises(EstimationError, match="unknown kernel"):
            RRSampler(g, np.full(g.m, 0.1), kernel="gpu")

    def test_resolved_callables(self):
        assert resolve_batch_kernel("numpy") is sample_batch_flat_kernel
        assert resolve_batch_kernel("numba") is sample_batch_flat_kernel_numba

    def test_sampler_and_backends_record_resolved_kernel(self):
        g, probs = _er_graph(20, 0.2, 3, 4)
        assert RRSampler(g, probs, kernel="numba").kernel == "numba"
        assert SerialBackend(g, probs, kernel="numpy").kernel == "numpy"
        auto = RRSampler(g, probs).kernel
        assert auto == ("numba" if NUMBA_AVAILABLE else "numpy")

    def test_engine_extras_record_kernel(self):
        from tests.conftest import make_tiny_instance

        spec = EngineSpec(eps=0.8, theta_cap=100, opt_lower=1.0, seed=3,
                          kernel="numba")
        result = solve(make_tiny_instance(), "TI-CSRM", spec)
        assert result.extras["kernel"] == "numba"
        assert result.extras["engine_spec"]["kernel"] == "numba"


# ----------------------------------------------------------------------
# 1. Hypothesis property sweeps
# ----------------------------------------------------------------------
class TestPropertyParity:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 60),
        p=st.floats(0.0, 0.6),
        graph_seed=st.integers(0, 2**16),
        probs_seed=st.integers(0, 2**16),
        count=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    def test_serial_bit_identity(self, n, p, graph_seed, probs_seed, count, seed):
        g, probs = _er_graph(n, p, graph_seed, probs_seed)
        assert_kernel_parity(g, probs, count, seed)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(2, 40),
        graph_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        count=st.integers(1, 30),
    )
    def test_workers1_delegate_bit_identity(self, n, graph_seed, seed, count):
        g, probs = _er_graph(n, 0.3, graph_seed, graph_seed + 1)
        outs = {}
        for kernel in ("numpy", "numba"):
            with ParallelBackend(g, probs, workers=1, kernel=kernel) as b:
                outs[kernel] = b.sample_batch_flat(
                    count, np.random.default_rng(seed)
                )
        np.testing.assert_array_equal(outs["numpy"][0], outs["numba"][0])
        np.testing.assert_array_equal(outs["numpy"][1], outs["numba"][1])

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(2, 40),
        graph_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        count=st.integers(1, 30),
        workers=st.integers(2, 4),
    )
    def test_workers_shard_merge_bit_identity(
        self, n, graph_seed, seed, count, workers
    ):
        g, probs = _er_graph(n, 0.3, graph_seed, graph_seed + 1)
        outs = {}
        for kernel in ("numpy", "numba"):
            with ParallelBackend(g, probs, workers=workers, kernel=kernel) as b:
                outs[kernel] = b.sample_batch_flat(
                    count, np.random.default_rng(seed)
                )
        np.testing.assert_array_equal(outs["numpy"][0], outs["numba"][0])
        np.testing.assert_array_equal(outs["numpy"][1], outs["numba"][1])

    @pytest.mark.slow
    def test_threaded_workers2_bit_identity(self):
        g, probs = _er_graph(200, 0.05, 9, 10, scale=0.4)
        outs = {}
        for kernel in ("numpy", "numba"):
            with ParallelBackend(g, probs, workers=2, kernel=kernel) as b:
                outs[kernel] = b.sample_batch_flat(
                    300, np.random.default_rng(33)
                )
        np.testing.assert_array_equal(outs["numpy"][0], outs["numba"][0])
        np.testing.assert_array_equal(outs["numpy"][1], outs["numba"][1])

    @pytest.mark.slow
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 120),
        p=st.floats(0.0, 0.8),
        graph_seed=st.integers(0, 2**24),
        probs_seed=st.integers(0, 2**24),
        count=st.integers(0, 120),
        seed=st.integers(0, 2**24),
        chunk_bytes=st.sampled_from([256, 2048, 16 * 1024 * 1024]),
    )
    def test_deep_sweep_including_chunk_splits(
        self, n, p, graph_seed, probs_seed, count, seed, chunk_bytes
    ):
        # Tiny chunk_bytes forces multi-chunk batches, exercising the
        # per-chunk visited bitmap reset and stream interleaving.
        g, probs = _er_graph(n, p, graph_seed, probs_seed)
        probs_in = np.ascontiguousarray(probs[g.in_edge_ids])
        args = (g.n, g.in_indptr, g.in_tails, probs_in, count)
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        m_np, i_np = sample_batch_flat_kernel(*args, r1, chunk_bytes)
        m_nb, i_nb = sample_batch_flat_kernel_numba(*args, r2, chunk_bytes)
        np.testing.assert_array_equal(m_np, m_nb)
        np.testing.assert_array_equal(i_np, i_nb)
        assert r1.random() == r2.random()


# ----------------------------------------------------------------------
# 2. Golden seeded allocations across (kernel, backend, spill)
# ----------------------------------------------------------------------
#: Seed sets of the pinned run (epinions_syn n=120 h=2, linear α=1.0,
#: eps=1.0, theta_cap=120, seed=11).  Literal values lock the RNG
#: stream itself: any kernel/backend/spill combination that drifts —
#: even to an equally valid sample — fails loudly here.  Private and
#: shared sampling are *documented* distinct streams (prob-identical
#: ads share one store under ``share_samples``), so each gets its own
#: golden; spilling a store must never move either one.
GOLDEN = {
    "TI-CSRM": {
        "private": {
            "seeds": [
                [23, 4, 68, 89, 90, 101, 16, 21, 37, 24, 83, 105, 106,
                 109, 36, 43, 87, 76],
                [12, 3, 65, 29, 113, 69, 80, 1, 95, 119, 6, 38, 53, 20, 8],
            ],
            "revenue": [82.5, 46.0],
        },
        "shared": {
            "seeds": [
                [23, 4, 68, 89, 90, 101, 16, 21, 37, 24, 83, 105, 106,
                 109, 36, 43, 87, 76],
                [78, 52, 44, 14, 48, 5, 69, 6, 17, 10, 32, 84, 7, 12],
            ],
            "revenue": [82.5, 40.0],
        },
    },
    "TI-CARM": {
        "private": {
            "seeds": [
                [93, 40, 31, 101, 17, 67, 6, 16, 21],
                [103, 61, 88, 94],
            ],
            "revenue": [69.0, 37.0],
        },
        "shared": {
            "seeds": [
                [93, 103, 61, 17, 67, 101, 6],
                [111, 40, 31, 23, 77, 16],
            ],
            "revenue": [61.5, 37.0],
        },
    },
}


@pytest.fixture(scope="module")
def golden_instance():
    from repro.experiments.datasets import build_dataset

    ds = build_dataset("epinions_syn", n=120, h=2, singleton_rr_samples=400)
    inst = ds.build_instance(incentive_model="linear", alpha=1.0)
    return inst, ds.opt_lower_bounds()


def _golden_spec(opt_lower, **overrides):
    return EngineSpec(
        eps=1.0, theta_cap=120, opt_lower=opt_lower, seed=11, **overrides
    )


class TestGoldenAllocations:
    @pytest.mark.parametrize("algorithm", sorted(GOLDEN))
    @pytest.mark.parametrize("kernel", ["numpy", "numba"])
    @pytest.mark.parametrize(
        "golden_key, extra",
        [
            ("private", {}),
            ("shared", {"share_samples": True}),
            # rr_bytes_budget=1 forces every shared store to spill to a
            # memmap on its first batch; allocations must not move off
            # the shared-sampling golden.
            ("shared", {"share_samples": True, "rr_bytes_budget": 1}),
            # Private sampling keeps one store per ad, under the same
            # budget: every store spills and the private golden holds.
            ("private", {"rr_bytes_budget": 1}),
        ],
        ids=["ram-private", "ram-shared", "spill-shared", "spill-private"],
    )
    def test_serial_combinations_match_golden(
        self, golden_instance, algorithm, kernel, golden_key, extra
    ):
        inst, opt_lower = golden_instance
        spec = _golden_spec(opt_lower, kernel=kernel, **extra)
        result = solve(inst, algorithm, spec)
        golden = GOLDEN[algorithm][golden_key]
        assert result.allocation.seed_sets() == golden["seeds"]
        assert result.revenue_per_ad == pytest.approx(golden["revenue"])
        assert result.extras["kernel"] == kernel
        if extra.get("rr_bytes_budget"):
            assert result.extras["memory"]["spilled_stores"] >= 1

    @pytest.mark.slow
    @pytest.mark.parametrize("algorithm", sorted(GOLDEN))
    @pytest.mark.parametrize("kernel", ["numpy", "numba"])
    def test_parallel_pool_matches_serial_result(
        self, golden_instance, algorithm, kernel
    ):
        # The parallel backend consumes a *different* documented stream
        # (shard plan) than serial, so it gets its own invariant: both
        # kernels agree with each other, exactly, through threaded shards.
        inst, opt_lower = golden_instance
        spec = _golden_spec(
            opt_lower, kernel=kernel, sampler_backend="parallel", workers=2
        )
        result = solve(inst, algorithm, spec)
        reference = solve(
            inst,
            algorithm,
            _golden_spec(
                opt_lower, kernel="numpy", sampler_backend="parallel", workers=2
            ),
        )
        assert result.allocation.seed_sets() == reference.allocation.seed_sets()
        assert result.revenue_per_ad == reference.revenue_per_ad


# ----------------------------------------------------------------------
# 3. Degenerate graphs through the seam
# ----------------------------------------------------------------------
class TestDegenerateGraphs:
    @pytest.mark.parametrize("kernel", ["numpy", "numba"])
    def test_empty_graph_rejected(self, kernel):
        empty = DiGraph.from_edge_list([], n=0)
        with pytest.raises(EstimationError):
            ParallelBackend(empty, np.zeros(0), workers=1, kernel=kernel)
        with pytest.raises(EstimationError):
            RRSampler(empty, np.zeros(0), kernel=kernel).sample(
                np.random.default_rng(0)
            )

    def test_single_node_graph(self):
        g = DiGraph.from_edge_list([], n=1)
        for kernel in ("numpy", "numba"):
            members, indptr, _ = _batch(g, np.zeros(0), 7, 5, kernel)
            np.testing.assert_array_equal(members, np.zeros(7, dtype=np.int64))
            np.testing.assert_array_equal(indptr, np.arange(8, dtype=np.int64))

    def test_isolated_nodes_parity(self):
        # Nodes 10..29 have no arcs at all: their RR sets are singleton
        # roots, interleaved with reachable ones in the same batch.
        edges = [(i, j) for i in range(10) for j in range(10) if i != j]
        g = DiGraph.from_edge_list(edges, n=30)
        probs = np.full(g.m, 0.4)
        assert_kernel_parity(g, probs, 50, 13)
        members, indptr, _ = _batch(g, probs, 50, 13, "numba")
        roots = members[indptr[:-1]]
        isolated = roots >= 10
        # An isolated root's whole set is just itself.
        np.testing.assert_array_equal(
            np.diff(indptr)[isolated], np.ones(int(isolated.sum()))
        )

    def test_self_loop_stripped_multigraph_reload(self, tmp_path):
        # A messy crawl: duplicate arcs, self loops, comment lines.
        path = tmp_path / "messy.txt"
        path.write_text(
            "# messy multigraph crawl\n"
            "0 1\n0 1\n1 1\n1 2\n2 0\n2 2\n3 0\n0 1\n3 3\n2 1\n"
        )
        result = ingest_edge_list(str(path))  # dedupes + drops self loops
        g = result.graph
        assert g.m == 5  # (0,1) (1,2) (2,0) (3,0) (2,1)
        probs = np.random.default_rng(2).random(g.m)
        assert_kernel_parity(g, probs, 40, 17)


# ----------------------------------------------------------------------
# 4. Import guard: repro must work with numba absent
# ----------------------------------------------------------------------
_BLOCK_NUMBA_SCRIPT = """
import sys

class _Block:
    def find_spec(self, name, path=None, target=None):
        if name == "numba" or name.startswith("numba."):
            raise ImportError("numba blocked for the import-guard test")
        return None

sys.meta_path.insert(0, _Block())
sys.modules.pop("numba", None)

import numpy as np
import repro
from repro.rrset.kernels import NUMBA_AVAILABLE, resolve_kernel

assert NUMBA_AVAILABLE is False
assert repro.NUMBA_AVAILABLE is False
assert resolve_kernel("auto") == "numpy"

# The numba spelling still runs (interpreted) and stays bit-identical.
g = repro.DiGraph.from_edge_list([(0, 1), (1, 2), (2, 0), (0, 2)], n=4)
probs = np.full(g.m, 0.5)
out = {}
for kernel in ("numpy", "numba"):
    sampler = repro.RRSampler(g, probs, kernel=kernel)
    out[kernel] = sampler.sample_batch_flat(25, np.random.default_rng(3))
assert np.array_equal(out["numpy"][0], out["numba"][0])
assert np.array_equal(out["numpy"][1], out["numba"][1])
print("import-guard ok")
"""


class TestImportGuard:
    def test_repro_imports_and_samples_with_numba_blocked(self):
        proc = subprocess.run(
            [sys.executable, "-c", _BLOCK_NUMBA_SCRIPT],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "import-guard ok" in proc.stdout
