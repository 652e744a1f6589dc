"""Pluggable RR sampling backends: serial and thread-parallel.

Every consumer of RR sets — :class:`~repro.core.ti_engine.TIEngine`,
TIM's KPT estimator, the static RR oracle, the singleton-spread pricer,
the benchmark harness — draws batches through one seam, a
:class:`SamplerBackend`, instead of touching :class:`RRSampler`
directly.  Two implementations exist:

* :class:`SerialBackend` — a thin delegate around :class:`RRSampler`.
  Bit-identical to calling the sampler yourself: same RNG stream, same
  arrays.
* :class:`ParallelBackend` — splits a batch of ``count`` sets into one
  shard per worker (balanced, a pure function of ``(count, workers)``),
  samples each shard on its own thread with the resolved batch kernel
  over the caller's own :class:`DiGraph` arrays, and merges the shards
  back into a single CSR pair in shard order.

RNG-stream contract (docs/ARCHITECTURE.md §RNG):

* ``workers == 1`` executes in-process with the caller's generator —
  **bit-identical** to :class:`SerialBackend` (and hence to
  :meth:`RRSampler.sample_batch_flat`).
* ``workers >= 2`` consumes exactly **one** ``rng.integers`` draw from
  the caller's generator per batch, to derive a root
  :class:`~numpy.random.SeedSequence`; shard ``k`` samples with
  ``default_rng(root.spawn(shards)[k])``.  The output is a valid
  i.i.d. RR sample from the same distribution, deterministic for a
  fixed ``(seed, workers)`` pair whatever the thread scheduling, but
  *different* from the serial stream — the same trade the flat batch
  sampler already made against the legacy per-set sampler.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro._rng import as_generator
from repro.errors import EstimationError
from repro.graph.digraph import DiGraph
from repro.rrset.kernels import resolve_batch_kernel, resolve_kernel
from repro.rrset.sampler import (
    DEFAULT_CHUNK_BYTES,
    RRSampler,
    batch_widths,
    validate_edge_probs,
)

BACKENDS = ("serial", "parallel")

_EMPTY_I64 = np.empty(0, dtype=np.int64)

def default_workers() -> int:
    """Worker count used when a parallel backend is requested without one."""
    return max(os.cpu_count() or 1, 1)


def resolve_backend(backend: str, workers: int | None) -> tuple[str, int | None]:
    """Normalize a ``(backend, workers)`` spec to its effective form.

    The one place the selection rule lives (engine, oracle, factory and
    CLI all call it): ``workers`` > 1 upgrades ``"serial"`` to
    ``"parallel"``; a parallel spec with ``workers`` of ``None``/0
    resolves to :func:`default_workers`.  Returns the effective
    ``(backend, workers)`` — ``workers`` is a positive ``int`` for
    parallel, ``None`` for serial.
    """
    if backend not in BACKENDS:
        raise EstimationError(f"unknown backend {backend!r}; options: {BACKENDS}")
    if workers is not None and workers < 0:
        raise EstimationError(f"workers must be non-negative, got {workers}")
    if backend == "serial" and (workers or 0) > 1:
        backend = "parallel"
    if backend == "parallel":
        return backend, int(workers) if workers else default_workers()
    return "serial", None


def shard_counts(count: int, shards: int) -> list[int]:
    """Balanced shard sizes for a *count*-set batch: a pure function of
    ``(count, shards)`` so parallel streams are reproducible.

    The first ``count % shards`` shards get one extra set; zero-size
    shards are dropped, so fewer than *shards* entries may be returned.
    """
    if shards < 1:
        raise EstimationError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(count, shards)
    sizes = [base + (1 if k < extra else 0) for k in range(shards)]
    return [s for s in sizes if s > 0]


def merge_shards(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-shard ``(members, indptr)`` CSR pairs in order.

    Pure offset arithmetic — the set contents are never re-split, so the
    result can be handed to :meth:`RRCollection.add_sets_flat` /
    :meth:`SharedRRStore.extend_flat` as one batch.
    """
    if not parts:
        return _EMPTY_I64.copy(), np.zeros(1, dtype=np.int64)
    members = np.concatenate([m for m, _ in parts])
    offsets = np.cumsum([0] + [int(m.size) for m, _ in parts])
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [p[1:] + off for (_, p), off in zip(parts, offsets)]
    ).astype(np.int64)
    return members, indptr


class SamplerBackend(ABC):
    """Batch RR-set sampling seam shared by all consumers.

    Implementations expose the same surface as the flat half of
    :class:`RRSampler` — :meth:`sample_batch_flat`,
    :meth:`sample_batch`, :meth:`sample_batch_widths` — plus a
    :meth:`close` for backends holding OS resources.  ``graph`` and
    ``probs`` (canonical edge order, ``float64[m]``) are readable
    attributes on every backend.
    """

    graph: DiGraph
    probs: np.ndarray

    @abstractmethod
    def sample_batch_flat(
        self, count: int, rng=None, *, roots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw *count* RR sets as one flat ``(members, indptr)`` CSR pair.

        Same output contract as :meth:`RRSampler.sample_batch_flat`:
        both arrays ``int64``, freshly allocated, owned by the caller.
        *roots*, when given (``int64[count]``), pins each set's root and
        skips the root draw — the incremental-maintenance resample path
        (docs/ARCHITECTURE.md §14); the RNG then starts directly at the
        first coin-flip vector.
        """

    def sample_batch(self, count: int, rng=None) -> list[np.ndarray]:
        """Draw *count* RR sets as a list of member arrays (convenience)."""
        members, indptr = self.sample_batch_flat(count, rng)
        return [members[indptr[k] : indptr[k + 1]].copy() for k in range(count)]

    def sample_batch_widths(self, count: int, rng=None) -> np.ndarray:
        """Widths (in-arc counts into members) of *count* fresh RR sets."""
        members, indptr = self.sample_batch_flat(count, rng)
        return batch_widths(self.graph.in_indptr, members, indptr)

    def close(self) -> None:
        """Release backend resources (idempotent; no-op for serial)."""

    def __enter__(self) -> "SamplerBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(SamplerBackend):
    """In-process backend delegating to one :class:`RRSampler`.

    Bit-identical to the bare sampler for every method and RNG stream
    (the width computation is the shared :func:`batch_widths` on both
    sides); exists so code written against the seam pays nothing for it.
    The ``kernel`` seam (:mod:`repro.rrset.kernels`) passes straight
    through to the sampler; both kernels are bit-identical per seed.
    """

    def __init__(self, graph: DiGraph, probs, *, kernel: str = "auto") -> None:
        self._sampler = RRSampler(graph, probs, kernel=kernel)
        self.kernel = self._sampler.kernel
        self.graph = graph
        self.probs = np.asarray(probs, dtype=np.float64)

    def sample_batch_flat(
        self, count: int, rng=None, *, roots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._sampler.sample_batch_flat(count, rng, roots=roots)


class ParallelBackend(SamplerBackend):
    """Thread-parallel batch sampler: one shard of each batch per thread.

    Parameters
    ----------
    graph, probs:
        As for :class:`RRSampler` (*probs* in canonical edge order).
    workers:
        Shard (and thread) count; defaults to :func:`default_workers`.
        ``workers == 1`` short-circuits to in-process execution with the
        caller's generator — bit-identical to :class:`SerialBackend`.
    kernel:
        Batch-kernel seam (:mod:`repro.rrset.kernels`), resolved once
        here; kernels are bit-identical, so it never changes output.

    Every shard reads the caller's own ``in_indptr`` / ``in_tails``
    arrays and one in-CSR-ordered copy of *probs*; nothing is copied
    per batch except the shard outputs.  The numpy kernel spends its
    time in numpy calls that release the GIL, and the numba kernel's
    sections compile with ``nogil=True``, so shards overlap on cores.
    """

    def __init__(
        self,
        graph: DiGraph,
        probs,
        *,
        workers: int | None = None,
        kernel: str = "auto",
    ) -> None:
        if graph.n == 0:
            raise EstimationError("cannot sample RR sets from an empty graph")
        self.graph = graph
        self.probs = validate_edge_probs(graph, probs)
        self.kernel = resolve_kernel(kernel)
        _, self.workers = resolve_backend("parallel", workers)
        self._closed = False
        self._serial = None
        if self.workers == 1:
            # All sampling happens in-process through this delegate,
            # bit-identically to SerialBackend.
            self._serial = RRSampler(graph, self.probs, kernel=self.kernel)
        else:
            self._probs_in = np.ascontiguousarray(self.probs[graph.in_edge_ids])

    def _sample_shards(
        self, counts: list[int], seqs, shard_roots
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Run the shard plan, one thread per shard; results in shard order.

        Shard ``k`` is exactly one batch-kernel call under
        ``default_rng(seqs[k])`` (and, on the incremental-resample path,
        its pinned roots), so the output depends on the plan alone, never
        on thread scheduling.  A shard's exception is re-raised here
        unchanged, lowest shard first.
        """
        g = self.graph
        kernel_fn = resolve_batch_kernel(self.kernel)
        with ThreadPoolExecutor(max_workers=len(counts)) as executor:
            futures = [
                executor.submit(
                    kernel_fn,
                    g.n,
                    g.in_indptr,
                    g.in_tails,
                    self._probs_in,
                    int(count),
                    as_generator(seq),
                    DEFAULT_CHUNK_BYTES,
                    sroots,
                )
                for count, seq, sroots in zip(counts, seqs, shard_roots)
            ]
            return [future.result() for future in futures]

    def sample_batch_flat(
        self, count: int, rng=None, *, roots=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw *count* RR sets across the shards; one merged CSR pair.

        See the module docstring for the RNG-stream contract.  Batches
        smaller than the shard count still produce one shard per
        non-empty share, preserving the ``(seed, workers)`` determinism
        guarantee.
        """
        if self._closed:
            raise EstimationError("backend is closed")
        if count < 0:
            raise EstimationError(f"count must be non-negative, got {count}")
        rng = as_generator(rng)
        if count == 0:
            # Stream-neutral on every backend: no RNG draw is consumed.
            return _EMPTY_I64.copy(), np.zeros(1, dtype=np.int64)
        if self._serial is not None:
            return self._serial.sample_batch_flat(count, rng, roots=roots)
        counts = shard_counts(count, self.workers)
        root = np.random.SeedSequence(int(rng.integers(0, 2**63 - 1)))
        seqs = root.spawn(len(counts))
        shard_roots = [None] * len(counts)
        if roots is not None:
            # Split pinned roots along the shard plan: shard k samples
            # sets [offset_k, offset_k + counts[k]), and merge_shards
            # concatenates in shard order, so output set i keeps root i.
            roots = np.ascontiguousarray(roots, dtype=np.int64)
            if roots.shape != (count,):
                raise EstimationError(
                    f"roots must have shape ({count},), got {roots.shape}"
                )
            offsets = np.cumsum([0] + counts)
            shard_roots = [
                roots[offsets[k] : offsets[k + 1]] for k in range(len(counts))
            ]
        return merge_shards(self._sample_shards(counts, seqs, shard_roots))

    def close(self) -> None:
        """Close this backend; further sampling raises (idempotent).

        Applies to ``workers == 1`` backends too, so the lifecycle is
        uniform: a closed parallel backend never silently falls back to
        a different (serial) RNG stream.
        """
        self._closed = True


def make_backend(
    graph: DiGraph,
    probs,
    backend: str = "serial",
    *,
    workers: int | None = None,
    kernel: str = "auto",
) -> SamplerBackend:
    """Build a :class:`SamplerBackend` from a spec string.

    ``backend`` is ``"serial"`` or ``"parallel"``; *workers* applies to
    the parallel backend only.  The spec is normalized by
    :func:`resolve_backend` — ``workers`` > 1 upgrades ``"serial"`` to
    parallel (this is what lets a single ``--workers`` CLI flag select
    the backend), and a parallel spec without a worker count uses
    :func:`default_workers`.  *kernel* selects the batch-kernel
    implementation (:mod:`repro.rrset.kernels`) on either backend;
    kernels are bit-identical, so it never changes results.
    """
    backend, workers = resolve_backend(backend, workers)
    if backend == "serial":
        return SerialBackend(graph, probs, kernel=kernel)
    return ParallelBackend(graph, probs, workers=workers, kernel=kernel)
