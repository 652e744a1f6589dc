"""Kernel seam for the batch RR-set sampler: numpy vs. numba-JIT.

The level-synchronous reverse BFS of
:func:`repro.rrset.sampler.sample_batch_flat_kernel` spends its time in
two per-level stages: the ragged gather of every frontier node's in-arc
probability slice, and the dedup/advance of the next frontier.  Both are
memory-bound numpy expressions with O(level) Python overhead; on real
crawls (Epinions and up) that overhead caps throughput.  This module
provides a drop-in numba implementation of the same kernel behind a
string seam::

    kernel="numpy"   always available; the parity reference
    kernel="numba"   JIT-compiled per-level loops (falls back to the
                     same loops interpreted when numba is not
                     installed — bit-identical, just slow)
    kernel="auto"    "numba" when importable, else "numpy"

Bit-identity contract
---------------------
The numba kernel consumes the *exact same RNG stream* as the numpy
kernel and returns bit-identical ``(members, indptr)`` arrays.  This
holds because every stochastic step stays in Python on the caller's
:class:`numpy.random.Generator`:

* the single ``rng.integers(0, n, count)`` roots draw (skipped by both
  kernels identically when pinned ``roots`` are passed — the
  incremental-maintenance resample path);
* one ``rng.random(E)`` draw per chunk per BFS level, where ``E`` is
  the frontier's total in-degree — identical between kernels because
  the frontier itself is identical.

Only the deterministic stages are compiled: :func:`_gather_level_probs`
reproduces the numpy ragged gather's arc order (frontier positions
ascending, each node's in-CSR slice contiguous), and
:func:`_advance_frontier` replaces ``np.unique`` + visited-mask
filtering with a first-touch mark over the same flat ``set*n + node``
key space, then sorts the fresh keys — provably the same set in the
same (ascending) order, with the same final ``visited`` state.  The
numpy kernel's two post-draw ``break`` conditions (no surviving arc /
no fresh pair) collapse into one here; both end the chunk after the
same final draw, so streams cannot diverge.

Numba is an *optional* dependency: importing this module (and the whole
``repro`` package) must work without it.  When absent, ``@njit``
degrades to a no-op decorator so ``kernel="numba"`` still runs —
interpreted, for parity testing — and ``kernel="auto"`` resolves to
``"numpy"``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError

try:  # pragma: no cover - exercised via tests with/without numba
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover

    def njit(*args, **kwargs):
        """No-op ``@njit`` stand-in: the decorated function runs as-is."""
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn

        return wrap

    NUMBA_AVAILABLE = False

#: The kernel seam's legal spellings, in documentation order.
KERNELS = ("numpy", "numba", "auto")


def resolve_kernel(kernel: str | None) -> str:
    """Resolve a seam spelling to the concrete kernel to run.

    ``None`` means ``"auto"``.  ``"auto"`` picks ``"numba"`` when the
    import succeeded and ``"numpy"`` otherwise; explicit names pass
    through (``"numba"`` without numba installed runs the interpreted
    fallback — bit-identical, slow — so parity suites exercise the
    numba code path on any machine).
    """
    if kernel is None:
        kernel = "auto"
    if kernel not in KERNELS:
        raise EstimationError(
            f"unknown kernel {kernel!r}; options: {list(KERNELS)}"
        )
    if kernel == "auto":
        return "numba" if NUMBA_AVAILABLE else "numpy"
    return kernel


def resolve_batch_kernel(kernel: str | None):
    """Return the ``sample_batch_flat_kernel``-shaped callable for *kernel*.

    The returned function has the exact signature and RNG contract of
    :func:`repro.rrset.sampler.sample_batch_flat_kernel`; callers hold
    onto it so per-call dispatch costs nothing.
    """
    if resolve_kernel(kernel) == "numba":
        return sample_batch_flat_kernel_numba
    from repro.rrset.sampler import sample_batch_flat_kernel

    return sample_batch_flat_kernel


@njit(cache=True, nogil=True)
def _gather_level_probs(in_indptr, probs_in, fnodes):  # pragma: no cover
    """Arc probabilities of one BFS level, in the numpy kernel's order.

    Concatenates ``probs_in[in_indptr[v]:in_indptr[v+1]]`` over frontier
    nodes ``v`` in position order — the same layout the numpy kernel's
    ``eidx`` ragged gather produces — so a single ``rng.random(total)``
    draw compares element-for-element identically.
    """
    total = 0
    for i in range(fnodes.size):
        v = fnodes[i]
        total += in_indptr[v + 1] - in_indptr[v]
    out = np.empty(total, np.float64)
    pos = 0
    for i in range(fnodes.size):
        v = fnodes[i]
        for e in range(in_indptr[v], in_indptr[v + 1]):
            out[pos] = probs_in[e]
            pos += 1
    return out


@njit(cache=True, nogil=True)
def _advance_frontier(
    n, in_indptr, in_tails, fnodes, fsets, flips, visited
):  # pragma: no cover
    """Advance one BFS level: first-touch dedup over ``set*n + node`` keys.

    Walks the level's arcs in the same order as ``flips`` was drawn,
    marking each surviving ``(set, tail)`` pair's flat key on first
    touch and collecting it.  First-touch marking yields exactly the
    numpy kernel's ``unique(cand_keys)`` minus already-visited keys
    (later duplicates see ``visited`` already set), and the final sort
    restores ``np.unique``'s ascending order — so the returned keys and
    the mutated ``visited`` bitmap are bit-identical to the numpy path.
    """
    buf = np.empty(flips.size, np.int64)
    cnt = 0
    pos = 0
    for i in range(fnodes.size):
        v = fnodes[i]
        base = fsets[i] * n
        for e in range(in_indptr[v], in_indptr[v + 1]):
            if flips[pos]:
                key = base + in_tails[e]
                if not visited[key]:
                    visited[key] = True
                    buf[cnt] = key
                    cnt += 1
            pos += 1
    return np.sort(buf[:cnt])


def sample_batch_flat_kernel_numba(
    n: int,
    in_indptr: np.ndarray,
    in_tails: np.ndarray,
    probs_in: np.ndarray,
    count: int,
    rng: np.random.Generator,
    chunk_bytes: int | None = None,
    roots: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Numba-backed twin of :func:`~repro.rrset.sampler.sample_batch_flat_kernel`.

    Same signature, same RNG stream, bit-identical ``(members, indptr)``
    output (see the module docstring for the argument).  RNG draws stay
    on the Python side; the compiled helpers handle the per-level gather
    and frontier advance.  *roots*, when given, pins the per-set roots
    and skips the root draw — exactly as in the numpy kernel, so the
    bit-identity contract extends to the pinned-root resample path.
    JIT compilation happens once per process on first use
    (``cache=True`` persists it across processes sharing a
    ``__pycache__``).  Both compiled helpers release the GIL
    (``nogil=True``), so :class:`~repro.rrset.backend.ParallelBackend`
    shards running on threads overlap inside them.
    """
    from repro.rrset.sampler import DEFAULT_CHUNK_BYTES, batch_chunk_size

    if chunk_bytes is None:
        chunk_bytes = DEFAULT_CHUNK_BYTES
    if count == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    if roots is None:
        roots = rng.integers(0, n, size=count).astype(np.int64)
    else:
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        if roots.shape != (count,):
            raise EstimationError(
                f"roots must have shape ({count},), got {roots.shape}"
            )
        if roots.size and (roots.min() < 0 or roots.max() >= n):
            raise EstimationError(f"roots must lie in [0, {n})")

    chunk = batch_chunk_size(n, count, chunk_bytes)
    member_sets: list[np.ndarray] = []
    member_nodes: list[np.ndarray] = []
    for c0 in range(0, count, chunk):
        c1 = min(c0 + chunk, count)
        csize = c1 - c0
        visited = np.zeros(csize * n, dtype=np.bool_)
        fsets = np.arange(csize, dtype=np.int64)
        fnodes = np.ascontiguousarray(roots[c0:c1])
        visited[fsets * n + fnodes] = True
        member_sets.append(fsets + c0)
        member_nodes.append(fnodes.copy())
        while fnodes.size:
            level_probs = _gather_level_probs(in_indptr, probs_in, fnodes)
            if level_probs.size == 0:
                break
            flips = rng.random(level_probs.size) < level_probs
            keys = _advance_frontier(
                n, in_indptr, in_tails, fnodes, fsets, flips, visited
            )
            if not keys.size:
                break
            fsets = keys // n
            fnodes = keys % n
            member_sets.append(fsets + c0)
            member_nodes.append(fnodes)

    all_sets = np.concatenate(member_sets)
    all_nodes = np.concatenate(member_nodes)
    order = np.argsort(all_sets, kind="stable")
    members = np.ascontiguousarray(all_nodes[order])
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(all_sets, minlength=count)))
    ).astype(np.int64)
    return members, indptr
