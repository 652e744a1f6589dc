"""The benchmark's own held-out revenue ruler.

Revenue reported by an allocation is the in-sample RR count that chose
its seeds, which is optimistic.  The benchmark scores every allocation
it checks on an independent RR sample drawn here, with plain numpy and
its own random streams, so a change to ``repro.rrset`` cannot also move
the ruler that judges it.

``RRSample`` is a level-synchronous reverse BFS over the graph's in-CSR:
each live (set, node) pair flips one coin per in-arc, and reached tails
not yet in the set join the next frontier.  Under the independent
cascade model a set built this way is a reverse-reachable set of a
uniform root, so ``n * P[set hits S]`` is the spread of ``S``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

#: Sets sampled per vectorised chunk; bounds the visited mask at
#: ``CHUNK * n`` bytes.
CHUNK = 1024


def stream(seed: int, *tags: int) -> np.random.Generator:
    """An independent generator for ``(seed, *tags)``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def in_csr(n: int, tails, heads) -> SimpleNamespace:
    """The in-CSR of arcs ``tails[e] -> heads[e]``, in :class:`RRSample`'s
    terms: arc ids are positions in the given arrays."""
    in_edge_ids = np.argsort(heads, kind="stable")
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=in_indptr[1:])
    return SimpleNamespace(
        n=n, in_indptr=in_indptr, in_tails=tails[in_edge_ids], in_edge_ids=in_edge_ids
    )


class RRSample:
    """``count`` RR sets of ``(graph, probs)`` in flat CSR form."""

    def __init__(self, graph, probs, count: int, rng: np.random.Generator) -> None:
        n = int(graph.n)
        in_indptr = np.asarray(graph.in_indptr, dtype=np.int64)
        in_tails = np.asarray(graph.in_tails, dtype=np.int64)
        in_probs = np.asarray(probs, dtype=np.float64)[graph.in_edge_ids]
        visited = np.zeros(CHUNK * n, dtype=bool)
        members: list[np.ndarray] = []
        sizes: list[np.ndarray] = []
        done = 0
        while done < count:
            b = min(CHUNK, count - done)
            sid = np.arange(b, dtype=np.int64)
            node = rng.integers(0, n, size=b, dtype=np.int64)
            keys = [sid * n + node]
            visited[keys[0]] = True
            while node.size:
                lo = in_indptr[node]
                deg = in_indptr[node + 1] - lo
                total = int(deg.sum())
                if total == 0:
                    break
                # Arc positions of every frontier entry, flattened.
                offsets = np.repeat(lo - np.cumsum(deg) + deg, deg)
                arcs = offsets + np.arange(total, dtype=np.int64)
                live = rng.random(total) < in_probs[arcs]
                cand = np.repeat(sid, deg)[live] * n + in_tails[arcs[live]]
                cand = np.unique(cand)
                cand = cand[~visited[cand]]
                visited[cand] = True
                keys.append(cand)
                sid, node = np.divmod(cand, n)
            flat = np.sort(np.concatenate(keys))
            visited[flat] = False
            set_ids, nodes = np.divmod(flat, n)
            members.append(nodes)
            sizes.append(np.bincount(set_ids, minlength=b))
            done += b
        self.n = n
        self.count = int(count)
        self.members = np.concatenate(members)
        self.indptr = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))

    def hits(self, seeds) -> int:
        """Number of sets that contain at least one node of *seeds*."""
        mask = np.zeros(self.n, dtype=bool)
        mask[np.asarray(list(seeds), dtype=np.int64)] = True
        per_set = np.add.reduceat(mask[self.members], self.indptr[:-1])
        # reduceat reads one element past an empty segment; such sets
        # cannot exist (every set holds its root).
        return int(np.count_nonzero(per_set))

    def spread(self, seeds) -> tuple[float, float]:
        """``(σ̂(seeds), its standard error)``."""
        if not len(seeds):
            return 0.0, 0.0
        f = self.hits(seeds) / self.count
        return self.n * f, self.n * math.sqrt(f * (1.0 - f) / self.count)


def score(sample: RRSample, seed_sets, cpes) -> tuple[float, float]:
    """Held-out revenue ``Σ_i cpe_i·σ̂(S_i)`` and a conservative SE.

    All ads are scored on one sample, so their errors correlate; the
    sum of per-ad errors bounds the error of the sum.
    """
    total = 0.0
    se = 0.0
    for seeds, cpe in zip(seed_sets, cpes):
        value, err = sample.spread(seeds)
        total += cpe * value
        se += cpe * err
    return total, se
