"""Subset-indexed tables used by the exponential-time solvers.

Every table indexes subsets of vertices by bitmask. Vertex v occupies bit
position (n - 1 - v), so the numeric order of masks coincides with the
lexicographic order of the corresponding tuples (side of vertex 0 first).
np.argmin / np.argmax then return lexicographically smallest witnesses
for free.
"""

from __future__ import annotations

import numpy as np

from .model import Digraph, MultiGraph


def bitpos(n: int, v: int) -> int:
    return n - 1 - v


def mask_to_side_tuple(mask: int, n: int) -> tuple[bool, ...]:
    return tuple(bool((mask >> (n - 1 - v)) & 1) for v in range(n))


def _fill_by_doubling(out: np.ndarray, start, steps) -> np.ndarray:
    """out[j] = start + sum of steps[i] over the set bits i of j, in place.

    Each step doubles the filled prefix, so the whole table costs one pass
    over out and no temporary of its size.
    """
    out[0] = start
    for i, step in enumerate(steps):
        a = 1 << i
        np.add(out[:a], step, out=out[a : 2 * a])
    return out


def popcount_table(n: int) -> np.ndarray:
    return _fill_by_doubling(np.empty(1 << n, dtype=np.uint8), 0, [1] * n)


def cut_weight_table(g: MultiGraph) -> np.ndarray:
    """T[mask] = total multiplicity of edges with exactly one endpoint in mask.

    Self-loops never cross. Built bit by bit from low to high, using
    T[S + u] = T[S] + wdeg(u) - 2 w(u, S) for u above every vertex of S.
    O(2^n) time and memory; callers enforce their caps.
    """
    n = g.n
    table = np.zeros(1 << n, dtype=np.int64)
    w = np.zeros((n, n), dtype=np.int64)
    for u, v, mult in g.edges:
        if u != v:
            w[u, v] += mult
            w[v, u] += mult
    wdeg = w.sum(axis=1)
    for b in range(n):
        u = n - 1 - b
        # bit c < b holds vertex n - 1 - c, so w[u, ::-1][:b] is w(u, .) by bit
        hi = _fill_by_doubling(table[1 << b : 2 << b], wdeg[u], -2 * w[u, ::-1][:b])
        hi += table[: 1 << b]
    return table


def into_vertex_tables(d: Digraph) -> np.ndarray:
    """W[v][mask] = total weight of arcs (u -> v) with u in mask; loops skipped."""
    n = d.n
    tables = np.zeros((n, 1 << n), dtype=np.int64)
    for u, v, mult in d.arcs:
        if u == v:
            continue
        b = bitpos(n, u)
        tables[v].reshape(1 << (n - 1 - b), 2, 1 << b)[:, 1, :] += mult
    return tables


def masks_by_popcount(n: int) -> list[np.ndarray]:
    pc = popcount_table(n)
    order = np.argsort(pc, kind="stable")
    boundaries = np.searchsorted(pc[order], np.arange(n + 2))
    return [order[boundaries[k] : boundaries[k + 1]] for k in range(n + 1)]
