"""Subset-indexed tables used by the exponential-time solvers.

Every table indexes subsets of vertices by bitmask. Vertex v occupies bit
position (n - 1 - v), so the numeric order of masks coincides with the
lexicographic order of the corresponding tuples (side of vertex 0 first).
np.argmin / np.argmax then return lexicographically smallest witnesses
for free.

Since cut(S) = cut(V - S), `cut_weight_table` keeps only the 2^(n-1) masks
that leave vertex 0 out (bit n - 1 clear). The mask 2^(n-1) + r has the cut of
its complement 2^(n-1) - 1 - r, so `np.concatenate((t, t[::-1]))` covers all 2^n.
`cut_weight_blocks` yields the same half table in blocks of 2^bits masks, for
readers that scan it once: max cut and bisection hold about 1 MiB at the
24-vertex cap rather than the 8 MiB table. `weight_cut_blocks` does the same
from a weight matrix, for the expander certificates, which hold one per sample.

The cut tables hold their values in the narrowest signed integer type that
holds the total non-loop multiplicity. At the 24-vertex cap with 120 edges a
cut table is int8, an eighth of int64's memory traffic.

`subset_sums` is the subset-sum (zeta) transform of sparse weighted masks,
g[mask] = sum of the weights of the masks inside mask (Yates 1937; Bjorklund,
Husfeldt, Kaski and Koivisto, STOC 2007), in the narrowest unsigned type
holding a stated bound on every sum. It makes n passes over the table however
many terms there are; the SAT and NAE tables and the chain-completion counts
of `oracle` come from it. At 20 variables and 100 3-clauses the uint8 SAT and
NAE tables took 0.56 and 0.58 ms, where one broadcast pass per clause took
8-10 ms (medians of 15 over two runs, 2-core x86-64, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

from .model import MultiGraph


def bitpos(n: int, v: int) -> int:
    return n - 1 - v


def mask_to_side_tuple(mask: int, n: int) -> tuple[bool, ...]:
    return tuple(bool((mask >> (n - 1 - v)) & 1) for v in range(n))


def _signed_dtype(bound: int) -> type:
    """The narrowest signed integer type holding 0..bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _fill_by_doubling(out: np.ndarray, start, steps, op=np.add) -> np.ndarray:
    """out[j] = start combined by op (a ufunc, addition by default) with
    steps[i] for every set bit i of j, in place.

    Each step doubles the filled prefix, so the whole table costs one pass
    over out and no temporary of its size.
    """
    out[0] = start
    for i, step in enumerate(steps):
        a = 1 << i
        op(out[:a], step, out=out[a : 2 * a])
    return out


def popcount_table(n: int) -> np.ndarray:
    return _fill_by_doubling(np.empty(1 << n, dtype=np.uint8), 0, [1] * n)


def neighbourhood_table(g: MultiGraph) -> np.ndarray:
    """N[mask] = mask of the vertices adjacent to some vertex of mask.

    A vertex of mask is in N[mask] only if it has a neighbour in mask (or a
    loop). Built by doubling from the low bit up. O(2^n) time and memory.
    """
    n = g.n
    nbrs = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(nbrs, g.u, 1 << bitpos(n, g.v))
    np.bitwise_or.at(nbrs, g.v, 1 << bitpos(n, g.u))
    # bit i holds vertex n - 1 - i
    return _fill_by_doubling(np.empty(1 << n, dtype=np.int64), 0, nbrs[::-1], np.bitwise_or)


def _subset_cuts(w: np.ndarray, starts, vertices: np.ndarray, dtype) -> np.ndarray:
    """t[S] = sum of starts[i] over the set bits i of S, less 2 w(S) for the
    weight w(S) inside S, where bit i of S holds vertices[i].

    Built bit by bit from low to high, using t[S + u] = t[S] + start(u) - 2 w(u, S)
    for u above every vertex of S. The steps may wrap in dtype; the callers'
    sums do not, so the wrap cancels.
    """
    table = np.zeros(1 << vertices.size, dtype=dtype)
    for i, u in enumerate(vertices):
        steps = (-2 * w[u, vertices[:i]]).astype(dtype)
        hi = _fill_by_doubling(table[1 << i : 2 << i], starts[i], steps)
        hi += table[: 1 << i]
    return table


def adjacency_matrix(g: MultiGraph) -> np.ndarray:
    """The int64 n x n matrix with each pair's multiplicity at both of its
    cells, and a loop's once on the diagonal."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    # pairs are distinct, so each assignment places one multiplicity
    a[g.u, g.v] = g.mult
    a[g.v, g.u] = g.mult
    return a


def cut_weight_blocks(g: MultiGraph, bits: int):
    """Yield (start, block) over the table of `cut_weight_table`, in blocks of
    2^bits consecutive masks from start, in increasing mask order: the blocks
    of `weight_cut_blocks` on the graph's adjacency matrix."""
    return weight_cut_blocks(adjacency_matrix(g), bits)


def weight_cut_blocks(w: np.ndarray, bits: int):
    """Yield (start, block) over the cut table of the symmetric int64 weight
    matrix w, in blocks of 2^bits consecutive masks from start, in increasing
    mask order. The diagonal is ignored: loops never cross. bits is capped at
    n - 1, the whole table in one block. Each block after the first is one
    buffer, overwritten by the next.

    The low bits' table T_lo comes from the same doubling as the whole table.
    A high set h then has the block T_lo + sum over u in h of lin_u, less
    2 w(h) for the weight inside h, where lin_u[l] = wdeg(u) - 2 w(u, l) is a
    2^bits doubling table for each high vertex. Masks rise by one high bit at
    a time: sums[t] holds T_lo plus the lin tables of the current h's bits at
    t and above, so each block costs two array adds. Every term is in the
    table's type, so its wrap cancels as in the whole table. O(2^(n-1)) time;
    O(n 2^bits + 2^(n-1-bits)) memory.
    """
    n = len(w)
    w = w.copy()
    np.fill_diagonal(w, 0)
    wdeg = w.sum(axis=1)
    # the total non-loop multiplicity, summed exactly: twice it may leave int64
    dtype = _signed_dtype(sum(wdeg.tolist()) // 2)
    vertex = np.arange(n - 1, 0, -1)  # the vertex at each bit of a mask
    low, high = vertex[:bits], vertex[bits:]
    table = _subset_cuts(w, wdeg[low], low, dtype)
    yield 0, table
    if not high.size:
        return
    inner = _subset_cuts(w, np.zeros(high.size, dtype=np.int64), high, dtype)  # -2 w(h)
    lin = np.empty((high.size, table.size), dtype=dtype)
    for j, u in enumerate(high):
        _fill_by_doubling(lin[j], wdeg[u], (-2 * w[u, low]).astype(dtype))
    sums, block = np.empty_like(lin), np.empty_like(table)
    for h in range(1, 1 << high.size):
        t = (h & -h).bit_length() - 1  # the bit h set; h's bits above t are as before
        rest = h & (h - 1)
        np.add(sums[(rest & -rest).bit_length() - 1] if rest else table, lin[t], out=sums[t])
        np.add(sums[t], inner[h], out=block)  # inner[h] is a scalar of the table's type
        yield h << bits, block


def cut_weight_table(g: MultiGraph) -> np.ndarray:
    """T[mask] = total multiplicity of edges with exactly one endpoint in mask,
    for the masks that leave vertex 0 out (see the module docstring).

    Self-loops never cross. It is the one block of `cut_weight_blocks`, so one
    doubling over every bit. The table's type is the narrowest signed one
    holding 0..m, m the total non-loop multiplicity. A step -2 w(u, S) may wrap
    in it, but every sum the doubling ends in is a cut in [0, m], so the wrap
    cancels. O(2^(n-1)) time and memory; callers enforce their caps.
    """
    [(_, table)] = cut_weight_blocks(g, g.n)
    return table


def subset_sums(n: int, masks: np.ndarray, weights: np.ndarray, bound: int) -> np.ndarray:
    """g[mask] = sum of weights[i] over the terms i whose masks[i] is a subset
    of mask, for all 2^n masks: the subset-sum (zeta) transform of sparse
    terms. masks is an integer array of masks below 2^n, which may repeat;
    weights an integer array of the same length.

    g takes the narrowest unsigned type holding 0..bound, and its sums are
    taken modulo that type's range: the weights are cast to it and partial
    sums may wrap, so g[mask] is exact wherever the sum lies in 0..bound.

    A mask splits into its high n - lo bits and its low lo. The terms are
    grouped by their D distinct high halves into a (2^lo, D) array, summed
    over the low bits along axis 0, and scattered as rows into the
    (2^(n-lo), 2^lo) table, which is summed over the high bits along axis 0.
    Every pass adds long contiguous slices: an in-place transform on the flat
    table took 9.3 ms at n = 20 (2-core x86-64), for its low bits add slices
    of 1 to 32 cells. lo is n // 2 + 1, but at least n - 9: past n = 20 the
    table outgrows the cache, so each high pass saved is worth a wider low
    array. Over the SAT terms of 5n random 3-clauses, best of 7 on the same
    machine, this lo was within 7 % of the fastest from n // 2 - 2 to
    n // 2 + 5:

        n   terms   lo   ms      fastest
        14  234     8    0.060   0.059 (lo = 7)
        16  289     9    0.086   0.081 (lo = 7)
        18  315     10   0.261   this lo
        20  335     11   0.363   this lo
        22  368     13   2.064   2.056 (lo = 12)
        24  425     15   7.63    this lo

    O(T + D 2^lo + n 2^n) time for T terms; the table plus O(T + D 2^lo)
    memory.
    """
    lo = min(max(n // 2 + 1, n - 9), n)
    table = np.zeros((1 << (n - lo), 1 << lo), dtype=np.min_scalar_type(bound))
    high = masks >> lo
    hit = np.zeros(len(table), dtype=bool)
    hit[high] = True
    rows = np.flatnonzero(hit)  # the distinct high halves, increasing
    low = np.zeros((1 << lo, rows.size), dtype=table.dtype)
    col = np.cumsum(hit) - 1  # each high half's column of low
    cell = (masks & (1 << lo) - 1) * rows.size + col[high]
    np.add.at(low.reshape(-1), cell, weights.astype(table.dtype))
    for i in range(lo):
        pairs = low.reshape(1 << (lo - 1 - i), 2, -1)
        pairs[:, 1] += pairs[:, 0]
    table[rows] = low.T
    for i in range(n - lo):
        pairs = table.reshape(1 << (n - lo - 1 - i), 2, -1)
        pairs[:, 1] += pairs[:, 0]
    return table.reshape(-1)


def masks_by_popcount(n: int) -> list[np.ndarray]:
    """The masks over n bits with k bits set, in increasing order, for k = 0..n."""
    pc = popcount_table(n)
    return [np.flatnonzero(pc == k) for k in range(n + 1)]
