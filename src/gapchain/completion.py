"""Arrangement to chain completion, and chain completion to the five
chordal-family completion problems.

The first construction gives an exact per-ordering correspondence: for any
left order pi of A, the minimal chain completion costs
cost(source, pi) + Delta*n(n-1)/2 - 2|E|. The second adds cliques on one or
both sides of the bipartition, leaving the budget unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .model import BipartiteGraph, MultiGraph, Ordering, _FreshRows
from .oracle import recognizer_for


@dataclass(frozen=True)
class ChainInstance:
    """Chain-completion instance produced from an arrangement instance.

    A is the source vertex set; every source vertex owns a block S_v of
    exactly Delta B-vertices: one per incident edge copy (those have degree 2,
    joined to both endpoints) padded up with degree-1 vertices.
    """

    graph: BipartiteGraph
    budget: int
    source_delta: int


def ola_to_chain(g: MultiGraph, k: int):
    """Build the chain instance for arrangement budget k; lifter is identity.

    Vertex x owns the B-vertices x*Delta + s, s < Delta, each joined to x.
    Each copy of an edge uv, in edge order, takes the next free one of u and
    then of v (a stable per-vertex count), joined to the other end; the rest
    are degree-1 padding. Budget: k' = k + Delta * n(n-1)/2 - 2|E|.
    """
    if not g.is_loop_free():
        raise DomainError("ola_to_chain requires a loop-free source")
    n, delta, m = g.n, g.max_degree, g.m
    u, v = np.repeat(g.u, g.mult), np.repeat(g.v, g.mult)
    ends = np.stack((u, v), axis=1).ravel()  # each copy's u end, then its v end
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    # the position of an end among its vertex's ends, in copy order, is its slot
    slot = np.arange(ends.size) - np.searchsorted(ends, ends)
    others = np.stack((v, u), axis=1).ravel()[order]
    a_ids = np.concatenate((np.repeat(np.arange(n), delta), others))
    b_ids = np.concatenate((np.arange(n * delta), ends * delta + slot))
    graph = BipartiteGraph.from_arrays(n, delta * n, a_ids, b_ids)
    budget = k + delta * n * (n - 1) // 2 - 2 * m
    ci = ChainInstance(graph=graph, budget=budget, source_delta=delta)

    def lift(pi: Ordering) -> Ordering:
        """Left orders of A are the arrangement orderings, verbatim."""
        return pi

    return ci, lift


def chain_cost_for_order(ci: ChainInstance, pi: Ordering) -> int:
    """Minimal added edges for a chain completion whose left order is pi.

    Independent suffix-closure count: each B-vertex must see the suffix of pi
    starting at its earliest neighbor. The equality against the source
    arrangement cost (plus the closed-form constant) is asserted by tests,
    not here, so this stays an independent count.
    """
    h = ci.graph
    if len(pi) != h.a_size:
        raise DimensionError("left order does not match side A")
    earliest = np.full(h.b_size, h.a_size, dtype=np.int64)  # a B-vertex with no neighbor needs none
    np.minimum.at(earliest, h.v, np.array(pi.positions(), dtype=np.int64)[h.u])
    return int((h.a_size - earliest).sum()) - h.m


def _with_cliques(h: BipartiteGraph, sides: tuple[int, ...]) -> MultiGraph:
    """H on vertices A then B (B ids shifted by a_size), plus a complete
    clique on each listed side size, in that order from vertex 0.

    Each row goes straight into the output, with no pair mask: row i's clique
    pairs (i, i+1), ..., (i, end-1), then its H edges (i, a_size + b), which
    sort after them since every B id lies past every A vertex. So the
    constructor finds the columns already in key order.
    """
    a, n = h.a_size, h.a_size + h.b_size
    ids = np.arange(n, dtype=np.int64)
    # where row i's clique pairs end; past the cliques a row has none
    clique_end = np.concatenate((np.repeat(np.cumsum(sides, dtype=np.int64), sides), ids[sum(sides) : a] + 1))
    first = np.searchsorted(h.u, np.arange(a + 1)).tolist()  # row i's H edges are first[i]:first[i + 1]
    rows = np.empty((2, sum(s * (s - 1) // 2 for s in sides) + h.m), dtype=np.int64)
    at = 0
    for i, end in enumerate(clique_end.tolist()):
        mid = stop = at + end - 1 - i
        rows[1, at:mid] = ids[i + 1 : end]
        if i < a:  # a B row has no H edges
            stop += first[i + 1] - first[i]
            np.add(h.v[first[i] : first[i + 1]], a, out=rows[1, mid:stop])
        rows[0, at:stop] = i
        at = stop
    return MultiGraph(n, _FreshRows(rows))


def two_clique_cover(h: BipartiteGraph) -> MultiGraph:
    """H plus complete cliques on both sides (Ch(H)); B ids shifted by a_size."""
    return _with_cliques(h, (h.a_size, h.b_size))


def a_clique_cover(h: BipartiteGraph) -> MultiGraph:
    """H plus a complete clique on side A only."""
    return _with_cliques(h, (h.a_size,))


def chain_to_fillin(ci: ChainInstance) -> tuple[MultiGraph, int]:
    """Chain completion to minimum fill-in: clique both sides, same budget."""
    return two_clique_cover(ci.graph), ci.budget


def chain_to_threshold(ci: ChainInstance) -> tuple[MultiGraph, int]:
    """Chain completion to threshold completion: clique side A only."""
    return a_clique_cover(ci.graph), ci.budget


def verify_completion(g: MultiGraph, added, cls: str) -> bool:
    """True iff g plus the added edges lands in the named graph class."""
    present = {(u, v) for u, v, _ in g.edges}
    canon = []
    for u, v in added:
        if u > v:
            u, v = v, u
        if (u, v) in present:
            raise DomainError(f"added edge ({u}, {v}) already present")
        canon.append((u, v, 1))
    combined = MultiGraph(g.n, g.edges + tuple(canon))
    return recognizer_for(cls)(combined)
