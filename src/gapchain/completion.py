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
from .model import BipartiteGraph, MultiGraph, Ordering, _FreshRows, _mask_rows, _pair_mask, _pair_rank
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

    Works for multigraphs: parallel copies get their own B-vertices. Budget:
    k' = k + Delta * n(n-1)/2 - 2|E|.
    """
    if not g.is_loop_free():
        raise DomainError("ola_to_chain requires a loop-free source")
    n = g.n
    delta = g.max_degree
    m = g.m
    slots_used = [0] * n
    edges: list[tuple[int, int]] = []

    def take_slot(v: int) -> int:
        b = v * delta + slots_used[v]
        slots_used[v] += 1
        edges.append((v, b))
        return b

    for u, v, mult in g.edges:
        for _ in range(mult):
            edges.append((v, take_slot(u)))
            edges.append((u, take_slot(v)))
    for v in range(n):
        while slots_used[v] < delta:
            take_slot(v)
    graph = BipartiteGraph(n, delta * n, tuple(edges))
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
    a_size = ci.graph.a_size
    if len(pi) != a_size:
        raise DimensionError("left order does not match side A")
    pos = pi.positions()
    total = 0
    for nbrs in ci.graph.b_neighborhoods():
        if not nbrs:
            continue
        earliest = min(pos[a] for a in nbrs)
        total += (a_size - earliest) - len(nbrs)
    return total


def _with_cliques(h: BipartiteGraph, sides: tuple[int, ...]) -> MultiGraph:
    """H on vertices A then B (B ids shifted by a_size), plus a complete
    clique on each listed side size, in that order from vertex 0.

    The pairs are marked in a one-byte pair mask, the H edges by rank and each
    clique row as one contiguous rank range, and read back in row-major
    order, so the edge columns come out already sorted.
    """
    n = h.a_size + h.b_size
    pairs = np.array(h.edges, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1] + h.a_size
    mask = _pair_mask(n, u, v)
    counts = np.bincount(u, minlength=n)
    offset = 0
    for size in sides:
        end = offset + size
        for i in range(offset, end - 1):
            first = _pair_rank(n, i, i + 1)
            mask[first : first + end - 1 - i] = True
        counts[offset:end] += np.arange(size - 1, -1, -1)
        offset = end
    return MultiGraph(n, _FreshRows(_mask_rows(n, mask, True, counts)))


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
