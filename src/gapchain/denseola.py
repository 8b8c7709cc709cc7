"""Gap MaxCut to minimum linear arrangement via a linear-size separator clique.

The output graph is the complement of the source plus a clique of size M*n
fully joined to it, with M = ceil(2/(beta-alpha)). Its edge set and the source
edge set together tile the complete graph on (M+1)n vertices, so for every
ordering the two arrangement costs sum to C((M+1)n+1, 3); a large cut of the
source is exactly a cheap arrangement of the output.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DimensionError, DomainError
from .model import (
    GapInstance,
    MultiGraph,
    Ordering,
    VertexPartition,
    _pair_mask,
    _pair_rank,
    complement,
)


def complete_graph_arrangement_cost(n: int) -> int:
    """Every ordering of K_n costs sum_{d=1}^{n-1} d(n-d) = C(n+1, 3)."""
    return math.comb(n + 1, 3)


@dataclass(frozen=True)
class DenseOlaOutput:
    """Arrangement instance produced from a gap MaxCut instance."""

    graph: MultiGraph
    budget: int
    M: int
    clique_vertices: range
    source: MultiGraph
    threshold_ceiled: bool


def maxcut_to_ola(gi: GapInstance) -> DenseOlaOutput:
    """Build the arrangement instance and its decision budget.

    budget = C((M+1)n+1, 3) - ceil(beta*m) * M*n. The ceiling matters only
    when beta*m is non-integral; cut sizes are integers, so a cut of size at
    least beta*m means at least ceil(beta*m).
    """
    g: MultiGraph = gi.instance
    if not g.is_simple():
        raise DomainError("maxcut_to_ola requires a simple source graph")
    gap = gi.gap
    n, m = g.n, g.m
    M = math.ceil(2 / (gap.beta - gap.alpha))
    total = (M + 1) * n
    threshold = gap.beta * m
    ceiled = threshold.denominator != 1
    yes_threshold = math.ceil(threshold)
    budget = complete_graph_arrangement_cost(total) - yes_threshold * M * n

    # E(G') is every pair of K_total except the source edges
    out = complement(MultiGraph.from_arrays(total, g.u, g.v))
    clique = range(n, n + M * n)
    return DenseOlaOutput(
        graph=out,
        budget=budget,
        M=M,
        clique_vertices=clique,
        source=g,
        threshold_ceiled=ceiled,
    )


def star_identity_holds(out: DenseOlaOutput) -> bool:
    """Check E(G') and E(source) tile the complete graph on (M+1)n vertices.

    The per-ordering identity  cost_{G'}(pi) + cost_{source}(pi) = C(N+1, 3)
    holds for every ordering pi if and only if every unordered vertex pair is
    covered exactly once by the two edge multisets combined, which this
    verifies exactly (and completely) without enumerating orderings.
    """
    g, src = out.graph, out.source
    total = g.n
    if src.n > total or not (g.is_simple() and src.is_simple()):
        return False
    if g.m + src.m != math.comb(total, 2):
        return False
    # each side's pairs are distinct, so with the right count a pair is missing
    # exactly when another is covered by both sides
    covered = _pair_mask(total, g.u, g.v)
    return not covered[_pair_rank(total, src.u, src.v)].any()


def ordering_from_cut(out: DenseOlaOutput, p: VertexPartition) -> Ordering:
    """List side A, then the clique, then side B (each ascending)."""
    n = out.source.n
    if len(p) != n:
        raise DimensionError("partition does not match the source graph")
    a = [v for v in range(n) if not p.side[v]]
    b = [v for v in range(n) if p.side[v]]
    return Ordering(tuple(a + list(out.clique_vertices) + b))


def _blocks_of(vertices: set[int], perm: Iterable[int]) -> list[list[int]]:
    """Maximal runs of `vertices` along the ordering, left to right."""
    blocks = []
    cur: list[int] = []
    for v in perm:
        if v in vertices:
            cur.append(v)
        elif cur:
            blocks.append(cur)
            cur = []
    if cur:
        blocks.append(cur)
    return blocks


def normalized_clique_ordering(out: DenseOlaOutput, pi: Ordering) -> Ordering:
    """Exchange blocks until the clique is consecutive, never increasing cost.

    While the clique is split, its leftmost (or second-leftmost) block is
    exchanged with the inner block, the case chosen by comparing source edges
    from the inner block to each side; every exchange strictly shrinks the
    number of source vertices inside the clique span.
    """
    if len(pi) != out.graph.n:
        raise DimensionError("ordering does not match the arrangement instance")
    clique = set(out.clique_vertices)
    source_adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, mult in out.source.edges:
        source_adj.setdefault(u, []).append((v, mult))
        source_adj.setdefault(v, []).append((u, mult))

    perm = list(pi.perm)
    while True:
        blocks = _blocks_of(clique, perm)
        if len(blocks) <= 1:
            break
        first, second = blocks[0], blocks[1]
        pos = {v: i for i, v in enumerate(perm)}
        lo = pos[first[-1]]
        hi = pos[second[0]]
        inner = perm[lo + 1 : hi]
        left = set(perm[: lo + 1])
        right = set(perm[hi:])
        e_left = sum(
            mult
            for x in inner
            for (y, mult) in source_adj.get(x, ())
            if y in left
        )
        e_right = sum(
            mult
            for x in inner
            for (y, mult) in source_adj.get(x, ())
            if y in right
        )
        if e_left <= e_right:
            # swap the leftmost clique block with the inner block
            start = pos[first[0]]
            perm[start:hi] = inner + first
        else:
            # swap the inner block with the second-leftmost clique block
            perm[lo + 1 : hi + len(second)] = second + inner
    return Ordering(tuple(perm))


def cut_from_ordering(out: DenseOlaOutput, pi: Ordering) -> VertexPartition:
    """Read a cut off an arbitrary ordering: normalize the clique to be
    consecutive (cost never increases), then A = left of it, B = right."""
    normalized = normalized_clique_ordering(out, pi)
    pos = normalized.positions()
    clique_start = min(pos[c] for c in out.clique_vertices)
    side = tuple(pos[v] > clique_start for v in range(out.source.n))
    return VertexPartition(side)
