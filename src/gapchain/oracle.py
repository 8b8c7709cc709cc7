"""Exact exponential-time solvers and graph-class recognizers.

These are the ground truth every reduction is checked against. All solvers
enumerate or run subset DP, never heuristics; every cap is explicit and
exceeding it raises instead of truncating. Ties between optimal witnesses are
broken deterministically: the lexicographically smallest optimal ordering,
partition, assignment or vertex set. Fill-in and chain completion complete the
lexicographically smallest optimal elimination order or left order of A; class
completion returns the first smallest edge set in itertools.combinations order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bitops import (
    cut_weight_table,
    into_vertex_tables,
    mask_to_side_tuple,
    masks_by_popcount,
    popcount_table,
)
from .errors import CapExceededError, DomainError
from .model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    MultiGraph,
    Ordering,
    VertexPartition,
)

_INF = np.int64(1) << 62


@dataclass(frozen=True)
class SolveResult:
    """Optimum value plus a witness achieving it."""

    value: int
    witness: object


def _check_cap(size: int, cap: int, what: str):
    if size > cap:
        raise CapExceededError(f"{what}: size {size} exceeds cap {cap}")


def backward_arc_weight(d: Digraph, pi: Ordering) -> int:
    """FAS cost of an ordering: backward arc weight, plus all loop copies."""
    if len(pi) != d.n:
        raise DomainError(f"ordering has {len(pi)} entries, digraph has {d.n}")
    pos = pi.positions()
    total = 0
    for u, v, mult in d.arcs:
        if u == v or pos[u] > pos[v]:
            total += mult
    return total


def _suffix_dp(n: int, append_cost) -> tuple[int, list[int]]:
    """Generic subset DP over prefixes.

    append_cost(sub_masks, v, bit) -> cost array of appending v when the
    prefix is sub_masks (bit not set in them). Returns the optimum and the
    lexicographically smallest optimal vertex sequence.
    """
    size = 1 << n
    h = np.full(size, _INF, dtype=np.int64)
    h[size - 1] = 0
    levels = masks_by_popcount(n)
    for k in range(n - 1, -1, -1):
        masks = levels[k]
        for v in range(n):
            bit = 1 << (n - 1 - v)
            sub = masks[(masks & bit) == 0]
            if sub.size == 0:
                continue
            cand = h[sub | bit] + append_cost(sub, v, bit)
            h[sub] = np.minimum(h[sub], cand)
    order = []
    mask = 0
    for _ in range(n):
        target = int(h[mask])
        for v in range(n):
            bit = 1 << (n - 1 - v)
            if mask & bit:
                continue
            step = int(append_cost(np.array([mask]), v, bit)[0])
            if step + int(h[mask | bit]) == target:
                order.append(v)
                mask |= bit
                break
        else:  # pragma: no cover - DP invariant
            raise AssertionError("suffix DP reconstruction failed")
    return int(h[0]), order


def ola_exact(g: MultiGraph, cap: int = 20) -> SolveResult:
    """Minimum linear arrangement by Held-Karp subset DP.

    The cost of a prefix set S is independent of its internal order except
    through the per-step boundary cuts, so dp runs over subsets: appending any
    vertex to prefix S pays the full boundary cut of the new prefix.
    """
    _check_cap(g.n, cap, "ola_exact")
    n = g.n
    if n == 0:
        return SolveResult(0, Ordering(()))
    delta = cut_weight_table(g)

    def append_cost(sub, v, bit):
        return delta[sub | bit]

    value, order = _suffix_dp(n, append_cost)
    return SolveResult(value, Ordering(tuple(order)))


def max_cut_exact(g: MultiGraph, cap: int = 24) -> SolveResult:
    """Maximum cut by enumeration over 2^(n-1) partitions (vertex 0 on side A)."""
    _check_cap(g.n, cap, "max_cut_exact")
    n = g.n
    if n == 0:
        return SolveResult(0, VertexPartition(()))
    table = cut_weight_table(g)
    half = table[: 1 << (n - 1)] if n > 1 else table[:1]
    best = int(np.argmax(half))
    return SolveResult(int(half[best]), VertexPartition(mask_to_side_tuple(best, n)))


def min_bisection_exact(g: MultiGraph, cap: int = 24) -> SolveResult:
    """Minimum balanced cut by enumeration; n must be even."""
    if g.n % 2 != 0:
        raise DomainError(f"min bisection needs an even vertex count, got {g.n}")
    _check_cap(g.n, cap, "min_bisection_exact")
    n = g.n
    if n == 0:
        return SolveResult(0, VertexPartition(()))
    table = cut_weight_table(g)
    pc = popcount_table(n)
    limit = 1 << (n - 1)
    candidates = np.flatnonzero(pc[:limit] == n // 2)
    vals = table[candidates]
    i = int(np.argmin(vals))
    mask = int(candidates[i])
    return SolveResult(int(vals[i]), VertexPartition(mask_to_side_tuple(mask, n)))


def _assignment_counts(f: CnfFormula, nae: bool) -> np.ndarray:
    """counts[mask] = clauses satisfied (or NAE-satisfied) by assignment mask.

    Variable v is axis v of counts viewed as (2,)*n. Each clause adds a small
    table over its own variables and the ten lowest ones (so the inner loop
    stays long), broadcast over all the others.
    """
    n = f.var_count
    counts = np.zeros(1 << n, dtype=np.int32)
    tail = range(max(n - 10, 0), n)
    for clause in f.clauses:
        axes = sorted({v for v, _ in clause}.union(tail))
        k = len(axes)
        any_true = np.zeros((2,) * k, dtype=bool)
        any_false = np.zeros((2,) * k, dtype=bool)
        for v, pol in clause:
            i = axes.index(v)
            value = np.arange(2, dtype=bool).reshape([2 if j == i else 1 for j in range(k)])
            any_true |= value == pol
            any_false |= value != pol
        table = any_true & any_false if nae else any_true
        # view counts as (free block, 2) per table axis, then the last block
        shape, prev = [], -1
        for v in axes:
            shape += [1 << (v - prev - 1), 2]
            prev = v
        view = counts.reshape(shape + [1 << (n - 1 - prev)])
        view += table.astype(np.int32).reshape([1, 2] * k + [1])
    return counts


def _max_assignment(f: CnfFormula, nae: bool, cap: int) -> SolveResult:
    _check_cap(f.var_count, cap, "max_nae_exact" if nae else "max_sat_exact")
    n = f.var_count
    counts = _assignment_counts(f, nae)
    best = int(np.argmax(counts))
    values = tuple(bool((best >> (n - 1 - v)) & 1) for v in range(n))
    return SolveResult(int(counts[best]), Assignment(values))


def max_sat_exact(f: CnfFormula, cap: int = 24) -> SolveResult:
    """Maximum number of (ordinarily) satisfied clauses, by enumeration."""
    return _max_assignment(f, nae=False, cap=cap)


def max_nae_exact(f: CnfFormula, cap: int = 24) -> SolveResult:
    """Maximum number of NAE-satisfied clauses, by enumeration."""
    return _max_assignment(f, nae=True, cap=cap)


def min_fas_exact(d: Digraph, cap: int = 18) -> SolveResult:
    """Minimum feedback arc weight over orderings by Held-Karp subset DP.

    Arc multiplicities act as weights. Self-loops are never backward under any
    ordering but must be deleted to reach acyclicity, so their weight is added
    as a constant.
    """
    _check_cap(d.n, cap, "min_fas_exact")
    n = d.n
    loop_weight = sum(mult for u, v, mult in d.arcs if u == v)
    if n == 0:
        return SolveResult(loop_weight, Ordering(()))
    tables = into_vertex_tables(d)
    indeg_nl = np.zeros(n, dtype=np.int64)
    for u, v, mult in d.arcs:
        if u != v:
            indeg_nl[v] += mult

    def append_cost(sub, v, bit):
        # arcs into v from vertices not yet placed become backward
        return indeg_nl[v] - tables[v][sub]

    value, order = _suffix_dp(n, append_cost)
    return SolveResult(value + loop_weight, Ordering(tuple(order)))


def _is_acyclic(succ: list[list[int]], alive: list[bool], n: int) -> bool:
    indeg = [0] * n
    for u in range(n):
        if alive[u]:
            for v in succ[u]:
                if alive[v]:
                    indeg[v] += 1
    stack = [v for v in range(n) if alive[v] and indeg[v] == 0]
    seen = 0
    total = sum(alive)
    while stack:
        u = stack.pop()
        seen += 1
        for v in succ[u]:
            if alive[v]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
    return seen == total


def min_fvs_exact(d: Digraph, cap: int = 20) -> SolveResult:
    """Smallest vertex set whose removal leaves the digraph acyclic.

    Enumerates candidate sets by increasing size. Vertices carrying self-loops
    are forced into the solution up front.
    """
    _check_cap(d.n, cap, "min_fvs_exact")
    n = d.n
    forced = sorted({u for u, v, _ in d.arcs if u == v})
    rest = [v for v in range(n) if v not in set(forced)]
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in d.arcs:
        if u != v and v not in succ[u]:
            succ[u].append(v)
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            alive = [True] * n
            for v in forced:
                alive[v] = False
            for v in combo:
                alive[v] = False
            if _is_acyclic(succ, alive, n):
                witness = tuple(sorted(forced + list(combo)))
                return SolveResult(len(witness), witness)
    raise AssertionError("unreachable: removing all vertices is acyclic")


def min_chain_completion_exact(h: BipartiteGraph, cap: int = 20) -> SolveResult:
    """Minimum chain completion by Held-Karp subset DP over left orders of A.

    For a fixed left order, the unique minimal completion connects every
    B-vertex to the suffix of A starting at its earliest neighbor. Its size
    plus the edge count is the sum, over the nonempty prefixes S of the order,
    of the number of B-vertices with a neighbor in S; so appending a vertex to
    a prefix pays that count for the new prefix. The witness completes the
    lexicographically smallest optimal left order.
    """
    _check_cap(h.a_size, cap, "min_chain_completion_exact")
    a_size = h.a_size
    b_nbrs = h.b_neighborhoods()
    if a_size == 0 or h.m == 0:
        return SolveResult(0, ())
    # inside[mask] = number of B-vertices whose neighborhood lies inside mask
    nbr_masks = [sum(1 << (a_size - 1 - a) for a in nbrs) for nbrs in b_nbrs]
    inside = np.bincount(nbr_masks, minlength=1 << a_size)
    for i in range(a_size):
        halves = inside.reshape(-1, 2, 1 << i)
        halves[:, 1, :] += halves[:, 0, :]
    # a B-vertex touches mask unless its neighborhood lies inside the complement
    touched = len(b_nbrs) - inside[::-1]
    value, order = _suffix_dp(a_size, lambda sub, v, bit: touched[sub | bit])
    pos = {a: i for i, a in enumerate(order)}
    edges = []
    for b, nbrs in enumerate(b_nbrs):
        if nbrs:
            earliest = min(pos[a] for a in nbrs)
            edges += [(a, b) for a in order[earliest:] if a not in nbrs]
    return SolveResult(value - h.m, tuple(sorted(edges)))


def _components_within(adj: list[int], mask: int, n: int) -> list[int]:
    """Connected components of the subgraph induced on the bitmask `mask`."""
    comps = []
    todo = mask
    while todo:
        v = (todo & -todo).bit_length() - 1
        comp = 1 << v
        frontier = adj[v] & mask & ~comp
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                u = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= adj[u]
            frontier = nxt & mask & ~comp
        comps.append(comp)
        todo &= ~comp
    return comps


def min_fill_in_exact(g: MultiGraph, cap: int = 16) -> SolveResult:
    """Minimum fill-in by subset DP over elimination orderings.

    State = set of already-eliminated vertices. The graph after eliminating a
    set X is order-independent: two survivors are adjacent iff they are
    adjacent in G or connected by a path through X. Witness fill edges come
    from simulating the reconstructed elimination order; the result is checked
    chordal by the recognizer.
    """
    if not g.is_simple():
        raise DomainError("min_fill_in_exact requires a simple graph")
    _check_cap(g.n, cap, "min_fill_in_exact")
    n = g.n
    if n == 0:
        return SolveResult(0, ())
    adj = [0] * n
    for u, v, _ in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1

    levels: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(full + 1):
        levels[mask.bit_count()].append(mask)

    def deficiency(v: int, mask: int, comps: list[int]) -> int:
        reach = adj[v]
        for comp in comps:
            if adj[v] & comp:
                hull = 0
                c = comp
                while c:
                    y = (c & -c).bit_length() - 1
                    c &= c - 1
                    hull |= adj[y]
                reach |= hull
        s = reach & ~mask & ~(1 << v)
        cnt = 0
        rest = s
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            reach_a = adj[a]
            for comp in comps:
                if adj[a] & comp:
                    c = comp
                    while c:
                        y = (c & -c).bit_length() - 1
                        c &= c - 1
                        reach_a |= adj[y]
            cnt += (rest & ~reach_a).bit_count()
        return cnt

    h = [0] * (full + 1)
    comps_cache: dict[int, list[int]] = {}
    for k in range(n - 1, -1, -1):
        for mask in levels[k]:
            comps = _components_within(adj, mask, n)
            comps_cache[mask] = comps
            best = None
            rest = full & ~mask
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                cand = deficiency(v, mask, comps) + h[mask | (1 << v)]
                if best is None or cand < best:
                    best = cand
            h[mask] = best

    # lexicographically earliest optimal elimination order, then simulate it
    order = []
    mask = 0
    for _ in range(n):
        comps = comps_cache[mask]
        for v in range(n):
            if mask & (1 << v):
                continue
            if deficiency(v, mask, comps) + h[mask | (1 << v)] == h[mask]:
                order.append(v)
                mask |= 1 << v
                break
    cur = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        cur[u].add(v)
        cur[v].add(u)
    alive = set(range(n))
    fill = []
    for v in order:
        nbrs = sorted(cur[v] & alive)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b not in cur[a]:
                    cur[a].add(b)
                    cur[b].add(a)
                    fill.append((a, b) if a < b else (b, a))
        alive.discard(v)
    if len(fill) != h[0]:  # pragma: no cover - DP invariant
        raise AssertionError("fill-in simulation disagrees with DP value")
    return SolveResult(h[0], tuple(sorted(fill)))


# ---------------------------------------------------------------------------
# Graph-class recognizers
# ---------------------------------------------------------------------------


def _require_simple(g: MultiGraph, what: str):
    if not g.is_simple():
        raise DomainError(f"{what} requires a simple graph")


def _peo(g: MultiGraph) -> list[int] | None:
    """Perfect elimination ordering via maximum cardinality search, or None."""
    n = g.n
    adj = g.adjacency_sets()
    weights = [0] * n
    visited = [False] * n
    mcs = []
    for _ in range(n):
        v = max(
            (u for u in range(n) if not visited[u]),
            key=lambda u: (weights[u], -u),
        )
        visited[v] = True
        mcs.append(v)
        for u in adj[v]:
            if not visited[u]:
                weights[u] += 1
    elim = list(reversed(mcs))
    rank = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [u for u in adj[v] if rank[u] > rank[v]]
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                if b not in adj[a]:
                    return None
    return elim


def is_chordal(g: MultiGraph) -> bool:
    """Chordality via the maximum-cardinality-search perfect-elimination test."""
    _require_simple(g, "is_chordal")
    return _peo(g) is not None


def _maximal_cliques_chordal(g: MultiGraph, elim: list[int]) -> list[frozenset[int]]:
    adj = g.adjacency_sets()
    rank = {v: i for i, v in enumerate(elim)}
    candidates = []
    for v in elim:
        c = frozenset({v} | {u for u in adj[v] if rank[u] > rank[v]})
        candidates.append(c)
    cliques = []
    for c in candidates:
        if not any(c < other for other in candidates):
            if c not in cliques:
                cliques.append(c)
    return cliques


def _consecutive_arrangement_exists(cliques: list[frozenset[int]]) -> bool:
    """Can the cliques be ordered so each vertex's cliques are consecutive?"""
    k = len(cliques)
    remaining = Counter()
    for c in cliques:
        for v in c:
            remaining[v] += 1
    used = [False] * k

    def rec(depth: int, prev: frozenset[int], closed: frozenset[int]) -> bool:
        if depth == k:
            return True
        for i in range(k):
            if used[i]:
                continue
            c = cliques[i]
            if c & closed:
                continue
            dropped = prev - c
            if any(remaining[v] > 0 for v in dropped):
                continue
            used[i] = True
            for v in c:
                remaining[v] -= 1
            if rec(depth + 1, c, closed | dropped):
                return True
            used[i] = False
            for v in c:
                remaining[v] += 1
        return False

    return rec(0, frozenset(), frozenset())


def is_interval(g: MultiGraph, cap: int = 64) -> bool:
    """Interval recognition: chordal, plus a consecutive arrangement of the
    maximal cliques (the clique-matrix consecutive-ones characterization)."""
    _require_simple(g, "is_interval")
    _check_cap(g.n, cap, "is_interval")
    elim = _peo(g)
    if elim is None:
        return False
    if g.n == 0:
        return True
    cliques = _maximal_cliques_chordal(g, elim)
    return _consecutive_arrangement_exists(cliques)


def _has_claw(g: MultiGraph) -> bool:
    adj = g.adjacency_sets()
    for center in range(g.n):
        nbrs = sorted(adj[center])
        for a, b, c in itertools.combinations(nbrs, 3):
            if b not in adj[a] and c not in adj[a] and c not in adj[b]:
                return True
    return False


def is_proper_interval(g: MultiGraph, cap: int = 64) -> bool:
    """Proper interval = interval and claw-free."""
    _require_simple(g, "is_proper_interval")
    _check_cap(g.n, cap, "is_proper_interval")
    return is_interval(g, cap=cap) and not _has_claw(g)


def is_threshold(g: MultiGraph) -> bool:
    """Threshold test by iterated removal of an isolated or dominating vertex."""
    _require_simple(g, "is_threshold")
    adj = g.adjacency_sets()
    remaining = set(range(g.n))
    while len(remaining) > 1:
        for v in sorted(remaining):
            deg = len(adj[v] & remaining)
            if deg == 0 or deg == len(remaining) - 1:
                remaining.discard(v)
                break
        else:
            return False
    return True


def is_trivially_perfect(g: MultiGraph, cap: int = 32) -> bool:
    """Trivially perfect = no induced P4 and no induced C4 (exhaustive search)."""
    _require_simple(g, "is_trivially_perfect")
    _check_cap(g.n, cap, "is_trivially_perfect")
    adj = g.adjacency_sets()
    for quad in itertools.combinations(range(g.n), 4):
        deg = [sum(1 for u in quad if u != v and u in adj[v]) for v in quad]
        k = sum(deg) // 2
        if k == 4 and all(x == 2 for x in deg):
            return False  # induced C4
        if k == 3 and sorted(deg) == [1, 1, 2, 2]:
            return False  # induced P4
    return True


def is_chain(h: BipartiteGraph) -> bool:
    """Chain graph test: A-side neighborhoods are nested under some order."""
    nbrs = sorted(h.a_neighborhoods(), key=len)
    for small, big in zip(nbrs, nbrs[1:]):
        if not small <= big:
            return False
    return True


_RECOGNIZERS = {
    "chordal": is_chordal,
    "interval": is_interval,
    "proper_interval": is_proper_interval,
    "threshold": is_threshold,
    "trivially_perfect": is_trivially_perfect,
}


def recognizer_for(cls: str):
    try:
        return _RECOGNIZERS[cls]
    except KeyError:
        raise DomainError(
            f"unknown graph class {cls!r}; expected one of {sorted(_RECOGNIZERS)}"
        ) from None


def min_completion_exact(
    g: MultiGraph,
    cls: str,
    max_added: int | None = None,
    cap_missing: int = 24,
) -> SolveResult:
    """Brute-force minimum completion into a Table-1 class.

    Tries added-edge subsets in increasing size, so it is exact whenever it
    returns; only usable at toy sizes.
    """
    _require_simple(g, "min_completion_exact")
    recog = recognizer_for(cls)
    present = {(u, v) for u, v, _ in g.edges}
    missing = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in present
    ]
    _check_cap(len(missing), cap_missing, "min_completion_exact candidates")
    limit = len(missing) if max_added is None else min(max_added, len(missing))
    for k in range(limit + 1):
        for combo in itertools.combinations(missing, k):
            candidate = MultiGraph(g.n, g.edges + tuple(combo))
            if recog(candidate):
                return SolveResult(k, tuple(combo))
    raise CapExceededError(
        f"no {cls} completion within {limit} added edges"
    )
