"""Differential tests of the subset-table kernels against brute force."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain.bitops import (
    cut_weight_table,
    mask_to_side_tuple,
    neighbourhood_table,
    popcount_table,
)
from gapchain.errors import CapExceededError
from gapchain.model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    MultiGraph,
    VertexPartition,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)
from gapchain.oracle import (
    _assignment_counts,
    _fill_cost_tables,
    is_chain,
    is_chordal,
    min_chain_completion_exact,
    min_completion_exact,
    min_fill_in_exact,
    min_fvs_exact,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def multigraphs(draw, n_max=10):
    n = draw(st.integers(0, n_max))
    if n == 0:
        return MultiGraph(0)
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 4)), max_size=25))
    return MultiGraph(n, edges)


@st.composite
def formulas(draw):
    n = draw(st.integers(1, 10))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=6), max_size=8))
    if draw(st.booleans()):
        polarity = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        clauses.append(list(zip(range(n), polarity)))
    return CnfFormula(n, [tuple(c) for c in clauses])


@SETTINGS
@given(multigraphs())
def test_cut_weight_table_matches_cut_size(g):
    table = cut_weight_table(g)
    assert table.dtype == np.int64 and table.shape == (1 << g.n,)
    for mask in range(1 << g.n):
        side = VertexPartition(mask_to_side_tuple(mask, g.n))
        assert table[mask] == cut_size(g, side)


@SETTINGS
@given(multigraphs())
def test_neighbourhood_table_matches_adjacency(g):
    n = g.n
    table = neighbourhood_table(g)
    assert table.dtype == np.int64 and table.shape == (1 << n,)
    for mask in range(1 << n):
        side = mask_to_side_tuple(mask, n)
        want = {v for u, v, _ in g.edges if side[u]} | {u for u, v, _ in g.edges if side[v]}
        assert mask_to_side_tuple(int(table[mask]), n) == tuple(v in want for v in range(n))


@pytest.mark.parametrize("n", range(17))
def test_popcount_table_matches_bit_count(n):
    pc = popcount_table(n)
    assert pc.dtype == np.uint8
    assert pc.tolist() == [mask.bit_count() for mask in range(1 << n)]


@SETTINGS
@given(formulas())
def test_assignment_counts_match_evaluators(f):
    n = f.var_count
    sat = _assignment_counts(f, nae=False)
    nae = _assignment_counts(f, nae=True)
    assert sat.dtype == nae.dtype == np.int32
    for mask in range(1 << n):
        a = Assignment(tuple(bool((mask >> (n - 1 - v)) & 1) for v in range(n)))
        assert sat[mask] == count_satisfied(f, a)
        assert nae[mask] == count_nae_satisfied(f, a)


def test_assignment_counts_repeated_variables():
    # (x0 or x0), (x1 or not x1), NAE(x2, x2, not x2), one clause over all five
    f = CnfFormula(5, [
        ((0, True), (0, True)),
        ((1, True), (1, False)),
        ((2, True), (2, True), (2, False)),
        tuple((v, v % 2 == 0) for v in range(5)),
    ])
    for nae, evaluate in ((False, count_satisfied), (True, count_nae_satisfied)):
        counts = _assignment_counts(f, nae)
        for mask in range(32):
            a = Assignment(tuple(bool((mask >> (4 - v)) & 1) for v in range(5)))
            assert counts[mask] == evaluate(f, a)


def _chain_by_permutations(h: BipartiteGraph):
    """The optimum over all left orders, and the completion of the first
    optimal order in lexicographic order."""
    b_nbrs = h.b_neighborhoods()
    best = None
    for perm in itertools.permutations(range(h.a_size)):
        pos = {a: i for i, a in enumerate(perm)}
        edges = []
        for b, nbrs in enumerate(b_nbrs):
            if nbrs:
                earliest = min(pos[a] for a in nbrs)
                edges += [(a, b) for a in perm[earliest:] if a not in nbrs]
        if best is None or len(edges) < len(best):
            best = edges
    return len(best), tuple(sorted(best))


def test_chain_completion_matches_permutation_loop():
    rng = random.Random(20)
    for _ in range(150):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        pool = [(x, y) for x in range(a) for y in range(b)]
        h = BipartiteGraph(a, b, rng.sample(pool, rng.randint(0, len(pool))))
        res = min_chain_completion_exact(h)
        assert (res.value, res.witness) == _chain_by_permutations(h)
        assert len(res.witness) == res.value
        assert is_chain(BipartiteGraph(a, b, h.edges + res.witness))


def test_chain_completion_cap():
    with pytest.raises(CapExceededError):
        min_chain_completion_exact(BipartiteGraph(21, 1, [(0, 0)]))


def _peak_bytes(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tables_build_without_full_size_temporaries():
    rng = random.Random(7)
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    g = MultiGraph(20, rng.sample(pairs, 60))
    for build in (lambda: cut_weight_table(g), lambda: popcount_table(20)):
        table, peak = _peak_bytes(build)
        assert peak <= 1.05 * table.nbytes


# ---------------------------------------------------------------------------
# Minimum fill-in: the suffix DP on component-neighbourhood tables against the
# fill-counting DP it replaced, and against chord-subset brute force
# ---------------------------------------------------------------------------


def _components_within(adj, mask):
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


def _fill_in_by_deficiency(g: MultiGraph):
    """The replaced oracle: h[X] = least fill still to come once X is
    eliminated, each step paying the fill pairs among the eliminated vertex's
    neighbours in G_X; the lexicographically first optimal order is then
    simulated for the witness. Vertex v is bit v here."""
    n = g.n
    if n == 0:
        return 0, ()
    adj = [0] * n
    for u, v, _ in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1

    def reach(a, comps):
        out = adj[a]
        for comp in comps:
            if adj[a] & comp:
                c = comp
                while c:
                    y = (c & -c).bit_length() - 1
                    c &= c - 1
                    out |= adj[y]
        return out

    def deficiency(v, mask, comps):
        rest = reach(v, comps) & ~mask & ~(1 << v)
        cnt = 0
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cnt += (rest & ~reach(a, comps)).bit_count()
        return cnt

    h = [0] * (full + 1)
    comps_of = {}
    for mask in sorted(range(full), key=lambda x: -x.bit_count()):
        comps_of[mask] = comps = _components_within(adj, mask)
        h[mask] = min(
            deficiency(v, mask, comps) + h[mask | 1 << v]
            for v in range(n)
            if not mask >> v & 1
        )
    order, mask = [], 0
    for _ in range(n):
        v = next(
            v for v in range(n)
            if not mask >> v & 1
            and deficiency(v, mask, comps_of[mask]) + h[mask | 1 << v] == h[mask]
        )
        order.append(v)
        mask |= 1 << v
    cur = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        cur[u].add(v)
        cur[v].add(u)
    alive, fill = set(range(n)), []
    for v in order:
        nbrs = sorted(cur[v] & alive)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b not in cur[a]:
                    cur[a].add(b)
                    cur[b].add(a)
                    fill.append((a, b))
        alive.discard(v)
    assert len(fill) == h[0]
    return h[0], tuple(sorted(fill))


def _labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield MultiGraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@pytest.mark.parametrize("n", range(6))
def test_fill_in_matches_deficiency_dp_and_brute_force_exhaustively(n):
    for g in _labeled_graphs(n):
        res = min_fill_in_exact(g)
        assert (res.value, res.witness) == _fill_in_by_deficiency(g), g.edges
        assert res.value == min_completion_exact(g, "chordal").value, g.edges


@st.composite
def simple_graphs(draw, n_min, n_max):
    n = draw(st.integers(n_min, n_max))
    pairs = list(itertools.combinations(range(n), 2))
    return MultiGraph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


@SETTINGS
@given(simple_graphs(6, 11))
def test_fill_in_matches_deficiency_dp(g):
    res = min_fill_in_exact(g)
    assert (res.value, res.witness) == _fill_in_by_deficiency(g)
    assert is_chordal(MultiGraph(g.n, g.edges + res.witness))


def test_fill_in_matches_chord_subset_brute_force_at_six():
    rng = random.Random(11)
    pairs = list(itertools.combinations(range(6), 2))
    for _ in range(150):
        g = MultiGraph(6, rng.sample(pairs, rng.randint(0, len(pairs))))
        assert min_fill_in_exact(g).value == min_completion_exact(g, "chordal").value, g.edges


def test_fill_in_cap():
    # a chordal supergraph of K_{a,b} fills every pair of one side, since
    # x y x' y' is a 4-cycle for any two pairs xx' and yy'
    k = MultiGraph(20, [(x, 10 + y) for x in range(10) for y in range(10)])
    res = min_fill_in_exact(k)
    assert res.value == 45 == len(res.witness)
    assert is_chordal(MultiGraph(20, k.edges + res.witness))
    with pytest.raises(CapExceededError):
        min_fill_in_exact(MultiGraph(21, [(0, 1)]))


def test_fill_cost_tables_memory():
    n = 18
    rng = random.Random(3)
    g = MultiGraph(n, rng.sample(list(itertools.combinations(range(n), 2)), 45))
    cost, peak = _peak_bytes(lambda: _fill_cost_tables(g))
    assert cost.dtype == np.uint8 and cost.shape == (n, 1 << n)
    # the uint8 costs and the int64 N table; per vertex, three int64 working
    # arrays over the 2^(n-1) prefixes holding it, a bool and a uint8 row over
    # them, and 64 KiB for small objects
    half = 1 << (n - 1)
    working = 3 * 8 * half + 2 * half + (1 << 16)
    assert peak <= cost.nbytes + 8 * (1 << n) + working


# ---------------------------------------------------------------------------
# Feedback vertex set: the suffix DP against the subset enumerator it replaced
# ---------------------------------------------------------------------------


def _is_acyclic(succ, alive, n):
    indeg = [0] * n
    for u in range(n):
        if alive[u]:
            for v in succ[u]:
                if alive[v]:
                    indeg[v] += 1
    stack = [v for v in range(n) if alive[v] and indeg[v] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in succ[u]:
            if alive[v]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
    return seen == sum(alive)


def _fvs_by_combinations(d: Digraph):
    """The replaced oracle: looped vertices are forced, then the other
    vertices are tried in itertools.combinations order by increasing size,
    each candidate checked by Kahn's algorithm."""
    n = d.n
    forced = sorted({u for u, v, _ in d.arcs if u == v})
    rest = [v for v in range(n) if v not in forced]
    succ = [[] for _ in range(n)]
    for u, v, _ in d.arcs:
        if u != v and v not in succ[u]:
            succ[u].append(v)
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            alive = [v not in forced and v not in combo for v in range(n)]
            if _is_acyclic(succ, alive, n):
                witness = tuple(sorted(forced + list(combo)))
                return len(witness), witness
    raise AssertionError("removing every vertex leaves an acyclic graph")


def _digraphs(n, loops):
    arcs = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
    for mask in range(1 << len(arcs)):
        yield Digraph(n, [a for i, a in enumerate(arcs) if mask >> i & 1])


@pytest.mark.parametrize(
    "n, loops", [(0, True), (1, True), (2, True), (3, True), (4, False)]
)
def test_fvs_matches_combinations_exhaustively(n, loops):
    for d in _digraphs(n, loops):
        res = min_fvs_exact(d)
        assert (res.value, res.witness) == _fvs_by_combinations(d), d.arcs


@st.composite
def digraphs(draw, n_min, n_max):
    n = draw(st.integers(n_min, n_max))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)), max_size=3 * n))
    return Digraph(n, arcs)


@SETTINGS
@given(digraphs(5, 10))
def test_fvs_matches_combinations(d):
    res = min_fvs_exact(d)
    assert (res.value, res.witness) == _fvs_by_combinations(d)


def test_fvs_at_its_cap():
    # six bidirected triangles need two vertices each and a 2-cycle one more,
    # so the enumerator tried every set of up to 12 of the 20 vertices
    arcs = [(t + x, t + y) for t in range(0, 18, 3) for x in range(3) for y in range(3) if x != y]
    d = Digraph(20, arcs + [(18, 19), (19, 18)])
    start = time.perf_counter()
    res = min_fvs_exact(d)
    assert time.perf_counter() - start < 2.0
    assert res.value == 13
    assert res.witness == (0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18)
    with pytest.raises(CapExceededError):
        min_fvs_exact(Digraph(21, []))
