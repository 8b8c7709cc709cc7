"""Differential tests of the subset-table kernels against brute force."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import oracle
from gapchain.bitops import (
    _fill_by_doubling,
    _signed_dtype,
    bitpos,
    cut_weight_blocks,
    cut_weight_table,
    mask_to_side_tuple,
    masks_by_popcount,
    neighbourhood_table,
    popcount_table,
)
from gapchain.errors import CapExceededError
from gapchain.expander import cheeger_exact
from gapchain.model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    MultiGraph,
    Ordering,
    VertexPartition,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)
from gapchain.oracle import (
    SolveResult,
    _assignment_counts,
    _fill_cost_tables,
    is_chain,
    is_chordal,
    max_cut_exact,
    min_bisection_exact,
    min_chain_completion_exact,
    min_completion_exact,
    min_fas_exact,
    min_fill_in_exact,
    min_fvs_exact,
    ola_exact,
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


def _full_cut_weight_table(g):
    """The replaced builder: T[mask] for all 2^n masks, vertex 0's side too."""
    n = g.n
    table = np.zeros(1 << n, dtype=np.int64)
    w = np.zeros((n, n), dtype=np.int64)
    w[g.u, g.v] = g.mult
    w[g.v, g.u] = g.mult
    np.fill_diagonal(w, 0)
    wdeg = w.sum(axis=1)
    for b in range(n):
        u = n - 1 - b
        hi = _fill_by_doubling(table[1 << b : 2 << b], wdeg[u], -2 * w[u, ::-1][:b])
        hi += table[: 1 << b]
    return table


@SETTINGS
@given(multigraphs())
def test_cut_weight_table_matches_cut_size(g):
    n = g.n
    table = cut_weight_table(g)
    # at most 25 edges of multiplicity at most 4: every cut fits in int8
    assert table.dtype == np.int8 and table.shape == (1 << max(n - 1, 0),)
    # the masks holding vertex 0 read the mirror: 2^(n-1) + r against 2^(n-1) - 1 - r
    full = np.concatenate((table, table[::-1]))[: 1 << n]
    for mask in range(1 << n):
        side = VertexPartition(mask_to_side_tuple(mask, n))
        assert full[mask] == cut_size(g, side)
    assert full.tolist() == _full_cut_weight_table(g).tolist()


@pytest.mark.parametrize(
    "g, want",
    [
        (MultiGraph(0), [0]),
        (MultiGraph(1), [0]),
        (MultiGraph(1, [(0, 0, 5)]), [0]),
        (MultiGraph(2, [(0, 1, 3), (1, 1, 2)]), [0, 3]),
    ],
)
def test_cut_weight_table_below_three_vertices(g, want):
    assert cut_weight_table(g).tolist() == want
    for bits in range(3):
        assert _streamed(g, bits).tolist() == want


@pytest.mark.parametrize(
    "total, dtype",
    [
        (127, np.int8),
        (128, np.int16),
        (32767, np.int16),
        (32768, np.int32),
        (2**31 - 1, np.int32),
        (2**31, np.int64),
        (2**63 - 1, np.int64),
    ],
)
def test_cut_tables_at_the_bounds_of_each_type(total, dtype):
    # the heavy edge's step -2w leaves the narrow type; loops never cross and
    # do not widen it
    edges = [(0, 1, total - 10), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4)]
    if total < 2**62:
        edges.append((2, 2, 1000))
    g = MultiGraph(6, edges)
    table = cut_weight_table(g)
    assert table.dtype == dtype
    full = _full_cut_weight_table(g)
    assert np.concatenate((table, table[::-1])).tolist() == full.tolist()
    for mask in range(64):
        assert full[mask] == cut_size(g, VertexPartition(mask_to_side_tuple(mask, 6)))
    half, pc = full[:32], popcount_table(6)
    cut = max_cut_exact(g)
    assert (cut.value, cut.witness.side) == (total, mask_to_side_tuple(int(np.argmax(half)), 6))
    balanced = np.flatnonzero(pc[:32] == 3)
    want = int(balanced[np.argmin(full[balanced])])
    bis = min_bisection_exact(g)
    assert (bis.value, bis.witness.side) == (int(full[want]), mask_to_side_tuple(want, 6))
    assert cheeger_exact(g) == min(Fraction(int(full[pc == k].min()), k) for k in (1, 2, 3))
    # the heavy edge's end, vertex 1, is a high bit of every narrower block
    for bits in range(5):
        assert _streamed(g, bits).tolist() == half.tolist()
        assert _cut_oracles_in_blocks(g, bits) == [cut, bis]


def into_vertex_tables(d: Digraph) -> np.ndarray:
    """The replaced in-arc tables: W[v][mask] = total weight of arcs (u -> v)
    with u in mask, loops skipped, in the narrowest signed type holding the
    largest in-weight. Each row is built by doubling from the low bit up."""
    n = d.n
    w = np.zeros((n, n), dtype=np.int64)
    keep = d.u != d.v
    # w[v, i] = weight of the arc into v from the vertex at bit i; pairs are
    # distinct, so each assignment places one multiplicity
    w[d.v[keep], bitpos(n, d.u[keep])] = d.mult[keep]
    # every in-weight is at most d.m, inside int64
    w = w.astype(_signed_dtype(int(w.sum(axis=1).max(initial=0))))
    tables = np.empty((n, 1 << n), dtype=w.dtype)
    for v in range(n):
        _fill_by_doubling(tables[v], 0, w[v])
    return tables


def _reference_min_fas(d: Digraph) -> SolveResult:
    """The replaced oracle: the kernel's callable form, reading the in-arc
    tables at the flat index of each new prefix and its appended vertex."""
    n = d.n
    tables = into_vertex_tables(d)
    indeg = tables[:, -1]  # loops skipped
    flat = tables.reshape(-1)

    def append_cost(ys, v):
        # arcs into v from vertices not yet placed become backward
        return indeg[v] - flat.take(np.bitwise_or(ys, v << n, out=ys))

    value, order = oracle._suffix_dp(n, append_cost, d.m)
    loop_weight = int(d.mult[d.u == d.v].sum())
    return SolveResult(value + loop_weight, Ordering(tuple(order)))


@pytest.mark.parametrize(
    "heaviest, dtype",
    [(127, np.int8), (128, np.int16), (2**62, np.int64), (2**63 - 8, np.int64)],
)
def test_into_vertex_tables_at_the_bounds_of_each_type(heaviest, dtype):
    # vertex 1 takes the heaviest in-weight from two arcs; a loop is skipped.
    # At 2^63 - 8 the arcs total 2^63 - 1, the most a digraph may hold
    arcs = [(0, 1, heaviest - 3), (2, 1, 3), (1, 3, 2), (3, 0, 1), (3, 3, 4)]
    d = Digraph(4, arcs)
    tables = into_vertex_tables(d)
    assert tables.dtype == dtype
    for mask in range(16):
        side = mask_to_side_tuple(mask, 4)
        for v in range(4):
            want = sum(mult for a, b, mult in d.arcs if b == v and a != v and side[a])
            assert tables[v][mask] == want
    if heaviest < 2**62:
        best = min(itertools.permutations(range(4)), key=lambda p: oracle.backward_arc_weight(d, Ordering(p)))
        res = min_fas_exact(d)
        assert (res.value, res.witness.perm) == (oracle.backward_arc_weight(d, Ordering(best)), best)
        assert res == _reference_min_fas(d)


@pytest.mark.parametrize("m, dtype", [(255, np.uint8), (256, np.uint16)])
def test_assignment_counts_at_the_bounds_of_each_type(m, dtype):
    rng = random.Random(m)
    clauses = [
        tuple((rng.randrange(5), rng.random() < 0.5) for _ in range(rng.randint(1, 3)))
        for _ in range(m)
    ]
    f = CnfFormula(5, clauses)
    for nae, evaluate in ((False, count_satisfied), (True, count_nae_satisfied)):
        counts = _assignment_counts(f, nae)
        assert counts.dtype == dtype
        for mask in range(32):
            assert counts[mask] == evaluate(f, Assignment(mask_to_side_tuple(mask, 5)))
    # every clause holds under the all-true assignment when all are positive
    positive = CnfFormula(5, [((i % 5, True),) for i in range(m)])
    counts = _assignment_counts(positive, nae=False)
    assert counts.dtype == dtype and int(counts[-1]) == m


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
    assert sat.dtype == nae.dtype == np.uint8  # at most 9 clauses
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
    # one byte a cell: int8 cuts (m = 60) and uint8 counts, so a table built
    # in int64 and narrowed, or left in int64, breaks the bound
    for build, cells in ((lambda: cut_weight_table(g), 1 << 19), (lambda: popcount_table(20), 1 << 20)):
        _, peak = _peak_bytes(build)
        assert peak <= 1.05 * cells


def _cut_oracles_on_full_table(g):
    """Max cut, min bisection (even n), arrangement and the Cheeger number as
    the oracles read them off the replaced full table."""
    n = g.n
    full, pc = _full_cut_weight_table(g), popcount_table(n)
    half = full[: max(1 << n >> 1, 1)]
    best = int(np.argmax(half))
    got = [(int(half[best]), mask_to_side_tuple(best, n))]
    if n % 2 == 0:
        candidates = np.flatnonzero(pc[: half.size] == n // 2)
        mask = int(candidates[np.argmin(full[candidates])])
        got.append((int(full[mask]), mask_to_side_tuple(mask, n)))
    got.append(oracle._suffix_dp(n, full, (n - 1) * g.m))
    sizes = range(1, n // 2 + 1)
    return got + [min((Fraction(int(full[pc == k].min()), k) for k in sizes), default=math.inf)]


def _cut_oracles(g):
    n = g.n
    cut = max_cut_exact(g)
    got = [(cut.value, cut.witness.side)]
    if n % 2 == 0:
        bis = min_bisection_exact(g)
        got.append((bis.value, bis.witness.side))
    arr = ola_exact(g)
    return got + [(arr.value, list(arr.witness.perm)), cheeger_exact(g)]


@SETTINGS
@given(multigraphs())
def test_cut_oracles_match_full_table(g):
    want = _cut_oracles_on_full_table(g)
    assert _cut_oracles(g) == want
    _assert_streamed_at_every_width(g, want)


@pytest.mark.parametrize("n", range(6))
def test_cut_oracles_match_full_table_on_every_simple_graph(n):
    for g in _labeled_graphs(n):
        assert _cut_oracles(g) == _cut_oracles_on_full_table(g), g.edges


def test_bisection_when_every_edge_crosses_at_the_largest_edge_count():
    # the one balanced cut is m = 2^63 - 1; the masks ruled out must still lose
    res = min_bisection_exact(MultiGraph(2, [(0, 1, 2**63 - 1)]))
    assert (res.value, res.witness.side) == (2**63 - 1, (False, True))


def test_cut_oracles_stay_near_the_half_table():
    # the int8 half cut table (m = 60) plus one half-size uint8 popcount
    # table, which the streamed max cut and bisection and the Cheeger number's
    # row scan stay under; a full 2^20 table, or a half table of any wider
    # type, would break the bound
    rng = random.Random(7)
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    g = MultiGraph(20, rng.sample(pairs, 60))
    half = 1 << 19
    for solve in (max_cut_exact, min_bisection_exact, cheeger_exact):
        _, peak = _peak_bytes(lambda: solve(g))
        assert peak <= 1.1 * (half + half), solve.__name__


def _streamed(g, bits):
    """The half cut table put together from its blocks, each checked for its
    place and size and copied before the next overwrites it."""
    parts, at = [], 0
    for start, block in cut_weight_blocks(g, bits):
        assert start == at and block.size == 1 << min(bits, max(g.n - 1, 0))
        parts.append(block.copy())
        at += block.size
    return np.concatenate(parts)


def _cut_oracles_in_blocks(g, bits):
    """Max cut and, for even n, min bisection streamed in blocks of 2^bits."""
    with mock.patch.object(oracle, "_CUT_BLOCK_BITS", bits):
        return [max_cut_exact(g)] + ([min_bisection_exact(g)] if g.n % 2 == 0 else [])


def _assert_streamed_at_every_width(g, want):
    """The streamed oracles give the first two of _cut_oracles_on_full_table's
    answers at every block width."""
    for bits in range(max(g.n - 1, 0) + 1):
        got = [(res.value, res.witness.side) for res in _cut_oracles_in_blocks(g, bits)]
        assert got == want[: 1 + (g.n % 2 == 0)], bits


@SETTINGS
@given(multigraphs(n_max=12))
def test_cut_weight_blocks_match_full_table_at_every_width(g):
    table = cut_weight_table(g)
    half = _full_cut_weight_table(g)[: table.size]
    for bits in range(g.n + 1):  # up to n - 1, then past it: one block
        got = _streamed(g, bits)
        assert got.dtype == table.dtype and got.tolist() == half.tolist(), bits


def _complete_bipartite(a):
    return MultiGraph(2 * a, [(u, a + v) for u in range(a) for v in range(a)])


@pytest.mark.parametrize(
    "g",
    [MultiGraph(n) for n in range(9)] + [_complete_bipartite(a) for a in range(1, 5)],
    ids=[f"empty{n}" for n in range(9)] + [f"K{a},{a}" for a in range(1, 5)],
)
def test_streamed_cut_oracles_keep_the_first_optimum_across_blocks(g):
    # every cut of an empty graph ties, and K_{a,a}'s balanced cuts tie by the
    # count taken from each side, so the ties straddle every block boundary
    _assert_streamed_at_every_width(g, _cut_oracles_on_full_table(g))


def test_streamed_cut_oracles_stay_small_at_their_cap():
    # one int8 cut table of 2^23 cells is 8 MiB; the blocks, the high
    # vertices' tables and bisection's popcount classes stay under 2 MiB
    rng = random.Random(7)
    pairs = [(u, v) for u in range(24) for v in range(u + 1, 24)]
    g = MultiGraph(24, rng.sample(pairs, 120))
    for solve in (max_cut_exact, min_bisection_exact):
        _, peak = _peak_bytes(lambda: solve(g))
        assert peak < 2 << 20, solve.__name__


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
# Feedback vertex set: the acyclic-set table against the subset enumerator
# and the Held-Karp DP over vertex orders that it replaced in turn
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


def _fvs_on_kernel(d: Digraph) -> SolveResult:
    """The replaced Held-Karp oracle: appending v to a prefix costs 1 when v
    has an in-arc from a vertex not yet placed, itself included through a
    loop, and the vertices that pay in the lexicographically smallest optimal
    order are the witness."""
    n = d.n
    into = np.zeros(n, dtype=np.int64)
    for u, v, _ in d.arcs:
        into[v] |= 1 << (n - 1 - u)

    def append_cost(ys, v):
        return (into[v] & ~(ys ^ (1 << (n - 1 - v)))) != 0

    value, order = oracle._suffix_dp(n, append_cost, n)  # each vertex pays at most 1
    witness, placed = [], 0
    for v in order:
        if into[v] & ~placed:
            witness.append(v)
        placed |= 1 << (n - 1 - v)
    return SolveResult(value, tuple(sorted(witness)))


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
@given(digraphs(1, 8))
def test_into_vertex_tables_match_arc_sums(d):
    n = d.n
    tables = into_vertex_tables(d)
    # at most 24 arcs of multiplicity at most 3: every in-weight fits in int8
    assert tables.dtype == np.int8 and tables.shape == (n, 1 << n)
    for mask in range(1 << n):
        side = mask_to_side_tuple(mask, n)
        for v in range(n):
            want = sum(mult for a, b, mult in d.arcs if b == v and a != v and side[a])
            assert tables[v][mask] == want


@SETTINGS
@given(digraphs(5, 10))
def test_fvs_matches_combinations(d):
    res = min_fvs_exact(d)
    assert (res.value, res.witness) == _fvs_by_combinations(d)


@SETTINGS
@given(digraphs(1, 12))
def test_fvs_matches_held_karp_reference(d):
    assert min_fvs_exact(d) == _fvs_on_kernel(d)


def _bidirected_cliques(size, count, loops=()):
    """count disjoint bidirected cliques on size vertices each, in vertex
    order, plus a loop at each vertex of loops."""
    pairs = itertools.permutations(range(size), 2)
    arcs = [(t + x, t + y) for x, y in pairs for t in range(0, size * count, size)]
    return Digraph(size * count, arcs + [(v, v) for v in loops])


@pytest.mark.parametrize(
    "d, witness",
    [
        # each 2-cycle ties its two vertices: the lower one is taken
        (_bidirected_cliques(2, 1), (0,)),
        (_bidirected_cliques(2, 6), (0, 2, 4, 6, 8, 10)),
        # each bidirected triangle ties three pairs: its lower two
        (_bidirected_cliques(3, 1), (0, 1)),
        (_bidirected_cliques(3, 4), (0, 1, 3, 4, 6, 7, 9, 10)),
        # a looped vertex is forced, and settles its 2-cycle or triangle
        (_bidirected_cliques(2, 3, loops=[3]), (0, 3, 4)),
        (_bidirected_cliques(3, 2, loops=[2, 4]), (0, 2, 3, 4)),
    ],
    ids=["one_2cycle", "six_2cycles", "one_triangle", "four_triangles", "2cycles_loop", "triangles_loops"],
)
def test_fvs_ties_take_the_lexicographically_smallest_set(d, witness):
    res = min_fvs_exact(d)
    assert res == _fvs_on_kernel(d) == SolveResult(len(witness), witness)
    assert (res.value, res.witness) == _fvs_by_combinations(d)


def test_fvs_at_n18_stays_below_1_8_mib():
    # the table is 2^18 bools, 0.25 MiB, and each block of a level at most
    # 126 x 126 masks; the Held-Karp DP it replaced peaked at 1.82 MiB, and
    # a full 2^18 int64 table alone takes 2 MiB
    rng = random.Random(7)
    d = Digraph(18, rng.sample(list(itertools.permutations(range(18), 2)), 54))
    res, peak = _peak_bytes(lambda: min_fvs_exact(d))
    assert res == _fvs_on_kernel(d)
    assert peak <= 1.8 * 2**20


def test_fvs_at_its_cap():
    # six bidirected triangles need two vertices each and a 2-cycle one more,
    # so 13 of the 20 vertices: the largest acyclic sets have 7, and the
    # table stops after level 8, the first with none
    arcs = [(t + x, t + y) for t in range(0, 18, 3) for x in range(3) for y in range(3) if x != y]
    d = Digraph(20, arcs + [(18, 19), (19, 18)])
    start = time.perf_counter()
    res = min_fvs_exact(d)
    assert time.perf_counter() - start < 2.0
    assert res.value == 13
    assert res.witness == (0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18)
    with pytest.raises(CapExceededError):
        min_fvs_exact(Digraph(21, []))


# ---------------------------------------------------------------------------
# The Held-Karp kernel: the suffix DP against the one it replaced, which
# compacted each level per vertex and took every cost as a callable
# ---------------------------------------------------------------------------


def _compacting_suffix_dp(n, append_cost):
    """The replaced kernel. append_cost(sub_masks, v, bit) is the cost of
    appending v to the prefixes sub_masks, none of which holds bit."""
    size = 1 << n
    h = np.full(size, oracle._INF, dtype=np.int64)
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
        else:
            raise AssertionError("suffix DP reconstruction failed")
    return int(h[0]), order


def _matrix_as_callable(w):
    """The callable an in-weight matrix stands for: appending v to make the
    prefix ys pays w[v, u] for each u outside ys, the diagonal ignored."""
    n = len(w)
    w = np.array(w, dtype=np.int64)
    np.fill_diagonal(w, 0)
    bits = 1 << (n - 1 - np.arange(n))

    def cost(ys, v):
        outside = (np.asarray(ys)[..., None] & bits) == 0
        return (outside * w[v]).sum(axis=-1)

    return cost


def _on_compacting_kernel(n, cost):
    """The replaced kernel behind the current cost contract: a table indexed
    by the new prefix, as one array or a tuple of pieces, an in-weight
    matrix, or a callable (ys, v)."""
    if isinstance(cost, tuple):
        cost = np.concatenate(cost)
    if isinstance(cost, np.ndarray) and cost.ndim == 2:
        cost = _matrix_as_callable(cost)
    if isinstance(cost, np.ndarray):
        return _compacting_suffix_dp(n, lambda sub, v, bit: cost[sub | bit])
    return _compacting_suffix_dp(n, lambda sub, v, bit: cost(sub | bit, v))


def _dearest_order(n, cost):
    """The most any order costs: n times the dearest single append, less the
    cheapest order when each append pays what it falls short of that."""
    if isinstance(cost, tuple):
        cost = np.concatenate(cost)
    if isinstance(cost, np.ndarray) and cost.ndim == 2:
        cost = _matrix_as_callable(cost)
    if isinstance(cost, np.ndarray):
        table = cost[: 1 << n].astype(np.int64)
        top = int(table[1:].max(initial=0))
        return n * top - _on_compacting_kernel(n, top - table)[0]

    def wide(ys, v):
        return np.asarray(cost(ys, v), dtype=np.int64)

    masks = np.arange(1 << n)
    top = max((int(wide(masks[masks >> (n - 1 - v) & 1 == 1], v).max()) for v in range(n)), default=0)
    return n * top - _on_compacting_kernel(n, lambda ys, v: top - wide(ys, v))[0]


def _solve_on_both_kernels(solve, instance):
    """solve(instance) on the current kernel and on the replaced one, with
    the (optimum, order) each kernel returned. Each bound the oracle passes
    must hold: no order may cost more."""
    runs = []
    # the replaced kernel takes no bound
    for kernel in (oracle._suffix_dp, lambda n, cost, bound: _on_compacting_kernel(n, cost)):
        calls = []

        def recording(n, cost, bound, kernel=kernel, calls=calls):
            assert _dearest_order(n, cost) <= bound
            calls.append(kernel(n, cost, bound))
            return calls[-1]

        with mock.patch.object(oracle, "_suffix_dp", recording):
            res = solve(instance)
        runs.append((res.value, res.witness, calls))
    return runs


def _assert_kernels_agree(solve, instance):
    """solve gives the same on both kernels and calls the kernel once. FAS
    must also equal its reference on the kernel's callable form. FVS is off
    the kernel: it must equal its Held-Karp reference, and the reference is
    checked on both kernels in its place."""
    if solve is min_fas_exact:
        assert min_fas_exact(instance) == _reference_min_fas(instance), instance
    if solve is min_fvs_exact:
        assert min_fvs_exact(instance) == _fvs_on_kernel(instance), instance
        solve = _fvs_on_kernel
    new, old = _solve_on_both_kernels(solve, instance)
    assert new == old, instance
    assert len(new[2]) == 1


@st.composite
def weighted_instances(draw, n_max=13):
    """(n, edges) with loops, repeated pairs in both orders, and
    multiplicities up to 2^40; read as a multigraph or as a digraph."""
    n = draw(st.integers(0, n_max))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    mult = st.one_of(st.integers(1, 3), st.integers(1, 2**40))
    return n, draw(st.lists(st.tuples(vertex, vertex, mult), max_size=3 * n))


@SETTINGS
@given(weighted_instances(), st.sampled_from(["ola", "fas", "fvs"]))
def test_weighted_oracles_match_compacting_kernel(case, which):
    n, edges = case
    if which == "ola":
        _assert_kernels_agree(ola_exact, MultiGraph(n, edges))
    else:
        _assert_kernels_agree(min_fas_exact if which == "fas" else min_fvs_exact, Digraph(n, edges))


@st.composite
def bipartite_graphs(draw, a_max=13):
    a, b = draw(st.integers(0, a_max)), draw(st.integers(0, 6))
    pairs = [(x, y) for x in range(a) for y in range(b)]
    if not pairs:
        return BipartiteGraph(a, b, [])
    return BipartiteGraph(a, b, draw(st.lists(st.sampled_from(pairs), unique=True)))


@SETTINGS
@given(simple_graphs(2, 13))
def test_fill_in_matches_compacting_kernel(g):
    _assert_kernels_agree(min_fill_in_exact, g)


@SETTINGS
@given(bipartite_graphs())
def test_chain_completion_matches_compacting_kernel(h):
    _assert_kernels_agree(min_chain_completion_exact, h)


@pytest.mark.parametrize("n", range(6))
def test_kernels_agree_on_every_simple_graph(n):
    for g in _labeled_graphs(n):
        _assert_kernels_agree(ola_exact, g)
        _assert_kernels_agree(min_fill_in_exact, g)


def _digraphs_by_pair(n, choices):
    """Every digraph on n vertices taking one of choices for each pair u < v:
    no arc, u -> v, v -> u, or both."""
    pairs = list(itertools.combinations(range(n), 2))
    for picks in itertools.product(choices, repeat=len(pairs)):
        arcs = []
        for (u, v), pick in zip(pairs, picks):
            arcs += [(u, v)] * (pick in ("forward", "both")) + [(v, u)] * (pick in ("back", "both"))
        yield Digraph(n, arcs)


@pytest.mark.parametrize(
    "n, choices",
    [(n, ("none", "forward", "back", "both")) for n in range(4)]
    + [(4, ("none", "forward", "back"))],
)
def test_kernels_agree_on_every_small_digraph(n, choices):
    for d in _digraphs_by_pair(n, choices):
        _assert_kernels_agree(min_fas_exact, d)
        _assert_kernels_agree(min_fvs_exact, d)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(6) for b in range(6) if a * b <= 9])
def test_kernels_agree_on_every_small_bipartite_graph(a, b):
    pairs = [(x, y) for x in range(a) for y in range(b)]
    for mask in range(1 << len(pairs)):
        h = BipartiteGraph(a, b, [p for i, p in enumerate(pairs) if mask >> i & 1])
        _assert_kernels_agree(min_chain_completion_exact, h)


@pytest.mark.parametrize(
    "solve, instance",
    [
        (ola_exact, MultiGraph(0)),
        (ola_exact, MultiGraph(1)),
        (ola_exact, MultiGraph(1, [(0, 0, 2**40)])),
        (min_fas_exact, Digraph(0)),
        (min_fas_exact, Digraph(1, [(0, 0, 3)])),
        (min_fvs_exact, Digraph(0)),
        (min_fvs_exact, Digraph(1)),
        (min_fvs_exact, Digraph(1, [(0, 0)])),
        (min_fill_in_exact, MultiGraph(0)),
        (min_fill_in_exact, MultiGraph(1)),
        (min_chain_completion_exact, BipartiteGraph(1, 0, [])),
        (min_chain_completion_exact, BipartiteGraph(1, 3, [(0, 1)])),
    ],
)
def test_kernels_agree_below_two_vertices(solve, instance):
    _assert_kernels_agree(solve, instance)


def _tied_cost(rng, n, per_vertex):
    """Costs in 0..2, so optimal orders tie often: a table over the 2^n
    prefixes, or a callable reading one such table per vertex."""
    if not per_vertex:
        return rng.integers(0, 3, size=1 << n, dtype=np.int64)
    costs = rng.integers(0, 3, size=(max(n, 1), 1 << n), dtype=np.int64)
    return lambda ys, v: costs[v, ys]


@st.composite
def small_costs(draw, n_max=13):
    """(n, cost) for n up to 13, where the blocked kernel runs several row
    levels and several column levels."""
    n = draw(st.integers(0, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return n, _tied_cost(rng, n, draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(small_costs())
def test_suffix_dp_matches_compacting_kernel_on_tied_costs(case):
    n, cost = case
    assert oracle._suffix_dp(n, cost, 2 * n) == _on_compacting_kernel(n, cost)


def test_split_rule():
    # all rows below n = 5; the low bits never outnumber the high ones
    assert [oracle._split(n) for n in range(9)] == [0, 0, 0, 0, 0, 1, 1, 2, 2]
    assert all(0 <= 2 * oracle._split(n) <= n for n in range(25))
    assert [oracle._split(n) for n in (14, 18, 20)] == [5, 7, 8]


@pytest.mark.parametrize("n", [16, 20])
def test_suffix_dp_calls_a_callable_once_per_gather(n):
    # one call per (row level, column level) and one per row chunk, where a
    # chunk holds at least one level block of candidates; one call per
    # appended vertex, m^2 + (m + 1)k^2 of them, breaks this bound
    k = oracle._split(n)
    m = n - k
    widest = math.comb(m, m // 2)
    chunks = sum(-(-math.comb(m, j) // (widest // (m - j))) for j in range(m))
    bound = (m + 1) * k + chunks
    assert m * m + (m + 1) * k * k > bound
    gathers = []

    def cost(ys, v):
        if ys.ndim > 1:  # not the read-back
            gathers.append((ys.dtype, ys.shape, np.shape(v)))
        return (ys >> v) & 1

    oracle._suffix_dp(n, cost, n)
    assert len(gathers) <= bound
    assert sum(math.prod(shape) for _, shape, _ in gathers) == n << (n - 1)  # every append once
    assert all(dt == np.int64 and v == shape[:2] + (1,) for dt, shape, v in gathers)


@pytest.mark.parametrize("n", range(11))
def test_suffix_dp_matches_compacting_kernel_at_every_split(n):
    # the split only changes the layout, so any k from all rows (0) to one
    # row (n) must give the same optimum and order
    rng = np.random.default_rng(n)
    costs = [_tied_cost(rng, n, per_vertex) for per_vertex in (False, False, True, True)]
    bounds = [2 * n] * len(costs)
    # in-weights in 0..2 with a diagonal the kernel must ignore; an order
    # pays at most every off-diagonal weight
    for _ in range(2):
        w = rng.integers(0, 3, size=(n, n), dtype=np.int64)
        costs.append(w)
        bounds.append(int(w.sum() - np.trace(w)))
    expected = [_on_compacting_kernel(n, cost) for cost in costs]
    for k in range(n + 1):
        with mock.patch.object(oracle, "_split", lambda _n, k=k: k):
            assert [oracle._suffix_dp(n, cost, bound) for cost, bound in zip(costs, bounds)] == expected, k


@pytest.mark.parametrize("n", [4, 5])
def test_suffix_dp_on_every_zero_one_top_of_table_beside_the_first_split(n):
    # the layout goes from all rows (n = 4) to two columns (n = 5); every 0/1
    # pattern on the ten largest prefixes, the rest costing 1, ties often
    size, free = 1 << n, 10
    for bits in range(1 << free):
        table = np.ones(size, dtype=np.int64)
        table[size - free :] = (bits >> np.arange(free)) & 1
        assert oracle._suffix_dp(n, table, n) == _on_compacting_kernel(n, table), bits


@pytest.mark.parametrize("form", ["int8", "uint8", "int64", "reversed view"])
def test_suffix_dp_reads_any_integer_table_and_leaves_it_unchanged(form):
    n = 9
    costs = np.random.default_rng(3).integers(0, 3, size=1 << n, dtype=np.int64)
    expected = _on_compacting_kernel(n, costs)
    if form == "reversed view":
        table = costs[::-1].copy()[::-1]  # equal to costs, with a negative stride
        assert not table.flags.contiguous
    else:
        table = costs.astype(form)
    before = table.copy()
    assert oracle._suffix_dp(n, table, 2 * n) == expected
    assert table.dtype == before.dtype and np.array_equal(table, before)


# the largest value of each signed type and the one past it
_TYPE_EDGES = [127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31]


def _costs_every_order_at(total, n, rng, per_vertex):
    """Costs under which every order of n >= 2 vertices costs exactly total
    and the first append nothing, so that every one-vertex prefix still owes
    total: a table by popcount, or a callable charging each vertex its
    weight, the second append the first vertex's too."""
    cuts = np.sort(rng.integers(0, total + 1, size=n - 2))
    steps = np.diff(np.concatenate(([0], cuts, [total])))  # n - 1 parts of total
    if not per_vertex:
        return np.concatenate(([0, 0], steps))[popcount_table(n)]
    weights = np.zeros(n, dtype=np.int64)
    weights[rng.permutation(n)[: n - 1]] = steps
    bits = 1 << (n - 1 - np.arange(n))
    pc = popcount_table(n)

    def cost(ys, v):
        first = ((ys[..., None] & bits) != 0) @ weights - weights[v]  # at two vertices
        return np.where(pc[ys] == 1, 0, weights[v] + np.where(pc[ys] == 2, first, 0))

    return cost


def _costs_peaking_at(total, n, rng, per_vertex):
    """Tied costs in 0..2 with total - (their dearest order) added to each
    append that completes the full mask, so the dearest order costs exactly
    total and every candidate lies within 2n of it."""
    cost = _tied_cost(rng, n, per_vertex)
    shift = total - _dearest_order(n, cost)
    if not per_vertex:
        cost[-1] += shift
        return cost
    return lambda ys, v: cost(ys, v) + (ys == (1 << n) - 1) * shift


@pytest.mark.parametrize("per_vertex", [False, True], ids=["table", "callable"])
@pytest.mark.parametrize("total", _TYPE_EDGES)
def test_suffix_dp_at_the_edges_of_each_type(total, per_vertex):
    # bound = the dearest order's cost, on either side of each type's max:
    # one type too narrow wraps a stored value, and the type's max itself
    # must not read as "no candidate yet"
    n = 9
    rng = np.random.default_rng(total)
    flat = _costs_every_order_at(total, n, rng, per_vertex)
    value, order = oracle._suffix_dp(n, flat, total)
    assert (value, order) == _on_compacting_kernel(n, flat) == (total, list(range(n)))
    for _ in range(3):
        cost = _costs_peaking_at(total, n, rng, per_vertex)
        assert oracle._suffix_dp(n, cost, total) == _on_compacting_kernel(n, cost)


@pytest.mark.parametrize("total", _TYPE_EDGES)
def test_suffix_dp_on_a_matrix_at_the_edges_of_each_type(total):
    # the dearest order places the high vertex 0 before the low vertex 8,
    # which owes 0 total - x, and 8 before the high vertex 1, which 8 owes
    # x: a candidate less 0's low in-weight, or less 8's high in-weight,
    # falls below zero before the in-weight still owed is added back
    n, x = 9, total // 3
    w = np.zeros((n, n), dtype=np.int64)
    w[0, 8], w[8, 1] = total - x, x
    # a loop as heavy as the type holds: the kernel ignores it, where
    # counting it would wrap vertex 0's in-weight
    w[0, 0] = np.iinfo(_signed_dtype(total)).max
    assert oracle._split(n) == 3 and _dearest_order(n, w) == total
    # the free orders put 1 before 8 before 0; the first of them moves 0 last
    assert oracle._suffix_dp(n, w, total) == _on_compacting_kernel(n, w) == (0, [*range(1, n), 0])


def _spread(pairs, m, seed):
    """Total multiplicity m over a random sample of distinct pairs."""
    rng = random.Random(seed)
    pool = list(pairs)
    pairs = rng.sample(pool, min(m, len(pool)))
    mult = [1] * len(pairs)
    for _ in range(m - len(pairs)):
        mult[rng.randrange(len(pairs))] += 1
    return [(u, v, k) for (u, v), k in zip(pairs, mult)]


def _random_bipartite(a, b, seed):
    pairs = [(x, y) for x in range(a) for y in range(b)]
    return BipartiteGraph(a, b, random.Random(seed).sample(pairs, len(pairs) // 2))


@pytest.mark.parametrize(
    "solve, instance",
    [
        # fill-in bound n(n - 1)/2: 120 (int8) at n = 16, 136 (int16) at 17,
        # 153 at 18, where each one-vertex prefix of K18 still owes 136
        (min_fill_in_exact, MultiGraph(16, _spread(itertools.combinations(range(16), 2), 96, 1))),
        (min_fill_in_exact, MultiGraph(17, _spread(itertools.combinations(range(17), 2), 108, 2))),
        (min_fill_in_exact, MultiGraph(18, list(itertools.combinations(range(18), 2)))),
        # arrangement bound (n - 1)m
        (ola_exact, MultiGraph(2, [(0, 1, 127)])),
        (ola_exact, MultiGraph(2, [(0, 1, 128)])),
        (ola_exact, MultiGraph(5, _spread(itertools.combinations(range(5), 2), 32, 3))),
        (ola_exact, MultiGraph(9, _spread(itertools.combinations(range(9), 2), 16, 4))),
        # feedback arc set bound m; an isolated vertex first leaves all m to pay
        (min_fas_exact, Digraph(3, [(0, 1, 127)])),
        (min_fas_exact, Digraph(3, [(0, 1, 128)])),
        (min_fas_exact, Digraph(8, _spread(itertools.permutations(range(8), 2), 127, 5))),
        (min_fas_exact, Digraph(8, _spread(itertools.permutations(range(8), 2), 128, 6))),
        # a high vertex (0) whose in-weight, all from the low vertices 6 and
        # 7 of the kernel's layout at n = 8, is the bound, and a low vertex
        # (7) whose in-weight, all from high vertices, is: a candidate less
        # that in-weight reaches -bound
        (min_fas_exact, Digraph(8, [(6, 0, 64), (7, 0, 63)])),
        (min_fas_exact, Digraph(8, [(6, 0, 64), (7, 0, 64)])),
        (min_fas_exact, Digraph(8, [(0, 7, 64), (1, 7, 63)])),
        (min_fas_exact, Digraph(8, [(0, 7, 64), (1, 7, 64)])),
        # chain completion bound a * |B|
        (min_chain_completion_exact, BipartiteGraph(1, 127, [(0, y) for y in range(0, 127, 2)])),
        (min_chain_completion_exact, BipartiteGraph(8, 16, [(x, y) for x in range(8) for y in range(16)])),
        (min_chain_completion_exact, _random_bipartite(8, 16, 8)),
        (min_chain_completion_exact, _random_bipartite(4, 32, 9)),
    ],
    ids=[
        *("fill_in_n16", "fill_in_n17", "fill_in_K18"),
        *("ola_127", "ola_128", "ola_n5_m32", "ola_n9_m16"),
        *("fas_127", "fas_128", "fas_n8_m127", "fas_n8_m128"),
        *("fas_high_127", "fas_high_128", "fas_low_127", "fas_low_128"),
        *("chain_1x127", "chain_K8x16", "chain_8x16", "chain_4x32"),
    ],
)
def test_oracles_beside_a_type_switch(solve, instance):
    _assert_kernels_agree(solve, instance)


def test_ola_at_its_cap_stays_below_8_mib():
    # the bound (n - 1)m = 1,140 puts the kernel's one array in int16, 2 MiB
    # at n = 20; the half cut table takes 0.5 MiB, the four level buffers
    # 1.9 MiB and the append tables 0.4 MiB (4.8 MiB measured, 6.1 MiB when
    # this bound was set), so a DP in int32 or int64 breaks this
    rng = random.Random(7)
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    g = MultiGraph(20, rng.sample(pairs, 60))
    _, peak = _peak_bytes(lambda: ola_exact(g))
    assert peak <= 8 * 2**20


def test_fas_at_its_cap_stays_below_7_6_mib():
    # the tables of arcs into each vertex take 18 x 2^18 int8 cells, 4.5 MiB;
    # the kernel's one int8 array, its level buffers with the candidates'
    # int64 masks and the append tables take 1.3 MiB (5.79 MiB measured; the
    # bound has the arrangement bound's headroom over 6.1 MiB), so int16
    # tables or a DP in int64 break this
    rng = random.Random(7)
    pairs = [(u, v) for u in range(18) for v in range(18) if u != v]
    d = Digraph(18, rng.sample(pairs, 54))
    _, peak = _peak_bytes(lambda: min_fas_exact(d))
    assert peak <= 7.6 * 2**20


def test_fas_at_its_cap_stays_below_2_mib():
    # the in-weight matrix becomes (18, 2^11) and (18, 2^7) int8 half tables;
    # the kernel's one int8 array and its level buffers, with the candidates'
    # subtrahends in int8 too, take the rest (0.83 MiB measured), so the
    # 4.5 MiB of in-arc tables of every vertex over every mask break this
    rng = random.Random(7)
    pairs = [(u, v) for u in range(18) for v in range(18) if u != v]
    d = Digraph(18, rng.sample(pairs, 54))
    res, peak = _peak_bytes(lambda: min_fas_exact(d))
    assert res == _reference_min_fas(d)
    assert peak <= 2 * 2**20


def test_suffix_dp_on_a_matrix_at_n20_stays_below_3_5_mib():
    # past the FAS cap the int8 array is 1 MiB and the level buffers about
    # as much (2.68 MiB measured); int64 masks for the widest level's
    # candidates add 2 MiB, and an int16 DP 1 MiB more
    rng = random.Random(7)
    w = np.zeros((20, 20), dtype=np.int64)
    for u, v in rng.sample([(u, v) for u in range(20) for v in range(20) if u != v], 60):
        w[v, u] = 1
    (value, order), peak = _peak_bytes(lambda: oracle._suffix_dp(20, w, 60))
    assert peak <= 3.5 * 2**20
    d = Digraph(20, [(u, v) for v in range(20) for u in range(20) if w[v, u]])
    assert oracle.backward_arc_weight(d, Ordering(tuple(order))) == value
