"""Differential tests of the subset-table kernels against brute force."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain.bitops import cut_weight_table, mask_to_side_tuple, popcount_table
from gapchain.errors import CapExceededError
from gapchain.model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    MultiGraph,
    VertexPartition,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)
from gapchain.oracle import _assignment_counts, is_chain, min_chain_completion_exact

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
