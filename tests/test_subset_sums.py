"""The sparse subset-sum kernel, and the SAT and NAE tables built on it,
against direct sums, the replaced per-clause tables and brute force."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import cli
from gapchain.bitops import mask_to_side_tuple, subset_sums
from gapchain.model import Assignment, CnfFormula, count_nae_satisfied, count_satisfied
from gapchain.oracle import _assignment_counts, _unsat_terms, max_nae_exact, max_sat_exact

SETTINGS = settings(max_examples=60, deadline=None)


def _direct_subset_sums(n, masks, weights):
    return [sum(w for s, w in zip(masks, weights) if s & ~mask == 0) for mask in range(1 << n)]


def _reference_assignment_counts(f: CnfFormula, nae: bool) -> np.ndarray:
    """The replaced table: one broadcast pass over all 2^n cells per clause.

    Variable v is axis v of counts viewed as (2,)*n. Each clause adds a small
    table over its own variables and the ten lowest ones (so the inner loop
    stays long), broadcast over all the others.
    """
    n = f.var_count
    counts = np.zeros(1 << n, dtype=np.min_scalar_type(f.m))
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
        view += table.astype(counts.dtype).reshape([1, 2] * k + [1])
    return counts


@st.composite
def sparse_terms(draw):
    """(n, masks, weights, bound, sums): terms whose sums all lie in
    0..bound, though their weights and partial sums may not."""
    n = draw(st.integers(0, 10))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    weights = draw(st.lists(st.integers(-300, 300), min_size=len(masks), max_size=len(masks)))
    # a term at the empty mask lifts every sum to 0 or more
    masks.append(0)
    weights.append(-min(_direct_subset_sums(n, masks, weights + [0])))
    sums = _direct_subset_sums(n, masks, weights)
    bound = max(sums) + draw(st.sampled_from([0, 1, 255, 70_000]))
    return n, masks, weights, bound, sums


@SETTINGS
@given(sparse_terms())
def test_subset_sums_match_direct_sums(case):
    n, masks, weights, bound, sums = case
    got = subset_sums(n, np.array(masks, dtype=np.uint32), np.array(weights), bound)
    assert got.dtype == np.min_scalar_type(bound) and got.tolist() == sums


@pytest.mark.parametrize("n", range(5))
def test_subset_sums_of_no_terms(n):
    got = subset_sums(n, np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.int8), 0)
    assert got.dtype == np.uint8 and got.tolist() == [0] * (1 << n)


def test_subset_sums_add_repeated_masks():
    got = subset_sums(3, np.array([5, 5, 5, 1, 5]), np.array([1, 1, 1, 2, -1]), 4)
    assert got.tolist() == [0, 2, 0, 2, 0, 4, 0, 4]


def test_subset_sums_whose_partial_sums_wrap():
    # 250 + 250 wraps in uint8 on the way to 250 at mask 3; -250 is cast with a wrap
    got = subset_sums(2, np.array([1, 2, 3]), np.array([250, 250, -250]), 255)
    assert got.dtype == np.uint8 and got.tolist() == [0, 250, 250, 250]


@pytest.mark.parametrize("count, dtype", [(255, np.uint8), (256, np.uint16)])
def test_subset_sums_at_the_edge_of_uint8(count, dtype):
    # count terms at the empty mask: every sum is count
    got = subset_sums(4, np.zeros(count, dtype=np.uint32), np.ones(count, dtype=np.int8), count)
    assert got.dtype == dtype and got.tolist() == [count] * 16


def _awkward_formula(n, rng):
    """Random 3-clauses, with a repeated variable, a tautology, single-literal
    clauses of both polarities and a clause over every variable."""
    clauses = [tuple((rng.randrange(n), rng.random() < 0.5) for _ in range(3)) for _ in range(2 * n)]
    clauses += [
        ((0, True), (0, True), (n - 1, False)),
        ((n - 1, True), (n - 1, False)),
        ((0, False),),
        ((n // 2, True),),
        tuple((v, rng.random() < 0.5) for v in range(n)),
    ]
    return CnfFormula(n, clauses)


@pytest.mark.parametrize("n", range(1, 9))
def test_assignment_counts_match_reference_exhaustively(n):
    rng = random.Random(n)
    for f in [_awkward_formula(n, rng) for _ in range(6)] + [CnfFormula(n, ())]:
        for nae, evaluate in ((False, count_satisfied), (True, count_nae_satisfied)):
            counts = _assignment_counts(f, nae)
            want = _reference_assignment_counts(f, nae)
            assert counts.dtype == want.dtype and counts.tolist() == want.tolist()
            for mask in range(1 << n):
                assert counts[mask] == evaluate(f, Assignment(mask_to_side_tuple(mask, n)))


@st.composite
def formulas_near_uint8_edge(draw):
    n = draw(st.integers(1, 14))
    m = draw(st.one_of(st.integers(0, 12), st.integers(250, 262)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    width = draw(st.sampled_from([3, 4, n]))
    clauses = [
        tuple((rng.randrange(n), rng.random() < 0.5) for _ in range(rng.randint(1, width)))
        for _ in range(m)
    ]
    return CnfFormula(n, clauses)


@settings(max_examples=40, deadline=None)
@given(formulas_near_uint8_edge())
def test_assignment_counts_match_reference(f):
    for nae in (False, True):
        counts = _assignment_counts(f, nae)
        want = _reference_assignment_counts(f, nae)
        assert counts.dtype == want.dtype and counts.tolist() == want.tolist()


def test_wide_clauses_are_summed_over_several_batches():
    # each clause over all 11 variables has 2^11 terms; the all-negative ones
    # only in the NAE table, as its all-true product
    rng = random.Random(11)
    clauses = [tuple((v, True) for v in range(11)), tuple((v, False) for v in range(11))] * 3
    clauses += [tuple((v, rng.random() < 0.5) for v in range(11)) for _ in range(4)]
    f = CnfFormula(11, clauses)
    for nae in (False, True):
        assert len(list(_unsat_terms(f, nae))) > 1
        assert _assignment_counts(f, nae).tolist() == _reference_assignment_counts(f, nae).tolist()


@SETTINGS
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 3, 12]))
def test_oracles_take_the_smallest_optimal_mask(n, seed, m):
    rng = random.Random(seed)
    clauses = [tuple((rng.randrange(n), rng.random() < 0.5) for _ in range(rng.randint(1, 3))) for _ in range(m)]
    f = CnfFormula(n, clauses)
    for oracle, evaluate in ((max_sat_exact, count_satisfied), (max_nae_exact, count_nae_satisfied)):
        values = [evaluate(f, Assignment(mask_to_side_tuple(mask, n))) for mask in range(1 << n)]
        best = max(values)
        res = oracle(f)
        assert res.value == best
        assert res.witness == Assignment(mask_to_side_tuple(values.index(best), n))


def test_nae_ties_with_the_complement_take_the_smaller_mask():
    # NAE counts are the same at a mask and its complement; with no clauses
    # every assignment ties
    f = CnfFormula(4, [((0, True), (1, True)), ((2, False), (3, True)), ((1, True), (3, False))])
    res = max_nae_exact(f)
    assert (res.value, res.witness) == (3, Assignment((False, True, True, True)))
    assert max_sat_exact(CnfFormula(3, ())).witness == Assignment((False,) * 3)


def test_nae_table_stays_near_its_one_byte_cells():
    # 2^20 uint8 counts are 1 MiB; the terms and the (2^11, D) array add under
    # 0.15 MiB, where transposing a second full-size table reached 2.03 MiB
    f = cli.gen_e3cnf(20, 100, 12)
    tracemalloc.start()
    try:
        max_nae_exact(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_a_clause_over_every_variable_is_expanded_in_batches():
    # one all-positive clause over 20 variables has 2^20 terms, about 30 MiB
    # at once; in batches of at most 2^17 the table and a batch stay small
    base = cli.gen_e3cnf(20, 100, 12)
    f = CnfFormula(20, base.clauses + (tuple((v, True) for v in range(20)),))
    tracemalloc.start()
    try:
        res = max_sat_exact(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == max_sat_exact(base).value + 1  # some optimum of base sets a variable
    assert peak < 8 * 2**20
