import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain.cli import gen_e3cnf
from gapchain.errors import DomainError
from gapchain.model import (
    Assignment,
    CnfFormula,
    GapParams,
    MultiGraph,
    VertexPartition,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)
from gapchain.oracle import max_cut_exact, max_nae_exact, max_sat_exact
from gapchain.satchain import (
    GapInstance,
    e3sat_to_nae4sat,
    multicut_to_simplecut,
    nae3sat_to_multicut,
    nae4sat_to_nae3sat,
)

ONE_CLAUSE = CnfFormula(3, [((0, True), (1, True), (2, True))])


def gap_instance(f, alpha="0", beta="1"):
    return GapInstance(f, GapParams(Fraction(alpha), Fraction(beta)), "clauses")


def test_unit_kind_validation():
    with pytest.raises(DomainError):
        GapInstance(ONE_CLAUSE, GapParams(0, 1), "edges")
    gi = gap_instance(ONE_CLAUSE)
    assert gi.unit == 1


def test_e3sat_to_nae4sat_single_clause():
    out, lift = e3sat_to_nae4sat(gap_instance(ONE_CLAUSE))
    f = out.instance
    assert f.var_count == 4
    assert f.clauses == (((0, True), (1, True), (2, True), (3, True)),)
    assert out.gap == GapParams(0, 1)
    # lifter normalizes z to false by global negation
    a = Assignment((False, False, False, True))
    lifted = lift(a)
    assert lifted.values == (True, True, True)


def test_e3sat_rejects_wrong_width():
    with pytest.raises(DomainError):
        e3sat_to_nae4sat(gap_instance(CnfFormula(2, [((0, True), (1, True))])))


def test_nae4_to_nae3_single_clause():
    nae4, _ = e3sat_to_nae4sat(gap_instance(ONE_CLAUSE))
    out, lift = nae4sat_to_nae3sat(nae4)
    assert out.instance.m == 2
    assert max_nae_exact(out.instance).value == 2
    assert out.gap == GapParams(Fraction(1, 2), 1)


def test_nae3_to_multicut_single_clause():
    f = CnfFormula(3, [((0, True), (1, True), (2, False))])
    out, lift = nae3sat_to_multicut(gap_instance(f))
    g = out.instance
    assert g.n == 6
    assert g.m == 6
    assert max_cut_exact(g).value == 5  # 3m + 2*maxNAE = 3 + 2
    assert out.gap == GapParams(Fraction(1, 2), Fraction(5, 6))


def test_nae3_to_multicut_rejects_repeated_variable():
    f = CnfFormula(2, [((0, True), (0, False), (1, True))])
    with pytest.raises(DomainError):
        nae3sat_to_multicut(gap_instance(f))


def test_multicut_to_simplecut_examples():
    single = MultiGraph(2, [(0, 1)])
    out, _ = multicut_to_simplecut(GapInstance(single, GapParams(0, 1), "edges"))
    assert out.instance.n == 4 and out.instance.m == 3
    assert max_cut_exact(out.instance).value == 3
    double = MultiGraph(2, [(0, 1, 2)])
    out2, _ = multicut_to_simplecut(GapInstance(double, GapParams(0, 1), "edges"))
    assert out2.instance.is_simple()
    assert max_cut_exact(out2.instance).value == 6
    loopy = MultiGraph(1, [(0, 0)])
    with pytest.raises(DomainError):
        multicut_to_simplecut(GapInstance(loopy, GapParams(0, 1), "edges"))


def test_gap_composition_closed_form():
    for alpha, beta in [(0, 1), ("1/2", 1), ("3/4", "7/8")]:
        gap = GapParams(Fraction(alpha), Fraction(beta))
        gi = gap_instance(gen_e3cnf(4, 3, seed=5), alpha, beta)
        for step in (e3sat_to_nae4sat, nae4sat_to_nae3sat, nae3sat_to_multicut, multicut_to_simplecut):
            gi, _ = step(gi)
        assert gi.gap == GapParams((16 + gap.alpha) / 18, (16 + gap.beta) / 18)


def test_stepwise_identities_and_lifters():
    rng = random.Random(2000)
    for trial in range(25):
        n = rng.randint(3, 6)
        m = rng.randint(1, min(6, 10 - n))
        f = gen_e3cnf(n, m, seed=trial)
        gi = gap_instance(f, "1/2", "1")
        k = max_sat_exact(f).value

        s1, l1 = e3sat_to_nae4sat(gi)
        r1 = max_nae_exact(s1.instance)
        assert r1.value == k
        assert count_satisfied(f, l1(r1.witness)) == k

        s2, l2 = nae4sat_to_nae3sat(s1)
        r2 = max_nae_exact(s2.instance)
        assert r2.value == s1.instance.m + r1.value
        assert count_nae_satisfied(s1.instance, l2(r2.witness)) == r1.value

        s3, l3 = nae3sat_to_multicut(s2)
        r3 = max_cut_exact(s3.instance)
        assert r3.value == 3 * s2.instance.m + 2 * r2.value
        assert s3.instance.m == 6 * s2.instance.m
        assert count_nae_satisfied(s2.instance, l3(r3.witness)) == r2.value


def test_simplecut_identity_and_lifter():
    rng = random.Random(2001)
    for trial in range(25):
        n = rng.randint(2, 6)
        edges = []
        for _ in range(rng.randint(1, 8)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, 1))
        g = MultiGraph(n, edges)
        gi = GapInstance(g, GapParams(Fraction(1, 3), 1), "edges")
        out, lift = multicut_to_simplecut(gi)
        r = max_cut_exact(out.instance)
        best = max_cut_exact(g).value
        assert r.value == 2 * g.m + best
        assert cut_size(g, lift(r.witness)) == best


def test_multicut_lifter_total_on_arbitrary_cuts():
    # lifting any feasible cut never loses value vs the lemma's translation
    rng = random.Random(2002)
    f = gen_e3cnf(4, 3, seed=9)
    nae3 = gap_instance(f)
    out, lift = nae3sat_to_multicut(nae3)
    g = out.instance
    for _ in range(50):
        p = VertexPartition(tuple(rng.random() < 0.5 for _ in range(g.n)))
        a = lift(p)
        # exchange argument: the lifted assignment NAE-satisfies at least
        # (cut - 3m) / 2 clauses
        assert 3 * f.m + 2 * count_nae_satisfied(f, a) >= cut_size(g, p)


def _reference_multicut_lift(g, n, p):
    """The replaced lifter: flip whichever literal of a same-side pair gains
    more cut, summed edge by edge, the positive one on a tie."""
    weights = {(u, v): mult for u, v, mult in g.edges}

    def flip_delta(side, w):
        delta = 0
        for (u, v), mult in weights.items():
            if u != v and w in (u, v):
                other = v if u == w else u
                delta += mult if side[other] == side[w] else -mult
        return delta

    side = list(p.side)
    for var in range(n):
        pos, neg = 2 * var, 2 * var + 1
        if side[pos] == side[neg]:
            if flip_delta(side, pos) >= flip_delta(side, neg):
                side[pos] = not side[pos]
            else:
                side[neg] = not side[neg]
    return Assignment(tuple(side[2 * var] for var in range(n)))


def _whole_cut_multicut_lift(g, p):
    """The replaced lifter: for each literal pair on one side, flip the
    literal whose flip gives the larger whole-graph cut_size, max keeping the
    first of equals."""

    def flip(p, w):
        return VertexPartition(p.side[:w] + (not p.side[w],) + p.side[w + 1 :])

    for pos in range(0, g.n, 2):
        if p.side[pos] == p.side[pos + 1]:
            p = max((flip(p, pos), flip(p, pos + 1)), key=lambda q: cut_size(g, q))
    return Assignment(p.side[0::2])


@st.composite
def formulas_and_partitions(draw):
    """An exact-3-CNF with no repeated variable in a clause, some variables
    possibly unused, and a partition of its cut instance's vertices."""
    n = draw(st.integers(3, 9))
    var_triples = st.lists(st.sampled_from(range(n)), min_size=3, max_size=3, unique=True)
    clauses = draw(st.lists(var_triples, min_size=1, max_size=8))
    f = CnfFormula(n, [tuple((v, draw(st.booleans())) for v in c) for c in clauses])
    return f, VertexPartition(draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n)))


@settings(max_examples=200, deadline=None)
@given(formulas_and_partitions())
def test_multicut_lifter_matches_whole_cut_reference(case):
    f, p = case
    out, lift = nae3sat_to_multicut(gap_instance(f))
    assert lift(p) == _whole_cut_multicut_lift(out.instance, p)


def test_multicut_lifter_matches_edge_by_edge_reference():
    # unused variables and one-sided partitions make ties, which go positive
    rng = random.Random(2004)
    for trial in range(60):
        f = gen_e3cnf(rng.randint(3, 8), rng.randint(1, 6), seed=trial)
        out, lift = nae3sat_to_multicut(gap_instance(f))
        g = out.instance
        partitions = [(False,) * g.n, (True,) * g.n]
        partitions += [tuple(rng.random() < 0.5 for _ in range(g.n)) for _ in range(10)]
        for side in partitions:
            p = VertexPartition(side)
            assert lift(p) == _reference_multicut_lift(g, f.var_count, p)


def test_all_lifters_total_on_arbitrary_witnesses():
    # each lifter meets its lemma's translation on any feasible witness
    rng = random.Random(2003)
    f = gen_e3cnf(5, 4, seed=4)
    gi = gap_instance(f)

    s1, l1 = e3sat_to_nae4sat(gi)
    for _ in range(40):
        a = Assignment(tuple(rng.random() < 0.5 for _ in range(s1.instance.var_count)))
        assert count_satisfied(f, l1(a)) >= count_nae_satisfied(s1.instance, a)

    s2, l2 = nae4sat_to_nae3sat(s1)
    for _ in range(40):
        a = Assignment(tuple(rng.random() < 0.5 for _ in range(s2.instance.var_count)))
        got = count_nae_satisfied(s1.instance, l2(a))
        assert got >= count_nae_satisfied(s2.instance, a) - s1.instance.m

    s3, _ = nae3sat_to_multicut(s2)
    s4, l4 = multicut_to_simplecut(s3)
    for _ in range(40):
        p = VertexPartition(tuple(rng.random() < 0.5 for _ in range(s4.instance.n)))
        assert cut_size(s3.instance, l4(p)) >= cut_size(s4.instance, p) - 2 * s3.instance.m


def test_fresh_variables_dense_and_deterministic():
    f = gen_e3cnf(5, 4, seed=3)
    a1, _ = e3sat_to_nae4sat(gap_instance(f))
    a2, _ = e3sat_to_nae4sat(gap_instance(f))
    assert a1.instance == a2.instance
    assert a1.instance.var_count == f.var_count + 1
    b1, _ = nae4sat_to_nae3sat(a1)
    assert b1.instance.var_count == f.var_count + 1 + f.m
