import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain.errors import CapExceededError, DomainError
from gapchain.model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    MultiGraph,
    Ordering,
    VertexPartition,
    cost_of_ordering,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)
from gapchain.oracle import (
    _peo,
    backward_arc_weight,
    is_chain,
    is_chordal,
    is_interval,
    is_proper_interval,
    is_threshold,
    is_trivially_perfect,
    max_cut_exact,
    max_nae_exact,
    max_sat_exact,
    min_bisection_exact,
    min_chain_completion_exact,
    min_completion_exact,
    min_fas_exact,
    min_fill_in_exact,
    min_fvs_exact,
    ola_exact,
)

try:
    import networkx as nx
except ImportError:  # pragma: no cover - networkx is an optional test dependency
    nx = None

P3 = MultiGraph(3, [(0, 1), (1, 2)])
K3 = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
K4 = MultiGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
C4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
C6 = MultiGraph(6, [(i, (i + 1) % 6) for i in range(6)])
PAW = MultiGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])


def random_multigraph(rng, n_max=6, loops=True):
    n = rng.randint(1, n_max)
    edges = []
    for _ in range(rng.randint(0, 9)):
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        if not loops and u == v:
            continue
        edges.append((u, v, rng.randint(1, 3)))
    return MultiGraph(n, edges)


def test_ola_examples():
    assert ola_exact(P3).value == 2
    assert ola_exact(K3).value == 4
    assert ola_exact(PAW).value == 5  # frozen from 4! permutation enumeration


def test_ola_matches_permutation_enumeration():
    rng = random.Random(101)
    for _ in range(30):
        g = random_multigraph(rng)
        res = ola_exact(g)
        brute = min(
            cost_of_ordering(g, Ordering(p))
            for p in itertools.permutations(range(g.n))
        )
        assert res.value == brute
        assert cost_of_ordering(g, res.witness) == res.value


def test_ola_lexicographic_witness():
    rng = random.Random(102)
    for _ in range(15):
        g = random_multigraph(rng, n_max=5)
        res = ola_exact(g)
        best = res.value
        lex = next(
            p
            for p in itertools.permutations(range(g.n))
            if cost_of_ordering(g, Ordering(p)) == best
        )
        assert res.witness.perm == lex


def test_ola_cap():
    with pytest.raises(CapExceededError, match="ola_exact: size 21 exceeds cap 20"):
        ola_exact(MultiGraph(21, []))


def test_max_cut_examples():
    assert max_cut_exact(K3).value == 2
    assert max_cut_exact(C4).value == 4
    assert max_cut_exact(K4).value == 4


def test_max_cut_matches_enumeration():
    rng = random.Random(103)
    for _ in range(30):
        g = random_multigraph(rng)
        res = max_cut_exact(g)
        brute = max(
            cut_size(g, VertexPartition(tuple(bool(m >> i & 1) for i in range(g.n))))
            for m in range(1 << g.n)
        )
        assert res.value == brute
        assert cut_size(g, res.witness) == res.value


def test_min_bisection():
    assert min_bisection_exact(K4).value == 4
    assert min_bisection_exact(C6).value == 2
    two_triangles = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # frozen from enumeration over C(6,3) balanced splits
    assert min_bisection_exact(two_triangles).value == 0
    with pytest.raises(DomainError):
        min_bisection_exact(K3)


def test_min_bisection_witness_balanced():
    rng = random.Random(104)
    for _ in range(20):
        n = rng.choice([2, 4, 6])
        g = MultiGraph(
            n,
            [
                (rng.randint(0, n - 1), rng.randint(0, n - 1), 1)
                for _ in range(rng.randint(0, 8))
            ],
        )
        res = min_bisection_exact(g)
        assert res.witness.sizes()[0] == res.witness.sizes()[1]
        assert cut_size(g, res.witness) == res.value


def test_sat_oracles():
    f = CnfFormula(3, [((0, True), (1, True), (2, True))])
    assert max_nae_exact(f).value == 1
    g = CnfFormula(1, [((0, True),), ((0, False),)])
    assert max_sat_exact(g).value == 1


def test_nae_oracle_against_half_enumeration():
    # NAE symmetry: enumerating assignments with variable 0 fixed false suffices
    rng = random.Random(105)
    for _ in range(10):
        n = 6
        clauses = []
        for _ in range(10):
            vars_ = rng.sample(range(n), 3)
            clauses.append(tuple((v, rng.random() < 0.5) for v in vars_))
        f = CnfFormula(n, clauses)
        best = 0
        for mask in range(1 << (n - 1)):
            a = Assignment(tuple(bool(mask >> i & 1) for i in range(n - 1)) + (False,))
            best = max(best, count_nae_satisfied(f, a))
        assert max_nae_exact(f).value == best


def test_min_fas_examples():
    assert min_fas_exact(Digraph(3, [(0, 1), (1, 2), (2, 0)])).value == 1
    assert min_fas_exact(Digraph(3, [(0, 1), (0, 2), (1, 2)])).value == 0
    assert min_fas_exact(Digraph(2, [(0, 1), (1, 0)])).value == 1


def test_min_fas_matches_permutation_enumeration():
    rng = random.Random(106)
    for _ in range(30):
        n = rng.randint(1, 6)
        arcs = [
            (rng.randint(0, n - 1), rng.randint(0, n - 1), rng.randint(1, 2))
            for _ in range(rng.randint(0, 10))
        ]
        d = Digraph(n, arcs)
        res = min_fas_exact(d)
        brute = min(
            backward_arc_weight(d, Ordering(p))
            for p in itertools.permutations(range(n))
        )
        assert res.value == brute
        assert backward_arc_weight(d, res.witness) == res.value


def test_min_fas_multiplicities_as_weights():
    d = Digraph(2, [(0, 1, 1), (1, 0, 5)])
    assert min_fas_exact(d).value == 1


def test_min_fvs():
    assert min_fvs_exact(Digraph(3, [(0, 1), (1, 2), (2, 0)])).value == 1
    assert min_fvs_exact(Digraph(3, [(0, 1), (0, 2), (1, 2)])).value == 0
    loop = Digraph(2, [(0, 0), (0, 1)])
    res = min_fvs_exact(loop)
    assert res.value == 1 and res.witness == (0,)


def test_min_fvs_witness_acyclic():
    rng = random.Random(107)
    for _ in range(20):
        n = rng.randint(1, 6)
        arcs = [
            (rng.randint(0, n - 1), rng.randint(0, n - 1), 1)
            for _ in range(rng.randint(0, 9))
        ]
        d = Digraph(n, arcs)
        res = min_fvs_exact(d)
        removed = set(res.witness)
        kept = [v for v in range(n) if v not in removed]
        idx = {v: i for i, v in enumerate(kept)}
        sub = Digraph(
            len(kept),
            [(idx[u], idx[v], 1) for u, v, _ in d.arcs if u in idx and v in idx],
        )
        assert min_fas_exact(sub).value == 0


def test_min_chain_completion():
    two_k2 = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    assert min_chain_completion_exact(two_k2).value == 1
    chain = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    assert min_chain_completion_exact(chain).value == 0
    assert min_chain_completion_exact(BipartiteGraph(3, 2, [])).value == 0


def test_min_chain_witness_and_minimality():
    rng = random.Random(108)
    for _ in range(20):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        pool = [(x, y) for x in range(a) for y in range(b)]
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        h = BipartiteGraph(a, b, edges)
        res = min_chain_completion_exact(h)
        completed = BipartiteGraph(a, b, tuple(edges) + res.witness)
        assert is_chain(completed)
        if res.value <= 4:
            missing = [e for e in pool if e not in set(edges)]
            for k in range(res.value):
                for combo in itertools.combinations(missing, k):
                    assert not is_chain(BipartiteGraph(a, b, tuple(edges) + combo))


def test_min_fill_in():
    assert min_fill_in_exact(C4).value == 1
    assert min_fill_in_exact(C5).value == 2  # frozen from chord-subset brute force
    tree = MultiGraph(4, [(0, 1), (1, 2), (1, 3)])
    assert min_fill_in_exact(tree).value == 0
    with pytest.raises(DomainError):
        min_fill_in_exact(MultiGraph(2, [(0, 1, 2)]))


def test_min_fill_in_witness_chordal():
    rng = random.Random(109)
    for _ in range(20):
        n = rng.randint(1, 7)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = MultiGraph(n, [(u, v, 1) for u, v in rng.sample(pool, rng.randint(0, len(pool)))])
        res = min_fill_in_exact(g)
        combined = MultiGraph(n, g.edges + tuple((u, v, 1) for u, v in res.witness))
        assert is_chordal(combined)


def test_recognizer_table_exemplars():
    two_k2 = MultiGraph(4, [(0, 1), (2, 3)])
    p4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    claw = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    tent3 = MultiGraph(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 1), (4, 1), (4, 2), (5, 2)]
    )
    assert not is_chordal(C4)
    assert not is_threshold(C4)
    assert not is_trivially_perfect(C4)
    assert not is_interval(C4)
    assert not is_proper_interval(C4)

    assert not is_threshold(two_k2)
    assert is_chordal(two_k2) and is_interval(two_k2) and is_trivially_perfect(two_k2)

    assert not is_threshold(p4) and not is_trivially_perfect(p4)
    assert is_chordal(p4) and is_interval(p4) and is_proper_interval(p4)

    assert not is_proper_interval(claw)
    assert is_chordal(claw) and is_interval(claw) and is_threshold(claw)

    assert is_chordal(tent3)
    assert not is_interval(tent3)

    for n in (1, 2, 3, 5):
        k = MultiGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert is_chordal(k) and is_interval(k) and is_proper_interval(k)
        assert is_threshold(k) and is_trivially_perfect(k)


def test_is_chain():
    assert is_chain(BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]))
    assert not is_chain(BipartiteGraph(2, 2, [(0, 0), (1, 1)]))
    assert is_chain(BipartiteGraph(3, 1, []))


def test_recognizers_reject_non_simple():
    with pytest.raises(DomainError):
        is_chordal(MultiGraph(2, [(0, 0)]))
    with pytest.raises(DomainError):
        is_interval(MultiGraph(2, [(0, 1, 2)]))


def test_recognizer_caps():
    with pytest.raises(CapExceededError):
        is_interval(MultiGraph(65, []))
    # trivially perfect recognition compares closed neighbourhoods along the
    # edges and has no cap
    star = MultiGraph(200, [(0, v) for v in range(1, 200)])
    assert is_trivially_perfect(star)
    assert not is_trivially_perfect(MultiGraph(200, star.edges + ((1, 2), (2, 3), (3, 4))))


def test_min_completion_bruteforce():
    res = min_completion_exact(C4, "chordal")
    assert res.value == 1
    # a single chord gives the diamond, which is already trivially perfect
    assert min_completion_exact(C4, "trivially_perfect").value == 1
    two_k2 = MultiGraph(4, [(0, 1), (2, 3)])
    assert min_completion_exact(two_k2, "threshold").value == 2
    with pytest.raises(DomainError):
        min_completion_exact(C4, "no-such-class")


def test_witnesses_reevaluate():
    rng = random.Random(110)
    for _ in range(10):
        g = random_multigraph(rng, n_max=5)
        r = ola_exact(g)
        assert cost_of_ordering(g, r.witness) == r.value
        r = max_cut_exact(g)
        assert cut_size(g, r.witness) == r.value
    f = CnfFormula(4, [((0, True), (1, False), (2, True)), ((1, True), (3, False))])
    r = max_sat_exact(f)
    assert count_satisfied(f, r.witness) == r.value
    r = max_nae_exact(f)
    assert count_nae_satisfied(f, r.witness) == r.value


def test_weighted_dps_refuse_costs_reaching_the_sentinel():
    # every order of the triangle costs 4 * 2^61 = 2^63, past int64
    with pytest.raises(DomainError, match="ola_exact"):
        ola_exact(MultiGraph(3, [(0, 1, 2**61), (1, 2, 2**61), (0, 2, 2**61)]))
    with pytest.raises(DomainError, match="ola_exact"):
        ola_exact(MultiGraph(3, [(0, 1, 2**61)]))  # (n - 1) * m = 2^62
    with pytest.raises(DomainError, match="min_fas_exact"):
        min_fas_exact(Digraph(2, [(0, 1, 2**61), (1, 0, 2**61)]))
    with pytest.raises(DomainError, match="min_fas_exact"):
        min_fas_exact(Digraph(1, [(0, 0, 2**62)]))
    # one below the bound is still solved exactly
    assert ola_exact(MultiGraph(2, [(0, 1, 2**62 - 1)])).value == 2**62 - 1
    big = ola_exact(MultiGraph(3, [(0, 1, 2**61 - 1)]))
    assert big.value == 2**61 - 1 and big.witness == Ordering((0, 1, 2))
    res = min_fas_exact(Digraph(2, [(0, 1, 2**62 - 2), (1, 0, 1)]))
    assert (res.value, res.witness) == (1, Ordering((0, 1)))
    assert min_fas_exact(Digraph(1, [(0, 0, 2**62 - 1)])).value == 2**62 - 1


def test_min_fas_loops_are_forced():
    d = Digraph(3, [(0, 0, 2), (0, 1), (1, 2)])
    res = min_fas_exact(d)
    assert res.value == 2  # both loop copies must go; the rest is acyclic
    assert backward_arc_weight(d, res.witness) == 2


def test_min_completion_candidate_cap():
    big = MultiGraph(12, [])  # 66 missing edges, above the cap of 24
    with pytest.raises(CapExceededError, match="candidates: size 66 exceeds cap 24"):
        min_completion_exact(big, "chordal")


EMPTY_INSTANCES = [
    (ola_exact, MultiGraph(0), Ordering(())),
    (max_cut_exact, MultiGraph(0), VertexPartition(())),
    (min_bisection_exact, MultiGraph(0), VertexPartition(())),
    (max_sat_exact, CnfFormula(0, []), Assignment(())),
    (max_nae_exact, CnfFormula(0, []), Assignment(())),
    (min_fas_exact, Digraph(0), Ordering(())),
    (min_fvs_exact, Digraph(0), ()),
    (min_chain_completion_exact, BipartiteGraph(0, 0), ()),
    (min_fill_in_exact, MultiGraph(0), ()),
    (min_chain_completion_exact, BipartiteGraph(3, 2, ()), ()),
]


@pytest.mark.parametrize(
    "solve, instance, witness",
    EMPTY_INSTANCES,
    ids=[case[0].__name__ for case in EMPTY_INSTANCES[:-1]] + ["min_chain_completion_exact_edgeless"],
)
def test_empty_instance(solve, instance, witness):
    res = solve(instance)
    assert (res.value, res.witness) == (0, witness)


# ---------------------------------------------------------------------------
# Interval recognition: the chordal + asteroidal-triple-free test against the
# clique-order backtracking it replaced, and against networkx
# ---------------------------------------------------------------------------


def _clique_order_is_interval(g: MultiGraph, elim: list[int]) -> bool:
    """The replaced recognizer, given a perfect elimination order of g: an order
    of the maximal cliques in which each vertex's cliques are consecutive.
    Exponential in the worst case."""
    if g.n == 0:
        return True
    adj = g.adjacency_sets()
    rank = {v: i for i, v in enumerate(elim)}
    candidates = [frozenset({v} | {u for u in adj[v] if rank[u] > rank[v]}) for v in elim]
    cliques = []
    for c in candidates:
        if not any(c < other for other in candidates) and c not in cliques:
            cliques.append(c)
    k = len(cliques)
    remaining = Counter(v for c in cliques for v in c)
    used = [False] * k

    def rec(depth, prev, closed):
        if depth == k:
            return True
        for i in range(k):
            c = cliques[i]
            if used[i] or c & closed:
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


def _has_induced_p4_or_c4(g: MultiGraph) -> bool:
    """The replaced trivially-perfect test: search every four vertices."""
    adj = g.adjacency_sets()
    for quad in itertools.combinations(range(g.n), 4):
        deg = sorted(sum(1 for u in quad if u != v and u in adj[v]) for v in quad)
        if deg in ([2, 2, 2, 2], [1, 1, 2, 2]):
            return True
    return False


def _threshold_by_removal(g: MultiGraph) -> bool:
    """The replaced threshold test: remove an isolated or dominating vertex
    until one vertex is left, or none can go."""
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


@pytest.mark.parametrize("n", range(7))
def test_is_interval_matches_clique_order_backtracking_exhaustively(n):
    # the same loop checks trivially perfect recognition against quadruple
    # search and threshold recognition against vertex removal
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = MultiGraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        elim = _peo(g)
        assert is_interval(g) == (elim is not None and _clique_order_is_interval(g, elim)), g.edges
        assert is_trivially_perfect(g) != _has_induced_p4_or_c4(g), g.edges
        assert is_threshold(g) == _threshold_by_removal(g), g.edges


@st.composite
def near_threshold_graphs(draw):
    """A threshold graph built by adding isolated or dominating vertices,
    relabelled, with up to two vertex pairs toggled."""
    n = draw(st.integers(7, 40))
    edges = set()
    for v in range(1, n):
        if draw(st.booleans()):
            edges |= {(u, v) for u in range(v)}
    perm = draw(st.permutations(range(n)))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges ^= set(draw(st.lists(pairs, max_size=2)))
    return MultiGraph(n, sorted(edges))


@settings(max_examples=200, deadline=None)
@given(near_threshold_graphs())
def test_is_threshold_matches_vertex_removal(g):
    assert is_threshold(g) == _threshold_by_removal(g)


def _relabel(n, edges, perm):
    return MultiGraph(n, [(perm[u], perm[v]) for u, v in edges])


def _graph_from_intervals(intervals):
    return MultiGraph(
        len(intervals),
        [
            (u, v)
            for (u, (a, b)), (v, (c, d)) in itertools.combinations(enumerate(intervals), 2)
            if a <= d and c <= b
        ],
    )


def _caterpillar_with_leg(spine, leaves, leg_at):
    """Spine path, `leaves` pendant vertices per spine vertex, and a 2-edge leg
    at spine vertex `leg_at`."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for s in range(spine):
        edges += [(s, n + j) for j in range(leaves[s])]
        n += leaves[s]
    edges += [(leg_at, n), (n, n + 1)]
    return n + 2, edges


@st.composite
def interval_sets(draw):
    n = draw(st.integers(7, 64))
    starts = draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    return _graph_from_intervals([(a, a + w) for a, w in zip(starts, lengths)])


@st.composite
def random_trees(draw):
    n = draw(st.integers(7, 64))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    perm = draw(st.permutations(range(n)))
    return _relabel(n, [(p, v) for v, p in enumerate(parents, start=1)], perm)


@st.composite
def caterpillars_with_leg(draw):
    spine = draw(st.integers(2, 12))
    leaves = draw(st.lists(st.integers(0, 4), min_size=spine, max_size=spine))
    n, edges = _caterpillar_with_leg(spine, leaves, draw(st.integers(0, spine - 1)))
    return _relabel(n, edges, draw(st.permutations(range(n))))


@st.composite
def k_trees(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(max(7, k + 1), 40))
    edges = list(itertools.combinations(range(k + 1), 2))
    cliques = [frozenset(c) for c in itertools.combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = cliques[draw(st.integers(0, len(cliques) - 1))]
        edges += [(u, v) for u in base]
        cliques += [base - {u} | {v} for u in base]
    return _relabel(n, edges, draw(st.permutations(range(n))))


INTERVAL_SETTINGS = settings(max_examples=60, deadline=None)


@INTERVAL_SETTINGS
@given(interval_sets())
def test_graphs_of_interval_sets_are_interval(g):
    assert is_interval(g)


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
@INTERVAL_SETTINGS
@given(st.one_of(interval_sets(), random_trees(), caterpillars_with_leg(), k_trees()))
def test_is_interval_is_chordal_and_at_free_in_networkx(g):
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from((u, v) for u, v, _ in g.edges)
    assert is_interval(g) == (nx.is_chordal(graph) and nx.is_at_free(graph))


@pytest.mark.parametrize(
    "spine, expected",
    [(8, False), (12, False)],
    ids=["n42", "n62"],
)
def test_is_interval_answers_caterpillars_with_leg_fast(spine, expected):
    # with 4 leaves per spine vertex the old clique-order search ran for more
    # than 4 minutes at spine 8 before answering False
    n, edges = _caterpillar_with_leg(spine, [4] * spine, spine // 2)
    g = _relabel(n, edges, random.Random(spine).sample(range(n), n))
    start = time.perf_counter()
    assert is_interval(g) is expected
    assert time.perf_counter() - start < 1.0


def test_is_interval_at_its_cap():
    path = MultiGraph(64, [(i, i + 1) for i in range(63)])
    rng = random.Random(64)
    starts = [rng.randint(0, 200) for _ in range(64)]
    intervals = _graph_from_intervals([(a, a + rng.randint(0, 10)) for a in starts])
    for g in (path, intervals):
        start = time.perf_counter()
        assert is_interval(g) is True
        assert time.perf_counter() - start < 1.0
