import ast
import copy
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapchain
from gapchain.errors import DimensionError, DomainError
from gapchain.model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    GapParams,
    MultiGraph,
    Ordering,
    VertexPartition,
    complement,
    cost_of_ordering,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)


def test_multigraph_aggregates_and_canonicalizes():
    g = MultiGraph(3, [(1, 0), (0, 1), (1, 2, 2)])
    assert g.edges == ((0, 1, 2), (1, 2, 2))
    assert g.m == 4


def test_multigraph_rejects_bad_edges():
    with pytest.raises(DomainError):
        MultiGraph(2, [(0, 2)])
    with pytest.raises(DomainError):
        MultiGraph(2, [(0, 1, 0)])


def test_loop_counts_once_in_degree():
    g = MultiGraph(2, [(0, 0, 3), (0, 1, 2)])
    assert g.degrees() == [5, 2]
    assert not g.is_loop_free()


def test_digraph_balance_and_degrees():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert d.indegrees() == d.outdegrees() == [1, 1, 1]
    d2 = Digraph(2, [(0, 1, 2)])
    assert d2.indegrees() != d2.outdegrees()
    assert d2.has_antiparallel_pair() is False


def test_cost_of_ordering_examples():
    p3 = MultiGraph(3, [(0, 1), (1, 2)])
    assert cost_of_ordering(p3, Ordering((0, 1, 2))) == 2
    k3 = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
    for perm in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        assert cost_of_ordering(k3, Ordering(perm)) == 4
    double = MultiGraph(2, [(0, 1, 2)])
    assert cost_of_ordering(double, Ordering((0, 1))) == 2


def test_self_loops_cost_nothing_and_never_cross():
    g = MultiGraph(2, [(0, 0, 5), (0, 1)])
    assert cost_of_ordering(g, Ordering((1, 0))) == 1
    assert cut_size(g, VertexPartition((False, True))) == 1


def test_cost_dimension_error():
    g = MultiGraph(3, [(0, 1)])
    with pytest.raises(DimensionError):
        cost_of_ordering(g, Ordering((0, 1)))


def test_cut_size_examples():
    k3 = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert cut_size(k3, VertexPartition((False, True, True))) == 2
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cut_size(c4, VertexPartition((False, True, False, True))) == 4
    double = MultiGraph(2, [(0, 1, 2)])
    assert cut_size(double, VertexPartition((False, True))) == 2


def test_cut_flip_symmetry():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 7)
        edges = [
            (rng.randint(0, n - 1), rng.randint(0, n - 1), rng.randint(1, 3))
            for _ in range(rng.randint(0, 10))
        ]
        g = MultiGraph(n, edges)
        p = VertexPartition(tuple(rng.random() < 0.5 for _ in range(n)))
        flipped = VertexPartition(tuple(not s for s in p.side))
        assert cut_size(g, p) == cut_size(g, flipped)


def test_nae_satisfaction():
    f = CnfFormula(3, [((0, True), (1, True), (2, True))])
    assert count_nae_satisfied(f, Assignment((True, True, True))) == 0
    assert count_nae_satisfied(f, Assignment((True, False, False))) == 1


def test_nae_negation_symmetry():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(1, 8)):
            w = rng.randint(1, 4)
            clauses.append(
                tuple((rng.randint(0, n - 1), rng.random() < 0.5) for _ in range(w))
            )
        f = CnfFormula(n, clauses)
        a = Assignment(tuple(rng.random() < 0.5 for _ in range(n)))
        negated = Assignment(tuple(not v for v in a.values))
        assert count_nae_satisfied(f, a) == count_nae_satisfied(f, negated)


def test_count_satisfied():
    f = CnfFormula(1, [((0, True),), ((0, False),)])
    for val in (True, False):
        assert count_satisfied(f, Assignment((val,))) == 1
    assert count_satisfied(CnfFormula(0, []), Assignment(())) == 0
    f2 = CnfFormula(2, [((0, True), (1, True))])
    assert count_satisfied(f2, Assignment((True, False))) == 1


def test_formula_validation():
    with pytest.raises(DomainError):
        CnfFormula(2, [()])
    with pytest.raises(DomainError):
        CnfFormula(1, [((1, True),)])
    f = CnfFormula(2, [((0, True), (0, False), (1, True))])
    assert f.repeated_variable_clauses() == [0]


def test_occurrence_profile():
    f = CnfFormula(2, [((0, True), (1, False)), ((0, False), (1, True), (0, True))])
    prof = f.occurrence_profile()
    assert prof[0][(2, True)] == 1
    assert prof[0][(3, False)] == 1
    assert prof[0][(3, True)] == 1
    assert f.occurrence_counts() == [3, 2]


_CLAUSES = st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), min_size=1, max_size=4), max_size=8)))


@settings(max_examples=80, deadline=None)
@given(_CLAUSES)
@example((2, [[(1, True), (1, True), (1, False)], [(0, False)]]))
def test_occurrence_counts_count_every_literal(case):
    # a direct count, each repeat of a variable inside a clause included
    n, clauses = case
    want = [0] * n
    for clause in clauses:
        for var, _ in clause:
            want[var] += 1
    assert CnfFormula(n, [tuple(c) for c in clauses]).occurrence_counts() == want


def test_complement():
    k3 = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert complement(k3).m == 0
    e2 = MultiGraph(2, [])
    assert complement(e2).edges == ((0, 1, 1),)
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 7)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = MultiGraph(n, [(u, v, 1) for u, v in rng.sample(pool, rng.randint(0, len(pool)))])
        assert complement(complement(g)) == g
    with pytest.raises(DomainError):
        complement(MultiGraph(2, [(0, 1, 2)]))


def test_gap_params():
    g = GapParams(0, 1)
    assert g.alpha == 0 and g.beta == 1
    with pytest.raises(DomainError):
        GapParams(1, 1)
    with pytest.raises(DomainError):
        GapParams(-1, 1)


def test_ordering_and_partition_validation():
    with pytest.raises(DomainError):
        Ordering((0, 0, 1))
    pi = Ordering((2, 0, 1))
    assert pi.positions() == [1, 2, 0]
    assert VertexPartition((True, False)).sizes() == (1, 1)


def test_complete_graph_cost_identity():
    # every ordering of K_N costs C(N+1, 3)
    rng = random.Random(5)
    for n in range(2, 9):
        g = MultiGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        perm = list(range(n))
        rng.shuffle(perm)
        assert cost_of_ordering(g, Ordering(tuple(perm))) == math.comb(n + 1, 3)


def test_loop_free_cost_at_least_m():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = []
        for _ in range(rng.randint(1, 8)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.randint(1, 3)))
        g = MultiGraph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert cost_of_ordering(g, Ordering(tuple(perm))) >= g.m


def test_bipartite_graph():
    h = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    assert h.m == 2
    assert h.a_neighborhoods() == [{0}, {1}]
    with pytest.raises(DomainError):
        BipartiteGraph(1, 1, [(0, 0), (0, 0)])
    with pytest.raises(DomainError):
        BipartiteGraph(1, 1, [(1, 0)])


@pytest.mark.parametrize("a, b, edges", [
    (2, 2, [(0, 0.5)]),
    (2, 2, [(0, 0, 1)]),
    (2, 2, [(0,)]),
    (2, 2, [("0", 0)]),
    (2, 2, [(0, 0), (1, 1, 1)]),  # a triple among pairs
    (2, 3, [(2, 0)]),  # an A end past side A, though inside B
    (3, 2, [(0, 2)]),  # a B end past side B, though inside A
    (2, 2, [(-1, 0)]),
    (2, 2, [(0, 2**70)]),
    (-1, 3, []),
    (3, -1, []),
    (2, 2, [(1, 0), (0, 1), (1, 0)]),  # a repeated pair is not a multiplicity
], ids=["float", "triple", "single", "str", "mixed-triple", "a-range", "b-range", "negative",
        "past-int64", "negative-a", "negative-b", "repeat"])
def test_bipartite_graph_rejects_malformed_edges(a, b, edges):
    with pytest.raises(DomainError):
        BipartiteGraph(a, b, edges)


def test_bipartite_graph_columns_and_views():
    h = BipartiteGraph(3, 2, [(2, 1), (0, 1), (2, 0)])
    assert h.edges == ((0, 1), (2, 0), (2, 1)) and h.m == 3
    assert h.u.dtype == h.v.dtype == np.int64 and not h.u.flags.writeable
    # no multiplicity column: mult is the zero-stride view of ones
    assert h.mult.strides == (0,) and h.u.base.nbytes == h.u.nbytes + h.v.nbytes
    assert h.b_neighborhoods() == [{2}, {0, 2}]
    assert BipartiteGraph.from_arrays(3, 2, np.array([2, 0, 2]), np.array([1, 1, 0])) == h
    with pytest.raises(DomainError):
        BipartiteGraph.from_arrays(3, 2, np.array([3]), np.array([0]))
    with pytest.raises(AttributeError):
        h.a_size = 4


def test_bipartite_graph_side_sizes_are_part_of_its_value():
    assert BipartiteGraph(2, 3) != BipartiteGraph(3, 2)
    assert BipartiteGraph(2, 3, [(1, 0)]) != BipartiteGraph(2, 4, [(1, 0)])
    assert hash(BipartiteGraph(2, 3, [(1, 0), (0, 2)])) == hash(BipartiteGraph(2, 3, [(0, 2), (1, 0)]))
    assert len({BipartiteGraph(2, 3), BipartiteGraph(3, 2), BipartiteGraph(2, 3)}) == 2
    # the same columns are not the same graph of another type
    assert BipartiteGraph(2, 2, [(0, 1)]) != MultiGraph(4, [(0, 1)])


def test_bipartite_graph_copies_stay_equal_and_hash_equal():
    h = BipartiteGraph(3, 4, [(0, 3), (2, 1), (1, 1)])
    for c in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert c == h and hash(c) == hash(h)
        assert (c.a_size, c.b_size, c.edges, c.m) == (3, 4, h.edges, 3)


def _python(hash_seed, code, stdin=b""):
    """stdout of `python -c code` under PYTHONHASHSEED=hash_seed, importing
    this gapchain."""
    path = [str(Path(gapchain.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_graphs_hashed_then_pickled_hash_afresh_under_another_hash_seed():
    # the hash reads bytes, which each process salts its own way: a hash cached
    # before pickling must not travel with the graph
    graphs = (
        "import pickle, sys\n"
        "from gapchain.model import BipartiteGraph, Digraph, MultiGraph\n"
        "graphs = (MultiGraph(3, [(0, 1), (1, 2)]), Digraph(3, [(0, 1), (2, 1, 3)]),"
        " BipartiteGraph(2, 3, [(0, 2), (1, 0)]))\n"
    )
    blob = _python(1, graphs + "[hash(g) for g in graphs]\nsys.stdout.buffer.write(pickle.dumps(graphs))")
    check = "print([(a == b, hash(a) == hash(b), a in {b}) for a, b in zip(pickle.loads(sys.stdin.buffer.read()), graphs)])"
    # equal, hashing equal, and found in a set: for each of the three kinds
    assert ast.literal_eval(_python(2, graphs + check, blob).decode()) == [(True, True, True)] * 3
