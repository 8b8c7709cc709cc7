import itertools
import random

import pytest

from gapchain.cli import STEPS
from gapchain.completion import (
    a_clique_cover,
    chain_cost_for_order,
    chain_to_fillin,
    chain_to_threshold,
    ola_to_chain,
    two_clique_cover,
    verify_completion,
)
from gapchain.errors import DomainError
from gapchain.model import BipartiteGraph, MultiGraph, Ordering, cost_of_ordering
from gapchain.oracle import (
    is_chain,
    min_chain_completion_exact,
    min_completion_exact,
    min_fill_in_exact,
    ola_exact,
)

PAW = MultiGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
TWO_K2 = BipartiteGraph(2, 2, [(0, 0), (1, 1)])


def correspondence_constant(g):
    return g.max_degree * g.n * (g.n - 1) // 2 - 2 * g.m


def test_paw_structure_and_budget():
    ci, lift = ola_to_chain(PAW, 5)
    assert ci.graph.a_size == 4
    assert ci.graph.b_size == 12  # Delta * n = 3 * 4
    assert ci.budget == 5 + 10
    assert ci.source_delta == 3
    # every B-vertex has degree 1 (padding) or 2 (edge vertex)
    degs = sorted(len(nb) for nb in ci.graph.b_neighborhoods())
    assert set(degs) <= {1, 2}
    assert degs.count(2) == 2 * PAW.m
    # lifter is the identity on orderings
    pi = Ordering((2, 0, 3, 1))
    assert lift(pi) is pi


def test_paw_optimum_transfer():
    ci, _ = ola_to_chain(PAW, 5)
    assert ola_exact(PAW).value == 5
    assert min_chain_completion_exact(ci.graph).value == 15


def test_rejects_loops():
    with pytest.raises(DomainError):
        ola_to_chain(MultiGraph(2, [(0, 0)]), 1)


def test_per_order_equality_all_orderings_small():
    # exhaustive: all labeled loop-free simple graphs on up to 4 vertices
    for n in range(1, 5):
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pool)):
            edges = [(u, v, 1) for i, (u, v) in enumerate(pool) if mask >> i & 1]
            g = MultiGraph(n, edges)
            ci, _ = ola_to_chain(g, 0)
            const = correspondence_constant(g)
            for perm in itertools.permutations(range(n)):
                pi = Ordering(perm)
                assert chain_cost_for_order(ci, pi) == cost_of_ordering(g, pi) + const


def test_per_order_equality_multigraphs():
    rng = random.Random(60)
    for _ in range(15):
        n = rng.randint(2, 5)
        edges = []
        for _ in range(rng.randint(1, 6)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.randint(1, 3)))
        g = MultiGraph(n, edges)
        ci, _ = ola_to_chain(g, 0)
        const = correspondence_constant(g)
        for perm in itertools.permutations(range(n)):
            pi = Ordering(perm)
            assert chain_cost_for_order(ci, pi) == cost_of_ordering(g, pi) + const


def test_edgeless_source_degenerates():
    g = MultiGraph(3, [])
    ci, _ = ola_to_chain(g, 0)
    assert ci.graph.b_size == 0
    assert chain_cost_for_order(ci, Ordering((0, 1, 2))) == 0


def test_order_reversal_symmetry():
    ci, _ = ola_to_chain(PAW, 5)
    for perm in itertools.permutations(range(4)):
        fwd = chain_cost_for_order(ci, Ordering(perm))
        rev = chain_cost_for_order(ci, Ordering(tuple(reversed(perm))))
        assert fwd == rev


def test_optimum_transfer_random():
    rng = random.Random(61)
    for _ in range(12):
        n = rng.randint(2, 6)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = MultiGraph(n, [(u, v, 1) for u, v in rng.sample(pool, rng.randint(1, len(pool)))])
        ci, _ = ola_to_chain(g, 0)
        assert (
            min_chain_completion_exact(ci.graph).value
            == ola_exact(g).value + correspondence_constant(g)
        )


def test_two_clique_cover_single_edge():
    h = BipartiteGraph(1, 1, [(0, 0)])
    ch = two_clique_cover(h)
    assert ch.n == 2 and ch.m == 1
    assert min_fill_in_exact(ch).value == 0


def test_fillin_transfer_2k2():
    ch = two_clique_cover(TWO_K2)
    assert min_fill_in_exact(ch).value == 1 == min_chain_completion_exact(TWO_K2).value


def test_fillin_transfer_random_and_class_coincidence():
    rng = random.Random(62)
    for _ in range(20):
        a = rng.randint(1, 5)
        b = rng.randint(1, min(5, 9 - a))
        pool = [(x, y) for x in range(a) for y in range(b)]
        h = BipartiteGraph(a, b, rng.sample(pool, rng.randint(0, len(pool))))
        ch = two_clique_cover(h)
        fill = min_fill_in_exact(ch)
        assert fill.value == min_chain_completion_exact(h).value
        assert verify_completion(ch, fill.witness, "chordal")
        assert verify_completion(ch, fill.witness, "interval")
        assert verify_completion(ch, fill.witness, "proper_interval")


def test_threshold_transfer():
    g = a_clique_cover(TWO_K2)
    res = min_completion_exact(g, "threshold")
    assert res.value == 1 == min_chain_completion_exact(TWO_K2).value
    assert min_completion_exact(g, "trivially_perfect").value == 1
    completed = MultiGraph(g.n, g.edges + tuple((u, v, 1) for u, v in res.witness))
    from gapchain.oracle import is_threshold, is_trivially_perfect

    assert is_threshold(completed) and is_trivially_perfect(completed)


def test_threshold_transfer_random():
    rng = random.Random(63)
    for _ in range(8):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        pool = [(x, y) for x in range(a) for y in range(b)]
        h = BipartiteGraph(a, b, rng.sample(pool, rng.randint(0, len(pool))))
        g = a_clique_cover(h)
        want = min_chain_completion_exact(h).value
        assert min_completion_exact(g, "threshold").value == want
        assert min_completion_exact(g, "trivially_perfect").value == want


def test_chain_to_builders_share_graphs_and_budget():
    # the five completion steps run one of two builders
    builders = {name: STEPS[name][2].__closure__[0].cell_contents for name in STEPS
                if name.startswith("chain_to_")}
    assert builders == {
        "chain_to_fillin": chain_to_fillin,
        "chain_to_interval": chain_to_fillin,
        "chain_to_proper_interval": chain_to_fillin,
        "chain_to_threshold": chain_to_threshold,
        "chain_to_trivially_perfect": chain_to_threshold,
    }
    ci, _ = ola_to_chain(PAW, 5)
    fill_g, fill_k = chain_to_fillin(ci)
    thr_g, thr_k = chain_to_threshold(ci)
    assert fill_k == thr_k == ci.budget
    assert fill_g.n == thr_g.n == ci.graph.a_size + ci.graph.b_size


def test_verify_completion():
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert verify_completion(c4, [(0, 2)], "chordal")
    assert not verify_completion(c4, [], "chordal")
    with pytest.raises(DomainError):
        verify_completion(c4, [(0, 1)], "chordal")


def test_verify_completion_normalizes_edge_order():
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert verify_completion(c4, [(2, 0)], "chordal")
