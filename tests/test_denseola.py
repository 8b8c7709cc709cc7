import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from gapchain.denseola import (
    complete_graph_arrangement_cost,
    cut_from_ordering,
    maxcut_to_ola,
    normalized_clique_ordering,
    ordering_from_cut,
    star_identity_holds,
)
from gapchain.errors import DomainError
from gapchain.model import (
    GapParams,
    MultiGraph,
    Ordering,
    VertexPartition,
    cost_of_ordering,
    cut_size,
)
from gapchain.oracle import max_cut_exact, ola_exact
from gapchain.satchain import GapInstance


def build(g, alpha=0, beta=1):
    return maxcut_to_ola(GapInstance(g, GapParams(alpha, beta), "edges"))


def random_simple(rng, n):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    k = rng.randint(0, len(pool))
    return MultiGraph(n, [(u, v, 1) for u, v in rng.sample(pool, k)])


def test_single_edge_example():
    g = MultiGraph(2, [(0, 1)])
    out = build(g)
    assert out.M == 2
    assert out.graph.n == 6
    # K6 minus the source edge
    assert out.graph.m == math.comb(6, 2) - 1
    assert out.budget == math.comb(7, 3) - 1 * 1 * 4 == 31
    assert ola_exact(out.graph).value == 30


def test_vertex_count_formula():
    rng = random.Random(50)
    for _ in range(10):
        n = rng.randint(1, 5)
        g = random_simple(rng, n)
        out = build(g)
        assert out.graph.n == (out.M + 1) * n


def test_rejects_non_simple_and_empty_gap():
    with pytest.raises(DomainError):
        build(MultiGraph(2, [(0, 1, 2)]))


def test_threshold_ceiling_flag():
    g = MultiGraph(3, [(0, 1), (1, 2)])  # m = 2
    out = build(g, alpha=0, beta=Fraction(3, 4))  # beta*m = 3/2
    assert out.threshold_ceiled
    assert out.budget == complete_graph_arrangement_cost(out.graph.n) - 2 * out.M * 3
    out2 = build(g, alpha=0, beta=Fraction(1, 2))  # beta*m = 1
    assert not out2.threshold_ceiled


def test_star_identity_multiset_and_enumeration():
    rng = random.Random(51)
    # the multiset tiling is equivalent to the per-ordering identity
    for _ in range(15):
        n = rng.randint(1, 4)
        out = build(random_simple(rng, n))
        assert star_identity_holds(out)
    # direct enumeration where feasible: every ordering, n <= 3 source
    for g in (
        MultiGraph(2, [(0, 1)]),
        MultiGraph(3, [(0, 1), (1, 2)]),
        MultiGraph(3, []),
    ):
        out = build(g)
        total = out.graph.n
        # the source's edges on its own vertices, the first n of the output
        placed = MultiGraph.from_arrays(total, out.source.u, out.source.v, out.source.mult)
        if total > 7:
            perms = [
                tuple(rng.sample(range(total), total)) for _ in range(200)
            ]
        else:
            perms = itertools.permutations(range(total))
        for perm in perms:
            pi = Ordering(perm)
            lhs = cost_of_ordering(out.graph, pi) + cost_of_ordering(placed, pi)
            assert lhs == complete_graph_arrangement_cost(total)


def _with_graph_edges(out, edges):
    return dataclasses.replace(out, graph=MultiGraph(out.graph.n, edges))


def test_star_identity_rejects_mutated_outputs():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    out = build(g)
    edges = list(out.graph.edges)
    assert star_identity_holds(_with_graph_edges(out, edges))
    dropped = edges[:5] + edges[6:]
    assert not star_identity_holds(_with_graph_edges(out, dropped))
    u, v, _ = edges[5]
    duplicated = edges[:5] + [(u, v, 2)] + edges[6:]
    assert not star_identity_holds(_with_graph_edges(out, duplicated))
    with_source_edge = edges + [(0, 1, 1)]
    assert not star_identity_holds(_with_graph_edges(out, with_source_edge))
    # the right pair count, but a source edge covers a pair twice and one pair is missed
    swapped = edges[1:] + [(0, 1, 1)]
    assert not star_identity_holds(_with_graph_edges(out, swapped))
    # the right pair count, with a loop standing in for a missing pair
    looped = edges[1:] + [(0, 0, 1)]
    assert not star_identity_holds(_with_graph_edges(out, looped))


def test_ordering_from_cut_matches_budget():
    g = MultiGraph(2, [(0, 1)])
    out = build(g)
    pi = ordering_from_cut(out, VertexPartition((False, True)))
    assert cost_of_ordering(out.graph, pi) == 30 <= out.budget


def test_forward_and_backward_soundness():
    rng = random.Random(52)
    forward_checked = 0
    for trial in range(30):
        n = rng.randint(2, 5)
        g = random_simple(rng, n)
        if g.m == 0:
            continue
        out = build(g)
        cut = max_cut_exact(g)
        arr = ola_exact(out.graph)
        if cut.value >= g.m:  # beta = 1
            forward_checked += 1
            pi = ordering_from_cut(out, cut.witness)
            assert cost_of_ordering(out.graph, pi) <= out.budget
            assert arr.value <= out.budget
        if arr.value <= out.budget:
            assert cut.value > 0  # alpha = 0
    assert forward_checked > 0


def test_normalization_never_increases_cost():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 4)
        out = build(random_simple(rng, n))
        perm = list(range(out.graph.n))
        rng.shuffle(perm)
        pi = Ordering(tuple(perm))
        norm = normalized_clique_ordering(out, pi)
        assert cost_of_ordering(out.graph, norm) <= cost_of_ordering(out.graph, pi)
        pos = norm.positions()
        cp = sorted(pos[c] for c in out.clique_vertices)
        assert cp == list(range(cp[0], cp[0] + len(cp)))


def test_cut_recovery_from_optimal_ordering():
    g = MultiGraph(2, [(0, 1)])
    out = build(g)
    rec = cut_from_ordering(out, ola_exact(out.graph).witness)
    assert cut_size(g, rec) == 1


def test_edgeless_source_costs_only_the_identity_term():
    # with no source edges the instance is complete: any split's ordering
    # costs exactly C(N+1, 3) and the budget equals it
    g = MultiGraph(3, [])
    out = build(g)
    assert out.budget == complete_graph_arrangement_cost(out.graph.n)
    for side in [(False, False, False), (False, True, False), (True, True, False)]:
        pi = ordering_from_cut(out, VertexPartition(side))
        assert cost_of_ordering(out.graph, pi) == out.budget
    assert ola_exact(out.graph).value == out.budget


def test_backward_soundness_at_positive_alpha():
    # gap [1/2, 1]: whenever the arrangement optimum meets the budget, the
    # source must have a cut strictly above m/2. (True no-side instances
    # cannot fit under the arrangement cap at any n: maxcut > m/2 holds for
    # every simple graph with an edge, and larger alpha inflates the clique.)
    rng = random.Random(54)
    for trial in range(40):
        n = rng.randint(2, 4)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        k = rng.randint(1, len(pool))
        g = MultiGraph(n, [(u, v, 1) for u, v in rng.sample(pool, k)])
        out = build(g, alpha=Fraction(1, 2), beta=1)
        arr = ola_exact(out.graph)
        cut = max_cut_exact(g)
        if arr.value <= out.budget:
            assert cut.value > Fraction(1, 2) * g.m
