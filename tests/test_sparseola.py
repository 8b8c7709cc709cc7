import random
from fractions import Fraction

import pytest

from gapchain.cli import gen_regular_graph
from gapchain.errors import DomainError
from gapchain.model import (
    GapParams,
    MultiGraph,
    Ordering,
    VertexPartition,
    cost_of_ordering,
    cut_size,
)
from gapchain.oracle import min_bisection_exact, ola_exact
from gapchain.sparseola import (
    apply_swap,
    bisection_from_ordering,
    build_t,
    compute_budget,
    derive_params,
    inequality_report,
    ordering_from_bisection,
    swap_bounds,
)

C4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

DESK = {"z": 2, "phi": Fraction(1, 2), "p_h": 1, "p_hi": 1}


def desk_params(alpha=Fraction(1, 2), beta=Fraction(1), d_g=2, **kw):
    over = dict(DESK)
    over.update(kw)
    return derive_params(GapParams(alpha, beta), d_g, "desk", over)


def test_paper_mode_derivation():
    p = derive_params(GapParams(0, 1), 5, "paper")
    assert p.gamma == Fraction(1, 4)
    assert p.phi == Fraction(1, 60)
    assert p.z == 120
    assert p.delta_hg == 60
    assert p.p_h == 3 * 60 + 3 * 120 + 5 + 1
    report = inequality_report(p)
    assert all(v for k, v in report.items() if v is not None)
    assert report["p_hi_recurrence"] is None  # needs achieved degrees


def test_paper_mode_rejects_small_degree():
    with pytest.raises(DomainError):
        derive_params(GapParams(0, 1), 4, "paper")  # needs d_g > 4
    with pytest.raises(DomainError):
        derive_params(GapParams(Fraction(1, 2), 1), 7, "paper")  # needs > 8


def test_desk_mode_reports_rather_than_rejects():
    p = desk_params()
    report = inequality_report(p)
    assert report["d_g_large_enough"] is False
    assert report["z_phi_at_least_2"] is False
    assert report["delta_hg_matches_phi"] is True


def test_desk_mode_needs_z_and_phi():
    with pytest.raises(DomainError):
        derive_params(GapParams(0, 1), 2, "desk", {"z": 2})
    with pytest.raises(DomainError):
        derive_params(GapParams(0, 1), 2, "desk", {"z": 2, "phi": "1/2", "bogus": 1})


def test_build_t_structure():
    layout = build_t(C4, desk_params(), seed=11)
    assert layout.graph.n == 4 + 2 * 2
    assert layout.block_size == 2
    assert len(layout.h_block_ranges) == 2
    assert layout.params.d_h is not None
    assert len(layout.params.d_hi) == 2
    # every source vertex has exactly one bipartite edge into each block
    for v in layout.g_vertices:
        for block in layout.h_block_ranges:
            w = sum(
                mult
                for a, b, mult in layout.graph.edges
                if (a == v and b in block) or (b == v and a in block)
            )
            assert w == 1
    assert layout.graph.max_degree <= layout.params.degree_bound()


def test_build_t_bipartite_degrees_balanced():
    import math

    g6 = gen_regular_graph(6, 2, seed=77)
    params = desk_params(phi=Fraction(1, 3), z=2)
    layout = build_t(g6, params, seed=3)
    src = set(layout.g_vertices)
    for block in layout.h_block_ranges:
        degs = []
        for h in block:
            w = sum(
                mult
                for a, b, mult in layout.graph.edges
                if (a == h and b in src) or (b == h and a in src)
            )
            degs.append(w)
        assert max(degs) - min(degs) <= 1
        assert max(degs) <= math.ceil(1 / params.phi)


def test_build_t_determinism():
    a = build_t(C4, desk_params(), seed=5)
    b = build_t(C4, desk_params(), seed=5)
    assert a.graph == b.graph
    c = build_t(C4, desk_params(), seed=6)
    assert a.graph != c.graph or a.params == c.params


def test_build_t_validates_source():
    with pytest.raises(DomainError):
        build_t(MultiGraph(3, [(0, 1), (1, 2), (0, 2)]), desk_params(), seed=0)  # odd n
    with pytest.raises(DomainError):
        build_t(MultiGraph(4, [(0, 1)]), desk_params(), seed=0)  # not regular


def test_budget_formula_term_by_term():
    layout = build_t(C4, desk_params(alpha=Fraction(1, 2)), seed=11)
    ola_h = ola_exact(layout.h_graph).value
    k = compute_budget(layout, ola_h)
    n, z, b, m = 4, 2, 2, 4
    alpha_m = Fraction(1, 2) * m
    expected = (
        ola_h
        + int(alpha_m) * (z * b + n)
        + m * n // 2
        + ((n // 2 + 1) * (n // 2) * z + n * (1 * b + 2 * b))
    )
    assert k == expected


def test_budget_alpha_integrality():
    layout = build_t(C4, desk_params(alpha=Fraction(1, 3)), seed=11)
    with pytest.raises(DomainError):
        compute_budget(layout, 0)


def test_ordering_from_bisection_cost_within_budget():
    rng = random.Random(70)
    for n, d_g in [(4, 2), (4, 3), (6, 2), (6, 3)]:
        for s in range(3):
            g = gen_regular_graph(n, d_g, seed=1000 + 10 * n + d_g + s)
            bis = min_bisection_exact(g)
            alpha = Fraction(max(bis.value, 1), g.m) if bis.value < g.m else Fraction(g.m - 1, g.m)
            params = derive_params(GapParams(alpha, 1), d_g, "desk", dict(DESK))
            layout = build_t(g, params, seed=200 + s)
            hres = ola_exact(layout.h_graph)
            budget = compute_budget(layout, hres.value)
            if bis.value <= alpha * g.m:
                arr = ordering_from_bisection(layout, bis.witness, hres.witness)
                assert cost_of_ordering(layout.graph, arr) <= budget
                # the H-internal term is exactly the cost of pi_h on H
                pos = arr.positions()
                h_cost = sum(
                    mult * abs(pos[u] - pos[v])
                    for u, v, mult in layout.graph.edges
                    if u in set(layout.h_vertices) and v in set(layout.h_vertices)
                )
                assert h_cost == hres.value


def test_ordering_from_bisection_validates():
    layout = build_t(C4, desk_params(), seed=1)
    h_count = layout.graph.n - 4
    pi_h = Ordering(tuple(range(h_count)))
    with pytest.raises(DomainError):
        ordering_from_bisection(layout, VertexPartition((False, False, False, True)), pi_h)


def test_swap_bounds_no_edges():
    g = MultiGraph(6, [])
    pi = Ordering((0, 1, 2, 3, 4, 5))
    assert swap_bounds(g, pi, [1, 2], [3]) == (0, 0, 0, Fraction(0))


def test_swap_bounds_complete_bipartite_to_right():
    # X = {0, 1} at positions 0-1, Y = {2} at 2, R = {3, 4}; edges X x R only
    g = MultiGraph(5, [(0, 3), (0, 4), (1, 3), (1, 4)])
    pi = Ordering((0, 1, 2, 3, 4))
    p_x, p_c, p_y, p_avg = swap_bounds(g, pi, [0, 1], [2])
    assert (p_x, p_c, p_y) == (0, 0, 0)
    assert p_avg == Fraction(4, 2)


def test_swap_bounds_validates_blocks():
    g = MultiGraph(4, [])
    pi = Ordering((0, 1, 2, 3))
    with pytest.raises(DomainError):
        swap_bounds(g, pi, [0, 2], [3])
    with pytest.raises(DomainError):
        swap_bounds(g, pi, [0], [2])


@pytest.mark.parametrize("x, y, message", [
    ([], [1], "swap blocks must be disjoint and nonempty"),
    ([1], [], "swap blocks must be disjoint and nonempty"),
    ([1], [1, 2], "swap blocks must be disjoint and nonempty"),
    ([0, 2], [3], "X is not consecutive in the ordering"),
    ([1], [3, 5], "Y is not consecutive in the ordering"),
    ([2, 1], [4], "X does not immediately precede Y"),
    ([3], [2], "X does not immediately precede Y"),
])
def test_swap_functions_reject_the_same_blocks(x, y, message):
    g = MultiGraph(6, [(0, 5)])
    pi = Ordering((0, 1, 2, 3, 4, 5))
    with pytest.raises(DomainError, match=f"^{message}$"):
        swap_bounds(g, pi, x, y)
    with pytest.raises(DomainError, match=f"^{message}$"):
        apply_swap(pi, x, y)


def test_apply_swap_mechanics():
    pi = Ordering((3, 1, 0, 5, 2, 4))
    sw = apply_swap(pi, [1, 0], [5])
    assert sw.perm == (3, 5, 1, 0, 2, 4)
    back = apply_swap(sw, [5], [1, 0])
    assert back.perm == pi.perm
    # singleton blocks swap like adjacent transpositions
    t = apply_swap(Ordering((0, 1, 2)), [1], [2])
    assert t.perm == (0, 2, 1)


def test_swap_condition_forces_strict_improvement():
    rng = random.Random(71)
    triggered = 0
    for _ in range(300):
        n = 10
        edges = []
        for _ in range(rng.randint(5, 25)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.randint(1, 3)))
        g = MultiGraph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        pi = Ordering(tuple(perm))
        i = rng.randint(0, n - 3)
        lx = rng.randint(1, min(3, n - 2 - i))
        ly = rng.randint(1, min(3, n - 1 - i - lx))
        x = perm[i : i + lx]
        y = perm[i + lx : i + lx + ly]
        p_x, p_c, p_y, p_avg = swap_bounds(g, pi, x, y)
        if p_avg > p_x + 2 * p_c + p_y:
            triggered += 1
            assert cost_of_ordering(g, apply_swap(pi, x, y)) < cost_of_ordering(g, pi)
    assert triggered >= 10


def test_bisection_from_ordering_roundtrip():
    rng = random.Random(72)
    for s in range(4):
        g = gen_regular_graph(4, 2, seed=300 + s)
        layout = build_t(g, desk_params(), seed=s)
        full = ola_exact(layout.graph)
        rec = bisection_from_ordering(layout, full.witness)
        sizes = rec.sizes()
        assert sizes[0] == sizes[1] == 2
        # recovered cut quality is reported, not asserted: just evaluable
        assert cut_size(g, rec) >= min_bisection_exact(g).value


def test_bisection_from_ordering_consecutive_h():
    layout = build_t(C4, desk_params(), seed=9)
    h = list(layout.h_vertices)
    pi = Ordering((0, 1, *h, 2, 3))
    rec = bisection_from_ordering(layout, pi)
    assert rec.side == (False, False, True, True)


def test_bisection_from_ordering_total_on_scrambled_orderings():
    # arbitrary orderings (H split, swaps may stall): the lift must still
    # return a balanced partition
    rng = random.Random(73)
    layout = build_t(C4, desk_params(), seed=2)
    for _ in range(30):
        perm = list(range(layout.graph.n))
        rng.shuffle(perm)
        rec = bisection_from_ordering(layout, Ordering(tuple(perm)))
        assert rec.sizes() == (2, 2)
