"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single pass/fail line. Values tagged as frozen were
computed with the stated independent oracle first and pinned here.
"""

import itertools
import math
import random
import statistics
from fractions import Fraction

from gapchain.cli import gen_e3cnf, gen_regular_graph
from gapchain.completion import chain_cost_for_order, ola_to_chain, two_clique_cover
from gapchain.denseola import (
    maxcut_to_ola,
    ordering_from_cut,
    star_identity_holds,
)
from gapchain.expander import build_expander, cheeger_exact, spectral_cheeger_bound
from gapchain.fastchain import (
    audit_ssat_profile,
    blowup,
    complete_to_tournament,
    fvs_to_fas,
    nae3_to_ssat,
    ssat_to_fvs,
    subdivide_arcs,
)
from gapchain.model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    GapParams,
    MultiGraph,
    Ordering,
    VertexPartition,
    cost_of_ordering,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)
from gapchain.oracle import (
    backward_arc_weight,
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
    min_fas_exact,
    min_fill_in_exact,
    min_fvs_exact,
    ola_exact,
)
from gapchain.satchain import (
    GapInstance,
    e3sat_to_nae4sat,
    multicut_to_simplecut,
    nae3sat_to_multicut,
    nae4sat_to_nae3sat,
)
from gapchain.sparseola import (
    apply_swap,
    build_t,
    compute_budget,
    derive_params,
    inequality_report,
    ordering_from_bisection,
    swap_bounds,
)


def _report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


def all_simple_graphs(n):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pool)):
        yield MultiGraph(
            n, [(u, v, 1) for i, (u, v) in enumerate(pool) if mask >> i & 1]
        )


def test_criterion_1_satchain_identities():
    """Stepwise exact equalities plus closed-form gap composition.

    The first three equalities run on the full chain. The chained simple-cut
    instance has at least 34 vertices at every input size, beyond any
    enumeration oracle, so the fourth equality runs on direct multigraph
    inputs of the last step instead (sizes where 2^(n-1) enumeration is exact).
    """
    violations = []
    rng = random.Random(20240101)
    gap = GapParams(Fraction(1, 2), 1)
    for trial in range(100):
        n = rng.randint(3, 6)
        m = rng.randint(1, min(8, 10 - n))
        f = gen_e3cnf(n, m, seed=trial)
        gi = GapInstance(f, gap, "clauses")
        k = max_sat_exact(f).value

        s1, _ = e3sat_to_nae4sat(gi)
        v1 = max_nae_exact(s1.instance).value
        if v1 != k:
            violations.append(("step1", trial))
        s2, _ = nae4sat_to_nae3sat(s1)
        v2 = max_nae_exact(s2.instance).value
        if v2 != s1.instance.m + v1:
            violations.append(("step2", trial))
        s3, _ = nae3sat_to_multicut(s2)
        v3 = max_cut_exact(s3.instance).value
        if v3 != 3 * s2.instance.m + 2 * v2:
            violations.append(("step3", trial))
        s4, _ = multicut_to_simplecut(s3)
        if s4.gap != GapParams((16 + gap.alpha) / 18, (16 + gap.beta) / 18):
            violations.append(("gap", trial))

    for trial in range(100):
        rng2 = random.Random(555000 + trial)
        n = rng2.randint(2, 6)
        edges = []
        for _ in range(rng2.randint(1, 8)):
            u, v = rng2.sample(range(n), 2)
            edges.append((u, v, 1))
        g = MultiGraph(n, edges)
        out, _ = multicut_to_simplecut(GapInstance(g, gap, "edges"))
        if max_cut_exact(out.instance).value != 2 * g.m + max_cut_exact(g).value:
            violations.append(("step4", trial))

    ok = not violations
    _report("criterion 1 (satchain identities)", ok)
    assert ok, violations[:5]


def test_criterion_2_denseola_bounds():
    """Identity (*) and both soundness directions, gap [0, 1], exact.

    The per-ordering identity holds for every ordering iff the two edge
    multisets tile the complete graph, which is checked exactly for every
    simple source with n <= 4; ordering enumeration is run in full wherever
    the instance has at most 9 vertices (source n <= 3).
    """
    violations = []
    gap = GapParams(0, 1)

    for n in range(1, 5):
        for g in all_simple_graphs(n):
            out = maxcut_to_ola(GapInstance(g, gap, "edges"))
            if out.graph.n != (out.M + 1) * n:
                violations.append(("vertex-count", g.edges))
            if not star_identity_holds(out):
                violations.append(("star-multiset", g.edges))

    # full ordering enumeration at source sizes whose instance has <= 9 vertices
    for g in [
        MultiGraph(2, [(0, 1)]),
        MultiGraph(2, []),
        MultiGraph(3, [(0, 1), (1, 2)]),
        MultiGraph(3, [(0, 1), (1, 2), (0, 2)]),
    ]:
        out = maxcut_to_ola(GapInstance(g, gap, "edges"))
        rhs = math.comb(out.graph.n + 1, 3)
        pairs_out = [(u, v, m) for u, v, m in out.graph.edges]
        pairs_src = [(u, v, m) for u, v, m in g.edges]
        for perm in itertools.permutations(range(out.graph.n)):
            pos = [0] * len(perm)
            for i, v in enumerate(perm):
                pos[v] = i
            lhs = sum(m * abs(pos[u] - pos[v]) for u, v, m in pairs_out)
            lhs += sum(m * abs(pos[u] - pos[v]) for u, v, m in pairs_src)
            if lhs != rhs:
                violations.append(("star-enumeration", g.edges, perm))
                break

    rng = random.Random(20240202)
    forward_exercised = 0
    for trial in range(50):
        n = rng.randint(2, 5)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = MultiGraph(n, [(u, v, 1) for u, v in rng.sample(pool, rng.randint(1, len(pool)))])
        out = maxcut_to_ola(GapInstance(g, gap, "edges"))
        cut = max_cut_exact(g)
        arr = ola_exact(out.graph)
        if cut.value >= g.m:  # beta*m with beta = 1
            forward_exercised += 1
            pi = ordering_from_cut(out, cut.witness)
            if cost_of_ordering(out.graph, pi) > out.budget or arr.value > out.budget:
                violations.append(("forward", trial))
        if arr.value <= out.budget and not cut.value > 0:  # alpha = 0
            violations.append(("backward", trial))

    ok = not violations and forward_exercised > 0
    _report("criterion 2 (dense arrangement bounds)", ok)
    assert ok, violations[:5]


def test_criterion_3_completion():
    """Per-ordering chain-cost equality, optimum transfers, the paw instance."""
    violations = []

    def per_order_equality_holds(g):
        ci, _ = ola_to_chain(g, 0)
        const = g.max_degree * g.n * (g.n - 1) // 2 - 2 * g.m
        for perm in itertools.permutations(range(g.n)):
            pi = Ordering(perm)
            if chain_cost_for_order(ci, pi) != cost_of_ordering(g, pi) + const:
                return False
        return True

    for n in range(1, 6):
        for g in all_simple_graphs(n):
            if not per_order_equality_holds(g):
                violations.append(("per-order-simple", n, g.edges))

    rng = random.Random(20240303)
    for trial in range(20):
        n = rng.randint(2, 5)
        edges = []
        for _ in range(rng.randint(1, 6)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.randint(2, 3)))
        g = MultiGraph(n, edges)
        if not per_order_equality_holds(g):
            violations.append(("per-order-multi", trial))

    for trial in range(10):
        n = rng.randint(2, 6)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = MultiGraph(n, [(u, v, 1) for u, v in rng.sample(pool, rng.randint(1, len(pool)))])
        ci, _ = ola_to_chain(g, 0)
        const = g.max_degree * g.n * (g.n - 1) // 2 - 2 * g.m
        if min_chain_completion_exact(ci.graph).value != ola_exact(g).value + const:
            violations.append(("transfer", trial))

    for trial in range(50):
        a = rng.randint(1, 5)
        b = rng.randint(1, min(5, 9 - a))
        pool = [(x, y) for x in range(a) for y in range(b)]
        h = BipartiteGraph(a, b, rng.sample(pool, rng.randint(0, len(pool))))
        ch = two_clique_cover(h)
        fill = min_fill_in_exact(ch)
        if fill.value != min_chain_completion_exact(h).value:
            violations.append(("fillin-transfer", trial))
        completed = MultiGraph(ch.n, ch.edges + tuple((u, v, 1) for u, v in fill.witness))
        if not (is_interval(completed) and is_proper_interval(completed)):
            violations.append(("class-coincidence", trial))

    paw = MultiGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    ci, _ = ola_to_chain(paw, 5)
    if ci.budget != 15:
        violations.append(("paw-budget", ci.budget))
    if min_chain_completion_exact(ci.graph).value != 15:
        violations.append(("paw-optimum",))

    ok = not violations
    _report("criterion 3 (completion correspondences)", ok)
    assert ok, violations[:5]


def test_criterion_4_sparseola_desk():
    """Desk-mode structure and budgets, swap condition, paper-mode derivation."""
    violations = []
    desk = {"z": 2, "phi": Fraction(1, 2), "p_h": 1, "p_hi": 1}

    instances = []
    for n, d_g in [(4, 2), (4, 3), (6, 2), (6, 3)]:
        for s in range(5):
            instances.append((gen_regular_graph(n, d_g, seed=100 * n + 10 * d_g + s), d_g, s))
    assert len(instances) == 20
    forward_exercised = 0
    for g, d_g, s in instances:
        bis = min_bisection_exact(g)
        alpha = Fraction(bis.value, g.m) if 0 < bis.value < g.m else Fraction(1, 2)
        params = derive_params(GapParams(alpha, 1), d_g, "desk", dict(desk))
        layout = build_t(g, params, seed=7000 + s)
        bsize = layout.block_size
        if layout.graph.n != g.n + params.z * bsize:
            violations.append(("vertex-count", g.n, d_g, s))
        if layout.graph.max_degree > layout.params.degree_bound():
            violations.append(("degree-bound", g.n, d_g, s))
        if layout.graph.n > 18:
            violations.append(("desk-size", layout.graph.n))
        alpha_m = alpha * g.m
        if alpha_m.denominator == 1 and bis.value <= alpha_m:
            forward_exercised += 1
            hres = ola_exact(layout.h_graph)
            budget = compute_budget(layout, hres.value)
            arr = ordering_from_bisection(layout, bis.witness, hres.witness)
            if cost_of_ordering(layout.graph, arr) > budget:
                violations.append(("forward-bound", g.n, d_g, s))

    rng = random.Random(20240404)
    triggered = 0
    for trial in range(500):
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
            if cost_of_ordering(g, apply_swap(pi, x, y)) >= cost_of_ordering(g, pi):
                violations.append(("swap-condition", trial))
    if triggered == 0:
        violations.append(("swap-never-triggered",))

    paper = derive_params(GapParams(0, 1), 5, "paper")
    if (paper.gamma, paper.phi, paper.z) != (Fraction(1, 4), Fraction(1, 60), 120):
        violations.append(("paper-params", paper))
    report = inequality_report(paper)
    if not all(v for v in report.values() if v is not None):
        violations.append(("paper-inequalities", report))

    ok = not violations
    _report("criterion 4 (sparse desk mode + swap condition)", ok)
    assert ok, violations[:5]


def test_criterion_5_fastchain():
    """Profile audits, FVS/FAS equalities, subdivision, blow-up, tournaments."""
    violations = []
    rng = random.Random(20240505)

    for trial in range(20):
        f = gen_e3cnf(4, rng.randint(1, 4), seed=trial)
        out, gadget_d = nae3_to_ssat(GapInstance(f, GapParams(0, 1), "clauses"), seed=trial)
        try:
            d = audit_ssat_profile(out.instance)
        except Exception as exc:  # noqa: BLE001 - report as violation
            violations.append(("profile", trial, str(exc)))
            continue
        if d != gadget_d:
            violations.append(("profile-degree", trial))

    def random_balanced_regular(n, r, seed):
        rr = random.Random(seed)
        arcs = []
        for _ in range(r):
            while True:
                perm = list(range(n))
                rr.shuffle(perm)
                if all(perm[i] != i for i in range(n)):
                    break
            arcs.extend((i, perm[i], 1) for i in range(n))
        return Digraph(n, arcs)

    fvs_inputs = [Digraph(2, [(0, 1), (1, 0)]), Digraph(3, [(0, 1), (1, 2), (2, 0)])]
    for n in (4, 6, 8):
        for r in (1, 2):
            for s in range(2):
                fvs_inputs.append(random_balanced_regular(n, r, seed=n * 100 + r * 10 + s))
    for i, d in enumerate(fvs_inputs):
        gi = GapInstance(d, GapParams(Fraction(1, 4), Fraction(1, 2)), "vertices")
        out = fvs_to_fas(gi)
        if min_fas_exact(out.instance).value != min_fvs_exact(d).value:
            violations.append(("fvs-fas", i))

    for trial in range(10):
        n = rng.randint(2, 6)
        arcs = []
        for _ in range(rng.randint(1, 7)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, 1))
        d = Digraph(n, arcs)
        if min_fas_exact(subdivide_arcs(d)).value != min_fas_exact(d).value:
            violations.append(("subdivision", trial))

    triangle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    dicycle4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for core in (triangle, dicycle4):
        base = min_fas_exact(core).value
        for t in (2, 3):
            if core.n * t > 12:
                continue
            if min_fas_exact(blowup(core, t)).value != t * t * base:
                violations.append(("blowup", core.n, t))

    core = blowup(triangle, 2)
    base = min_fas_exact(core).value
    observed = []
    random_arcs = None
    for seed in range(30):
        tour, random_arcs = complete_to_tournament(core, seed=seed)
        val = min_fas_exact(tour).value
        observed.append(val)
        if not base <= val <= base + random_arcs:
            violations.append(("sandwich", seed))

    # informational Monte Carlo report (not asserted): centered mean vs fas(G_t)
    centered = statistics.mean(observed) - random_arcs / 2
    spread = statistics.stdev(observed) if len(set(observed)) > 1 else 0.0
    stderr = spread / math.sqrt(len(observed)) if spread else 0.0
    print(
        f"[acceptance] criterion 5 monte carlo: mean(fas(T)) - |R|/2 = {centered:.3f}, "
        f"fas(G_t) = {base}, stderr = {stderr:.3f}"
    )

    ok = not violations
    _report("criterion 5 (feedback chain)", ok)
    assert ok, violations[:5]


def test_criterion_6_expander():
    """Exactly certified expanders for n <= 16, p in {1, 2}, 10 seeds each."""
    violations = []
    for p in (1, 2):
        for n in range(1, 17):
            for seed in range(10):
                g, spec = build_expander(n, p, seed=seed)
                if not g.is_regular(spec.d):
                    violations.append(("regularity", n, p, seed))
                if spec.certificate_kind != "exact":
                    violations.append(("certificate-kind", n, p, seed))
                if n > 1:
                    exact = cheeger_exact(g)
                    if exact < p:
                        violations.append(("cheeger", n, p, seed))
                    bound = spectral_cheeger_bound(g, spec.d)
                    if bound > exact + Fraction(1, 10**9):
                        violations.append(("spectral-vs-exact", n, p, seed))
    ok = not violations
    _report("criterion 6 (certified expanders)", ok)
    assert ok, violations[:5]


def test_criterion_7_oracle_self_consistency():
    """Oracles vs raw permutation enumeration; witnesses re-evaluate; Table 1."""
    violations = []
    rng = random.Random(20240707)

    for trial in range(6):
        n = rng.randint(2, 8)
        edges = []
        for _ in range(rng.randint(1, 12)):
            u = rng.randint(0, n - 1)
            v = rng.randint(0, n - 1)
            edges.append((u, v, rng.randint(1, 2)))
        g = MultiGraph(n, edges)
        res = ola_exact(g)
        brute = min(
            cost_of_ordering(g, Ordering(p)) for p in itertools.permutations(range(n))
        )
        if res.value != brute or cost_of_ordering(g, res.witness) != res.value:
            violations.append(("ola", trial))

    for trial in range(6):
        n = rng.randint(2, 7)
        arcs = [
            (rng.randint(0, n - 1), rng.randint(0, n - 1), rng.randint(1, 2))
            for _ in range(rng.randint(1, 12))
        ]
        d = Digraph(n, arcs)
        res = min_fas_exact(d)
        brute = min(
            backward_arc_weight(d, Ordering(p))
            for p in itertools.permutations(range(n))
        )
        if res.value != brute or backward_arc_weight(d, res.witness) != res.value:
            violations.append(("fas", trial))

    # witnesses re-evaluate across solver types
    g = MultiGraph(6, [(0, 1), (1, 2, 2), (3, 4), (4, 5), (0, 5)])
    r = max_cut_exact(g)
    if cut_size(g, r.witness) != r.value:
        violations.append(("cut-witness",))
    r = min_bisection_exact(g)
    if cut_size(g, r.witness) != r.value:
        violations.append(("bisection-witness",))
    f = gen_e3cnf(5, 6, seed=1)
    r = max_sat_exact(f)
    if count_satisfied(f, r.witness) != r.value:
        violations.append(("sat-witness",))
    r = max_nae_exact(f)
    if count_nae_satisfied(f, r.witness) != r.value:
        violations.append(("nae-witness",))
    h = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
    r = min_chain_completion_exact(h)
    from gapchain.oracle import is_chain

    if not is_chain(BipartiteGraph(3, 3, h.edges + r.witness)):
        violations.append(("chain-witness",))
    c5 = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    r = min_fill_in_exact(c5)
    if r.value != 2 or not is_chordal(
        MultiGraph(5, c5.edges + tuple((u, v, 1) for u, v in r.witness))
    ):
        violations.append(("fillin-witness",))

    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    two_k2 = MultiGraph(4, [(0, 1), (2, 3)])
    p4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    claw = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    tent3 = MultiGraph(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 1), (4, 1), (4, 2), (5, 2)]
    )
    table = [
        (c4, dict(chordal=False, interval=False, proper=False, thr=False, tp=False)),
        (two_k2, dict(chordal=True, interval=True, proper=True, thr=False, tp=True)),
        (p4, dict(chordal=True, interval=True, proper=True, thr=False, tp=False)),
        (claw, dict(chordal=True, interval=True, proper=False, thr=True, tp=True)),
        (tent3, dict(chordal=True, interval=False, proper=False, thr=False, tp=False)),
    ]
    for g, want in table:
        got = dict(
            chordal=is_chordal(g),
            interval=is_interval(g),
            proper=is_proper_interval(g),
            thr=is_threshold(g),
            tp=is_trivially_perfect(g),
        )
        if got != want:
            violations.append(("recognizer", g.edges, got, want))

    ok = not violations
    _report("criterion 7 (oracle self-consistency)", ok)
    assert ok, violations[:5]
