"""Expander construction and certificates.

`_reference_sample` and `_reference_spectral` are the tuple loops the column
code replaced; they live on here only as the reference. `_reference_cheeger`
sums each cut edge by edge with `cut_size`, apart from the subset tables.
`_reference_build_expander` and `_reference_build_expander_family` are the
builders with their own sample-and-certify loops, before both shared one;
they build a `MultiGraph` for every sample and certify it through
`cheeger_exact` and `spectral_cheeger_bound`, as the builders did before
they certified each stub matching from its pair-count matrix.
"""

import itertools
import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapchain.bitops import adjacency_matrix, mask_to_side_tuple
from gapchain.errors import CapExceededError, ConstructionError, DomainError
from gapchain import expander
from gapchain.expander import (
    ExpanderSpec,
    build_expander,
    build_expander_family,
    cheeger_exact,
    sample_regular_multigraph,
    spectral_cheeger_bound,
)
from gapchain.model import MultiGraph, VertexPartition, cut_size

K4 = MultiGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
C6 = MultiGraph(6, [(i, (i + 1) % 6) for i in range(6)])


def test_cheeger_examples():
    # frozen from subset enumeration: the K4 minimum sits at |X| = 2 (4/2)
    assert cheeger_exact(K4) == 2
    assert cheeger_exact(C6) == Fraction(2, 3)
    disconnected = MultiGraph(4, [(0, 1), (2, 3)])
    assert cheeger_exact(disconnected) == 0
    assert cheeger_exact(MultiGraph(1, [(0, 0, 4)])) == math.inf


def test_cheeger_cap():
    with pytest.raises(CapExceededError, match=r"^cheeger_exact: n=21 exceeds cap 20$"):
        cheeger_exact(MultiGraph(21, []))


def test_cheeger_loops_never_leave():
    g = MultiGraph(2, [(0, 0, 9), (0, 1, 3)])
    assert cheeger_exact(g) == 3


def test_single_vertex_expander_is_loops():
    g, spec = build_expander(1, 2, seed=7)
    assert g.edges == ((0, 0, spec.d),)
    assert spec.certified_h == 2
    assert spec.certificate_kind == "exact"


def test_build_expander_certifies():
    for seed in range(5):
        g, spec = build_expander(4, 1, seed=seed)
        assert g.is_regular(spec.d)
        assert cheeger_exact(g) >= 1
        assert spec.certified_h >= 1


def test_build_expander_deterministic():
    a, sa = build_expander(6, Fraction(3, 2), seed=42)
    b, sb = build_expander(6, Fraction(3, 2), seed=42)
    assert a.edges == b.edges
    assert sa == sb
    c, _ = build_expander(6, Fraction(3, 2), seed=43)
    assert a.edges != c.edges or True  # different seed may rarely coincide


def test_build_expander_rejects_bad_args():
    with pytest.raises(DomainError):
        build_expander(0, 1, seed=0)
    with pytest.raises(DomainError):
        build_expander(3, 0, seed=0)


def test_build_expander_degree_ceiling():
    # two vertices need degree 82 for Cheeger number 40, above the ceiling
    with pytest.raises(ConstructionError, match="degree ceiling 64 reached after 0 samples"):
        build_expander(2, 40, seed=0)
    # 21 vertices take the spectral bound, which stays below 28 up to degree 64:
    # degrees 58, 60, 62 and 64 each draw their 32 samples
    with pytest.raises(ConstructionError, match="degree ceiling 64 reached after 128 samples"):
        build_expander(21, 28, seed=0)


def test_sample_regular_degree_convention():
    rng = random.Random(9)
    for n, d in [(1, 4), (2, 4), (5, 4), (7, 6), (10, 3)]:
        g = sample_regular_multigraph(n, d, rng)
        assert g.degrees() == [d] * n
    with pytest.raises(DomainError):
        sample_regular_multigraph(3, 3, rng)  # d*n odd


def test_spectral_bound_below_exact():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 10)
        d = rng.choice([2, 4, 6])
        g = sample_regular_multigraph(n, d, rng)
        assert spectral_cheeger_bound(g, d) <= cheeger_exact(g) + Fraction(1, 10**9)


def test_spectral_certification_above_exact_size():
    g, spec = build_expander(24, 1, seed=3)
    assert spec.certificate_kind == "spectral"
    assert spec.certified_h >= 1
    assert g.is_regular(spec.d)
    again, _ = build_expander(24, 1, seed=3)
    assert again.edges == g.edges


def test_family_shares_one_degree():
    fam, d = build_expander_family([1, 3, 2, 3, 1], 2, seed=17)
    assert len(fam) == 5
    for g, spec in fam:
        assert spec.d == d
        assert g.is_regular(d)
        assert spec.certified_h >= 2
    fam2, d2 = build_expander_family([1, 3, 2, 3, 1], 2, seed=17)
    assert d2 == d
    assert [g.edges for g, _ in fam2] == [g.edges for g, _ in fam]


def test_family_rejects_bad_args():
    with pytest.raises(DomainError):
        build_expander_family([2, 0], 1, seed=0)
    with pytest.raises(DomainError):
        build_expander_family([2, 3], 0, seed=0)


def _reference_sample(n, d, rng):
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    edges = []
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        edges.append((u, u, 2) if u == v else (u, v, 1))
    return MultiGraph(n, tuple(edges))


def _reference_cheeger(g):
    n = g.n
    if n <= 1:
        return math.inf
    mins = {}
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        if k <= n // 2:
            cut = cut_size(g, VertexPartition(mask_to_side_tuple(mask, n)))
            mins[k] = min(mins.get(k, cut), cut)
    return min(Fraction(cut, k) for k, cut in mins.items())


def _reference_spectral(g, d):
    n = g.n
    a = np.zeros((n, n), dtype=np.float64)
    for u, v, mult in g.edges:
        if u == v:
            a[u, u] += mult
        else:
            a[u, v] += mult
            a[v, u] += mult
    eigs = np.linalg.eigvalsh(a)
    lam2 = float(eigs[-2]) if n >= 2 else float("-inf")
    return Fraction(float(d) - lam2) / 2


@st.composite
def multigraphs(draw, n_min=1, n_max=10):
    """Loops, repeated edges in both orders, and multiplicities up to 2^40."""
    n = draw(st.integers(n_min, n_max))
    vertex = st.integers(0, n - 1)
    mult = st.one_of(st.integers(1, 4), st.integers(1, 2**40))
    return MultiGraph(n, draw(st.lists(st.tuples(vertex, vertex, mult), max_size=30)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 14), st.integers(0, 9), st.randoms(use_true_random=False))
def test_sample_matches_tuple_builder_and_draw_count(n, d, rng):
    if (d * n) % 2:
        d += 1
    seed = rng.getrandbits(64)
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = sample_regular_multigraph(n, d, got_rng)
    want = _reference_sample(n, d, want_rng)
    assert got == want and got.edges == want.edges
    assert got_rng.random() == want_rng.random()


@settings(max_examples=150, deadline=None)
@given(multigraphs())
# cuts scaled by lcm(1, 2, 3) = 6 leave int64 here
@example(MultiGraph(7, [(i, (i + 1) % 7, 2**59 + i) for i in range(7)] + [(0, 3, 5)]))
def test_cheeger_matches_per_level_minima(g):
    want = _reference_cheeger(g)
    for bits in (1, 2, 3, expander._SCALE_BLOCK_BITS):  # rows of every width, high parts of every count
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expander, "_SCALE_BLOCK_BITS", bits)
            assert cheeger_exact(g) == want


def test_cheeger_matches_per_level_minima_on_every_small_graph():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            g = MultiGraph(n, [p for p, keep in zip(pairs, chosen) if keep])
            assert cheeger_exact(g) == _reference_cheeger(g)


@settings(max_examples=150, deadline=None)
@given(multigraphs(n_min=2, n_max=12), st.integers(0, 20))
def test_spectral_bound_matches_edge_loop(g, d):
    got = spectral_cheeger_bound(g, d)
    assert type(got) is Fraction and got == _reference_spectral(g, d)


@pytest.mark.parametrize("g", [MultiGraph(0), MultiGraph(1), MultiGraph(1, [(0, 0, 6)])])
def test_spectral_bound_below_two_vertices_is_infinite(g):
    # no nonempty set of at most n/2 vertices exists, as in cheeger_exact
    assert spectral_cheeger_bound(g, 6) == math.inf == cheeger_exact(g)


def _reference_certify(g, d, p):
    if g.n == 1:
        return True, p, "exact"
    if g.n <= expander.EXACT_CERT_MAX_N:
        h = cheeger_exact(g)
        return h >= p, h, "exact"
    bound = spectral_cheeger_bound(g, d)
    return bound >= p, bound, "spectral"


def _reference_build_expander(n, p, rng, tries_per_degree=32, degree_ceiling=64):
    p = Fraction(p)
    if n < 1:
        raise DomainError("expander needs at least one vertex")
    if p <= 0:
        raise DomainError("required Cheeger bound p must be positive")
    # the first degree ceil(2p) + 2, and each next one, moves up to make d*n even
    d = math.ceil(2 * p) + 2
    if d * n % 2:
        d += 1
    best_seen = None
    attempts = 0
    while d <= degree_ceiling:
        for _ in range(tries_per_degree):
            attempts += 1
            g = sample_regular_multigraph(n, d, rng)
            ok, h, kind = _reference_certify(g, d, p)
            if best_seen is None or h > best_seen:
                best_seen = h
            if ok:
                spec = ExpanderSpec(n=n, p=p, d=d, certified_h=h, certificate_kind=kind)
                return g, spec
        d += 1
        if d * n % 2:
            d += 1
    raise ConstructionError(
        f"expander construction failed: n={n}, p={p}, degree ceiling "
        f"{degree_ceiling} reached after {attempts} samples "
        f"(best certified bound seen: {best_seen})"
    )


def _reference_build_expander_family(sizes, p, rng, tries_per_degree=32, degree_ceiling=64):
    p = Fraction(p)
    if any(n < 1 for n in sizes):
        raise DomainError("expander sizes must be positive")
    if p <= 0:
        raise DomainError("required Cheeger bound p must be positive")
    d = math.ceil(2 * p) + 2
    if d % 2 != 0:
        d += 1
    while d <= degree_ceiling:
        results = []
        failed = False
        for n in sizes:
            got = None
            for _ in range(tries_per_degree):
                g = sample_regular_multigraph(n, d, rng)
                ok, h, kind = _reference_certify(g, d, p)
                if ok:
                    got = (g, ExpanderSpec(n=n, p=p, d=d, certified_h=h, certificate_kind=kind))
                    break
            if got is None:
                failed = True
                break
            results.append(got)
        if not failed:
            return results, d
        d += 2
    raise ConstructionError(
        f"expander family construction failed: sizes={sizes}, p={p}, "
        f"degree ceiling {degree_ceiling} reached"
    )


def _outcome(build, first, p, seed):
    """A builder's result with graphs as (n, edges), or the text it raised,
    and the next draw of the builder's RNG."""
    rngs = []

    class Recorded(random.Random):
        def __init__(self, x):
            super().__init__(x)
            rngs.append(self)

    with pytest.MonkeyPatch.context() as mp:
        if build in (build_expander, build_expander_family):
            mp.setattr(expander, "random", types.SimpleNamespace(Random=Recorded))
            args = (first, p, seed)
        else:
            args = (first, p, Recorded(seed))
        try:
            got = build(*args)
        except ConstructionError as exc:
            return ("error", str(exc)), rngs[0].random()
    if isinstance(got[1], ExpanderSpec):
        g, spec = got
        return ((g.n, g.edges), spec), rngs[0].random()
    family, d = got
    return ([((g.n, g.edges), spec) for g, spec in family], d), rngs[0].random()


P_GRID = (Fraction(1), Fraction(3, 2), Fraction(2))


@pytest.mark.parametrize("n", [1, 2, 5, 6, 12, 16])
@pytest.mark.parametrize("p", P_GRID)
def test_build_expander_matches_reference(n, p):
    for seed in range(4):
        assert _outcome(build_expander, n, p, seed) == _outcome(_reference_build_expander, n, p, seed)


@pytest.mark.parametrize("sizes", [[1], [2], [5], [1, 3, 2, 3, 1], [6, 5, 12], [16, 1, 2, 7]])
@pytest.mark.parametrize("p", P_GRID)
def test_build_expander_family_matches_reference(sizes, p):
    for seed in range(4):
        got = _outcome(build_expander_family, sizes, p, seed)
        assert got == _outcome(_reference_build_expander_family, sizes, p, seed)


@pytest.mark.parametrize("n, p, seed", [(2, 40, 0), (21, 28, 0), (22, 30, 1)])
def test_build_expander_failure_text_matches_reference(n, p, seed):
    got = _outcome(build_expander, n, p, seed)
    assert got[0][0] == "error"
    assert got == _outcome(_reference_build_expander, n, p, seed)


def test_build_expander_failure_reports_the_best_bound_of_any_degree(monkeypatch):
    # certificates that only get worse, so the best bound is the very first one;
    # five vertices walk the even degrees 4, 6, ..., 64: 31 degrees of 32 samples
    bounds = itertools.count(1000, -1)

    def worsening(graph_or_matrix, d, p):
        return False, Fraction(next(bounds)), "exact"

    monkeypatch.setattr(expander, "_certify", worsening)
    monkeypatch.setitem(globals(), "_reference_certify", worsening)
    got = _outcome(build_expander, 5, 1, 0)
    bounds = itertools.count(1000, -1)
    assert got == _outcome(_reference_build_expander, 5, 1, 0)
    assert got[0][1].endswith("after 992 samples (best certified bound seen: 1000)")


@pytest.mark.parametrize("sizes, p", [([2], 40), ([3, 21], 28)])
def test_build_expander_family_failure_text_matches_reference(sizes, p):
    got = _outcome(build_expander_family, sizes, p, 0)
    assert got[0][0] == "error"
    assert got == _outcome(_reference_build_expander_family, sizes, p, 0)


def test_shared_sampler_calls_module_functions(monkeypatch):
    """Every stub matching, certificate and kept graph goes through the
    module's globals, so a patched function sees each call; only a certified
    matching becomes a graph."""
    calls = {"stubs": 0, "certify": 0, "graph": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(expander, "_stub_pairs", counted("stubs", expander._stub_pairs))
    monkeypatch.setattr(expander, "_certify", counted("certify", expander._certify))
    monkeypatch.setattr(expander, "_matched_graph", counted("graph", expander._matched_graph))
    monkeypatch.setattr(expander, "sample_regular_multigraph", None)  # the loop draws no graph
    with pytest.raises(ConstructionError, match="after 128 samples"):
        build_expander(21, 28, seed=0)
    assert calls == {"stubs": 128, "certify": 128, "graph": 0}
    build_expander_family([5, 6], 2, seed=4)
    assert calls["stubs"] == calls["certify"] and calls["graph"] == 2


@st.composite
def stub_matchings(draw):
    """(n, d, u, v) of one stub matching; small n with large d repeats pairs
    and puts loops on most vertices."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 12))
    if d * n % 2:
        d += 1
    u, v = expander._stub_pairs(n, d, random.Random(draw(st.integers(0, 2**32))))
    return n, d, u, v


@settings(max_examples=150, deadline=None)
@given(stub_matchings(), st.sampled_from(P_GRID + (Fraction(1, 3), Fraction(5))))
@example((3, 4, np.array([0, 0, 1, 2, 0, 1]), np.array([0, 1, 1, 2, 1, 2])), Fraction(1))
def test_matrix_certificate_matches_graph_certificate(matching, p):
    n, d, u, v = matching
    # the graph the reference builders certified: loops as two copies
    g = MultiGraph(n, [(a, b, 2 if a == b else 1) for a, b in zip(u.tolist(), v.tolist())])
    a = expander._pair_counts(n, u, v)
    assert np.array_equal(a, adjacency_matrix(g))
    assert expander._certify(a, d, p) == _reference_certify(g, d, p)
    if n > 1:
        assert expander._spectral_of(a, d) == _reference_spectral(g, d)
    if n <= 8:
        assert expander._cheeger_of(a) == _reference_cheeger(g)
    assert expander._matched_graph(n, u, v) == g
