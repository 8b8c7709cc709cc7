import hashlib
import random
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import fastchain, formats
from gapchain.cli import gen_e3cnf
from gapchain.errors import DomainError
from gapchain.fastchain import (
    audit_ssat_profile,
    blowup,
    complete_to_tournament,
    fvs_to_fas,
    nae3_to_ssat,
    ssat_to_fvs,
    subdivide_arcs,
    tournament_thresholds,
)
from gapchain.model import CnfFormula, Digraph, GapParams
from gapchain.oracle import max_nae_exact, max_sat_exact, min_fas_exact, min_fvs_exact
from gapchain.satchain import GapInstance

TRIANGLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])
DICYCLE4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def nae3_instance(f, alpha=0):
    return GapInstance(f, GapParams(Fraction(alpha), 1), "clauses")


def random_balanced_regular(n, r, seed):
    """Union of r random loop-free permutation digraphs: balanced, regular."""
    rng = random.Random(seed)
    arcs = []
    for _ in range(r):
        while True:
            perm = list(range(n))
            rng.shuffle(perm)
            if all(perm[i] != i for i in range(n)):
                break
        arcs.extend((i, perm[i], 1) for i in range(n))
    return Digraph(n, arcs)


def test_single_clause_gadget_counts():
    f = CnfFormula(3, [((0, True), (1, True), (2, False))])
    out, d = nae3_to_ssat(nae3_instance(f), seed=5)
    assert out.instance.var_count == 3
    assert out.instance.m == f.m * (2 + 3 * d)
    widths = [len(c) for c in out.instance.clauses]
    assert widths.count(3) == 2
    assert widths.count(2) == 3 * d
    assert audit_ssat_profile(out.instance) == d
    assert out.gap == GapParams(Fraction(1 + 0 + 3 * d, 2 + 3 * d), 1)


def test_nae3_to_ssat_requires_e3_and_beta_one():
    with pytest.raises(DomainError):
        nae3_to_ssat(nae3_instance(CnfFormula(2, [((0, True), (1, True))])), seed=0)
    f = gen_e3cnf(4, 2, seed=0)
    with pytest.raises(DomainError):
        nae3_to_ssat(GapInstance(f, GapParams(0, Fraction(1, 2)), "clauses"), seed=0)


def test_profile_audit_on_random_formulas():
    for trial in range(10):
        f = gen_e3cnf(4, random.Random(trial).randint(1, 4), seed=trial)
        out, d = nae3_to_ssat(nae3_instance(f), seed=trial)
        assert audit_ssat_profile(out.instance) == d
        assert out.instance.m == f.m * (2 + 3 * d)
        assert out.instance.var_count == 3 * f.m


def _reference_renamed_clauses(f):
    """The replaced occurrence scan: a table from (clause, slot) to the fresh
    variable base[v] + c for the c-th occurrence of v, built before renaming."""
    occ = f.occurrence_counts()
    base, nxt = {}, 0
    for v in range(f.var_count):
        if occ[v]:
            base[v] = nxt
            nxt += occ[v]
    occurrence_var, seen = {}, Counter()
    for ci, clause in enumerate(f.clauses):
        for li, (v, _pol) in enumerate(clause):
            occurrence_var[(ci, li)] = base[v] + seen[v]
            seen[v] += 1
    return [
        tuple((occurrence_var[(ci, li)], pol) for li, (_v, pol) in enumerate(clause))
        for ci, clause in enumerate(f.clauses)
    ]


def test_nae3_to_ssat_renames_occurrences_like_the_reference_scan():
    # six variables and at most five clauses leave some variables unused
    for trial in range(10):
        f = gen_e3cnf(6, random.Random(trial).randint(1, 5), seed=trial)
        out, _ = nae3_to_ssat(nae3_instance(f), seed=trial)
        triples = [c for c in out.instance.clauses if len(c) == 3]
        want = _reference_renamed_clauses(f)
        assert triples[0::2] == want
        assert triples[1::2] == [tuple((v, not pol) for v, pol in c) for c in want]


def test_ssat_optimum_identity():
    # both directions of the gadget argument give
    # max_sat(out) = (1+3d) m + max_nae(in)
    for trial in range(6):
        f = gen_e3cnf(4, random.Random(100 + trial).randint(1, 6), seed=trial)
        out, d = nae3_to_ssat(nae3_instance(f), seed=trial)
        if out.instance.var_count > 20:
            continue
        got = max_sat_exact(out.instance).value
        want = (1 + 3 * d) * f.m + max_nae_exact(f).value
        assert got == want


def test_audit_rejects_bad_profiles():
    with pytest.raises(DomainError):
        audit_ssat_profile(CnfFormula(1, [((0, True),)]))  # unit clause
    bad = CnfFormula(
        2,
        [
            ((0, True), (1, True), (1, False)),
            ((0, False), (1, True), (1, False)),
        ],
    )
    with pytest.raises(DomainError):
        audit_ssat_profile(bad)


def test_ssat_to_fvs_regular_balanced():
    f = CnfFormula(3, [((0, True), (1, True), (2, False))])
    ssat, gadget_d = nae3_to_ssat(nae3_instance(f), seed=5)
    fvs_gi = ssat_to_fvs(ssat)
    d = fvs_gi.instance
    assert d.n == 2 * ssat.instance.var_count
    assert d.is_loop_free()
    assert d.indegrees() == d.outdegrees()
    assert set(d.indegrees()) == {gadget_d + 2}
    assert fvs_gi.gap.alpha == Fraction(1, 2)
    assert fvs_gi.unit == d.n


def test_fvs_value_on_satisfiable_instance():
    f = CnfFormula(3, [((0, True), (1, True), (2, False))])
    ssat, _ = nae3_to_ssat(nae3_instance(f), seed=5)
    out = ssat_to_fvs(ssat).instance
    assert min_fvs_exact(out).value == out.n // 2


def test_fvs_to_fas_examples():
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    out = fvs_to_fas(GapInstance(two_cycle, GapParams(Fraction(1, 4), Fraction(1, 2)), "vertices"))
    assert out.instance.n == 4 and out.instance.m == 4
    assert min_fas_exact(out.instance).value == 1
    assert out.gap == GapParams(Fraction(1, 8), Fraction(1, 4))

    tri = fvs_to_fas(GapInstance(TRIANGLE, GapParams(Fraction(1, 4), Fraction(1, 2)), "vertices"))
    assert min_fas_exact(tri.instance).value == 1
    # every u+ has outdeg r and indeg 1 (r = 1 for the directed triangle)
    outdeg = tri.instance.outdegrees()
    indeg = tri.instance.indegrees()
    for u in range(TRIANGLE.n):
        assert outdeg[2 * u + 1] == 1
        assert indeg[2 * u + 1] == 1


def test_fvs_to_fas_optimum_equality():
    for n, r in [(2, 1), (4, 1), (4, 2), (6, 1), (6, 2), (8, 1), (8, 2)]:
        d = random_balanced_regular(n, r, seed=n * 10 + r)
        gi = GapInstance(d, GapParams(Fraction(1, 4), Fraction(1, 2)), "vertices")
        out = fvs_to_fas(gi)
        assert min_fas_exact(out.instance).value == min_fvs_exact(d).value


def test_fvs_to_fas_validates():
    with pytest.raises(DomainError):
        fvs_to_fas(GapInstance(Digraph(2, [(0, 1)]), GapParams(0, 1), "vertices"))


def test_subdivide_arcs():
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    sub = subdivide_arcs(two_cycle)
    assert sub.n == 4 and sub.m == 4
    assert sub.is_simple() and not sub.has_antiparallel_pair()
    assert min_fas_exact(sub).value == 1
    with pytest.raises(DomainError):
        subdivide_arcs(Digraph(1, [(0, 0)]))


def test_subdivide_preserves_fas():
    rng = random.Random(80)
    for _ in range(12):
        n = rng.randint(2, 6)
        arcs = []
        for _ in range(rng.randint(1, 8)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, 1))
        d = Digraph(n, arcs)
        sub = subdivide_arcs(d)
        assert sub.m == 2 * d.m
        assert min_fas_exact(sub).value == min_fas_exact(d).value


def test_blowup_law():
    for core, fas in [(TRIANGLE, 1), (DICYCLE4, 1)]:
        for t in (1, 2, 3):
            if core.n * t > 12:
                continue
            big = blowup(core, t)
            assert big.n == core.n * t
            assert big.m == t * t * core.m
            assert min_fas_exact(big).value == t * t * fas
    with pytest.raises(DomainError):
        blowup(TRIANGLE, 0)
    with pytest.raises(DomainError):
        blowup(Digraph(2, [(0, 1, 2)]), 2)


def test_tournament_completion():
    already = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    out, random_arcs = complete_to_tournament(already, seed=1)
    assert out == already
    assert random_arcs == 0

    empty = Digraph(5, [])
    out, random_arcs = complete_to_tournament(empty, seed=1)
    assert out.m == 10
    assert random_arcs == 10
    again, _ = complete_to_tournament(empty, seed=1)
    assert out == again
    other, _ = complete_to_tournament(empty, seed=2)
    assert out != other

    with pytest.raises(DomainError):
        complete_to_tournament(Digraph(2, [(0, 1), (1, 0)]), seed=0)


def test_tournament_sandwich():
    core = blowup(TRIANGLE, 2)
    base = min_fas_exact(core).value
    for seed in range(30):
        t, random_arcs = complete_to_tournament(core, seed=seed)
        val = min_fas_exact(t).value
        assert base <= val <= base + random_arcs


def test_thresholds():
    low, high = tournament_thresholds(GapParams(0, 1), 2, 3, 3)
    assert low == Fraction(1, 3) * 12 + Fraction(3, 2)
    assert high == Fraction(2, 3) * 12 + Fraction(3, 2)
    assert low < high
    low, high = tournament_thresholds(GapParams(Fraction(1, 2), Fraction(3, 4)), 3, 5, 7)
    assert (low, high) == (Fraction(7, 12) * 45 + Fraction(7, 2), Fraction(2, 3) * 45 + Fraction(7, 2))


def _reference_complete_to_tournament(d, seed):
    """The pair-by-pair loop the column version replaced: (arcs, random arc
    count, the generator's next draw)."""
    rng = random.Random(seed)
    present = {(u, v) for u, v, _ in d.arcs}
    arcs = list(d.arcs)
    random_count = 0
    for u in range(d.n):
        for v in range(u + 1, d.n):
            if (u, v) in present or (v, u) in present:
                continue
            random_count += 1
            if rng.random() < 0.5:
                arcs.append((u, v, 1))
            else:
                arcs.append((v, u, 1))
    return Digraph(d.n, arcs).arcs, random_count, rng.random()


def _completion_with_next_draw(d, seed, monkeypatch):
    """complete_to_tournament's (arcs, random arc count, next draw of its generator)."""
    made = []

    class Recording(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(fastchain, "random", types.SimpleNamespace(Random=Recording))
    out, random_arcs = complete_to_tournament(d, seed)
    (rng,) = made
    return out.arcs, random_arcs, rng.random()


@st.composite
def oriented_graphs(draw):
    """Simple digraphs with no antiparallel pair: each vertex pair is absent,
    forward or backward; at times every pair is present, so nothing is drawn."""
    n = draw(st.integers(0, 9))
    states = st.sampled_from(("forward", "backward") if draw(st.booleans()) else
                             ("absent", "forward", "backward"))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            state = draw(states)
            if state != "absent":
                arcs.append((u, v) if state == "forward" else (v, u))
    return Digraph(n, arcs)


@settings(max_examples=150, deadline=None)
@given(oriented_graphs(), st.integers(0, 2**32))
def test_tournament_completion_matches_pair_loop(d, seed):
    with pytest.MonkeyPatch.context() as mp:
        assert _completion_with_next_draw(d, seed, mp) == _reference_complete_to_tournament(d, seed)


@pytest.mark.parametrize("d", [Digraph(0), Digraph(1), Digraph(2, [(1, 0)]),
                               Digraph(3, [(0, 1), (2, 0), (1, 2)])])
def test_tournament_completion_with_nothing_missing_draws_nothing(d, monkeypatch):
    got = _completion_with_next_draw(d, 5, monkeypatch)
    assert got == _reference_complete_to_tournament(d, 5)
    assert got == (d.arcs, 0, random.Random(5).random())


def test_tournament_completion_errors_keep_their_messages():
    for d in (Digraph(3, [(0, 1, 2)]), Digraph(1, [(0, 0)])):
        with pytest.raises(DomainError, match="^complete_to_tournament requires a simple digraph$"):
            complete_to_tournament(d, seed=0)
    with pytest.raises(DomainError, match="^complete_to_tournament requires no antiparallel pairs$"):
        complete_to_tournament(Digraph(3, [(0, 1), (2, 0), (1, 0)]), seed=0)


# digraph_to_json of complete_to_tournament(_pin_input(), seed=11), computed
# with the pair-by-pair loop before the column version replaced it
TOURNAMENT_PIN_SHA256 = "01fcbe6ade04800433c1cb87ad2b7cdc6244501f6f5255b2414d5f507330cfaf"


def _pin_input():
    rng = random.Random(3)
    arcs = []
    for u in range(40):
        for v in range(u + 1, 40):
            if rng.random() < 0.3:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(40, arcs)


def test_tournament_completion_pin():
    out, random_arcs = complete_to_tournament(_pin_input(), seed=11)
    assert (out.m, random_arcs) == (780, 555)
    assert hashlib.sha256(formats.digraph_to_json(out).encode()).hexdigest() == TOURNAMENT_PIN_SHA256
